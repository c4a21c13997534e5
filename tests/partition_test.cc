// Tests for metis_lite and 2-level partitioning (§4.1 invariants).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <tuple>

#include "hongtu/common/parallel.h"
#include "hongtu/graph/builder.h"
#include "hongtu/graph/datasets.h"
#include "hongtu/partition/metis_lite.h"
#include "hongtu/partition/two_level.h"

namespace hongtu {
namespace {

Dataset SmallWeb() {
  auto r = LoadDatasetScaled("it-2004", 0.05);
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

TEST(MetisLite, SinglePartIsTrivial) {
  Dataset ds = SmallWeb();
  auto r = MetisLitePartition(ds.graph, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().edge_cut, 0);
  for (int32_t p : r.ValueOrDie().part_of) EXPECT_EQ(p, 0);
}

TEST(MetisLite, RejectsBadArgs) {
  Dataset ds = SmallWeb();
  EXPECT_TRUE(MetisLitePartition(ds.graph, 0).status().IsInvalid());
  Graph empty;
  EXPECT_TRUE(MetisLitePartition(empty, 2).status().IsInvalid());
}

TEST(MetisLite, CutBeatsRandomAssignment) {
  Dataset ds = SmallWeb();
  auto r = MetisLitePartition(ds.graph, 4);
  ASSERT_TRUE(r.ok());
  // Random 4-way assignment cuts ~75% of edges; metis-lite should do far
  // better on a local web graph.
  std::vector<int32_t> random_part(ds.graph.num_vertices());
  for (size_t v = 0; v < random_part.size(); ++v) {
    random_part[v] = static_cast<int32_t>(v % 4);
  }
  const int64_t random_cut = ComputeEdgeCut(ds.graph, random_part);
  EXPECT_LT(r.ValueOrDie().edge_cut, random_cut / 3);
}

class MetisParamTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(MetisParamTest, BalancedCover) {
  const auto& [name, k] = GetParam();
  auto dsr = LoadDatasetScaled(name, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  auto r = MetisLitePartition(ds.graph, k);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const PartitionResult& pr = r.ValueOrDie();
  ASSERT_EQ(static_cast<int64_t>(pr.part_of.size()), ds.graph.num_vertices());
  std::vector<int64_t> count(k, 0);
  for (int32_t p : pr.part_of) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, k);
    count[p]++;
  }
  const int64_t avg = ds.graph.num_vertices() / k;
  for (int64_t c : count) {
    EXPECT_GT(c, 0);
    EXPECT_LT(c, 2 * avg + 16) << "imbalanced partition";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetisParamTest,
    ::testing::Combine(::testing::Values("reddit", "it-2004", "friendster",
                                         "ogbn-paper"),
                       ::testing::Values(2, 4, 8)));

TEST(MetisLite, DeterministicForFixedSeed) {
  Dataset ds = SmallWeb();
  MetisLiteOptions o;
  o.seed = 123;
  auto a = MetisLitePartition(ds.graph, 4, o);
  auto b = MetisLitePartition(ds.graph, 4, o);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.ValueOrDie().part_of, b.ValueOrDie().part_of);
  EXPECT_EQ(a.ValueOrDie().edge_cut, b.ValueOrDie().edge_cut);
}

TEST(MetisLite, MoreRefinementNeverWorsensCut) {
  Dataset ds = SmallWeb();
  MetisLiteOptions few;
  few.refine_passes = 1;
  MetisLiteOptions many;
  many.refine_passes = 12;
  auto a = MetisLitePartition(ds.graph, 4, few);
  auto b = MetisLitePartition(ds.graph, 4, many);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(b.ValueOrDie().edge_cut, a.ValueOrDie().edge_cut);
}

TEST(TwoLevel, RejectsBadArgs) {
  Dataset ds = SmallWeb();
  EXPECT_TRUE(BuildTwoLevelPartition(ds.graph, 0, 1).status().IsInvalid());
  EXPECT_TRUE(BuildTwoLevelPartition(ds.graph, 1, 0).status().IsInvalid());
}

class TwoLevelParamTest
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(TwoLevelParamTest, ChunksPartitionTheGraph) {
  const auto& [name, m, n] = GetParam();
  auto dsr = LoadDatasetScaled(name, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  auto r = BuildTwoLevelPartition(ds.graph, m, n);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TwoLevelPartition& tl = r.ValueOrDie();
  ASSERT_EQ(tl.num_partitions, m);
  ASSERT_EQ(tl.num_chunks, n);

  // Destination sets are disjoint and cover V; every destination's full
  // in-edge set is present (full-neighbor aggregation, §4.1).
  std::vector<int> seen(ds.graph.num_vertices(), 0);
  int64_t total_edges = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const Chunk& c = tl.chunks[i][j];
      for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
        const VertexId v = c.dst_vertices[d];
        seen[v]++;
        EXPECT_EQ(tl.partition_of[v], i);
        EXPECT_EQ(c.in_offsets[d + 1] - c.in_offsets[d],
                  ds.graph.in_degree(v));
      }
      total_edges += c.num_edges();
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
  EXPECT_EQ(total_edges, ds.graph.num_edges());
}

TEST_P(TwoLevelParamTest, ChunkLocalStructureConsistent) {
  const auto& [name, m, n] = GetParam();
  auto dsr = LoadDatasetScaled(name, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Dataset& ds = dsr.ValueOrDie();
  auto r = BuildTwoLevelPartition(ds.graph, m, n);
  ASSERT_TRUE(r.ok());
  for (const auto& row : r.ValueOrDie().chunks) {
    for (const Chunk& c : row) {
      // Neighbor set is sorted and unique.
      EXPECT_TRUE(std::is_sorted(c.neighbors.begin(), c.neighbors.end()));
      EXPECT_EQ(std::adjacent_find(c.neighbors.begin(), c.neighbors.end()),
                c.neighbors.end());
      // Every edge references a valid neighbor slot; weights match graph.
      for (int64_t e = 0; e < c.num_edges(); ++e) {
        ASSERT_GE(c.nbr_idx[e], 0);
        ASSERT_LT(c.nbr_idx[e], c.num_neighbors());
      }
      // self_idx resolves each destination to itself.
      for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
        ASSERT_GE(c.self_idx[d], 0);
        EXPECT_EQ(c.neighbors[c.self_idx[d]], c.dst_vertices[d]);
      }
      // CSR mirror holds the same edge multiset.
      EXPECT_EQ(static_cast<int64_t>(c.dst_idx.size()), c.num_edges());
      std::multiset<std::pair<int32_t, int32_t>> csc, csr;
      for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
        for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
          csc.insert({c.nbr_idx[e], static_cast<int32_t>(d)});
        }
      }
      for (size_t s = 0; s < c.neighbors.size(); ++s) {
        for (int64_t e = c.src_offsets[s]; e < c.src_offsets[s + 1]; ++e) {
          csr.insert({static_cast<int32_t>(s), c.dst_idx[e]});
          // src_edge_idx maps to a CSC edge with the same endpoints.
          const int32_t ce = c.src_edge_idx[e];
          EXPECT_EQ(c.nbr_idx[ce], static_cast<int32_t>(s));
          EXPECT_EQ(c.in_weights[ce], c.src_weights[e]);
        }
      }
      EXPECT_EQ(csc, csr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoLevelParamTest,
    ::testing::Combine(::testing::Values("it-2004", "friendster"),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 3, 8)));

TEST(ReplicationFactor, GrowsWithPartitionCount) {
  // Table 3's headline trend: alpha increases monotonically with the number
  // of partitions, and the well-mixed social graph replicates far more than
  // the local web graph.
  auto web = LoadDatasetScaled("it-2004", 0.1);
  auto soc = LoadDatasetScaled("friendster", 0.1);
  ASSERT_TRUE(web.ok() && soc.ok());
  double prev_web = 0, prev_soc = 0;
  for (int parts : {2, 8, 32}) {
    auto w = BuildTwoLevelPartition(web.ValueOrDie().graph, 1, parts);
    auto s = BuildTwoLevelPartition(soc.ValueOrDie().graph, 1, parts);
    ASSERT_TRUE(w.ok() && s.ok());
    const double aw = w.ValueOrDie().ReplicationFactor(
        web.ValueOrDie().graph.num_vertices());
    const double as = s.ValueOrDie().ReplicationFactor(
        soc.ValueOrDie().graph.num_vertices());
    EXPECT_GE(aw, prev_web);
    EXPECT_GE(as, prev_soc);
    EXPECT_GE(aw, 1.0);
    prev_web = aw;
    prev_soc = as;
  }
  EXPECT_GT(prev_soc, prev_web);  // friendster-like >> it-2004-like
}

TEST(ExtractChunk, EmptyDestinationSet) {
  Dataset ds = SmallWeb();
  Chunk c = ExtractChunk(ds.graph, {}, 0, 0);
  EXPECT_EQ(c.num_dst(), 0);
  EXPECT_EQ(c.num_edges(), 0);
  EXPECT_EQ(c.num_neighbors(), 0);
}

TEST(ExtractChunk, FullGraphIsIdentity) {
  Dataset ds = SmallWeb();
  std::vector<VertexId> all(ds.graph.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  Chunk c = ExtractChunk(ds.graph, std::move(all), 0, 0);
  // Self-loops make every vertex a source: the neighbor set is the identity.
  ASSERT_EQ(c.num_neighbors(), ds.graph.num_vertices());
  for (int64_t v = 0; v < c.num_neighbors(); ++v) {
    EXPECT_EQ(c.neighbors[v], v);
    EXPECT_EQ(c.self_idx[v], v);
  }
  EXPECT_EQ(c.num_edges(), ds.graph.num_edges());
}

// ---- Golden partition digests ----------------------------------------------
// FNV-1a over every output array of the 2-level partition. Any change to
// matching tie-breaks, refinement order, chunk boundaries or the local
// CSC/CSR layout shows up here, and chunk extraction must give the same
// bits at every OpenMP team size.

struct Fnv64 {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    const uint64_t n = v.size();
    Bytes(&n, sizeof(n));
    Bytes(v.data(), v.size() * sizeof(T));
  }
};

uint64_t PartitionDigest(const Graph& g, const TwoLevelPartition& tl) {
  Fnv64 f;
  f.Vec(tl.partition_of);
  const int64_t cut = ComputeEdgeCut(g, tl.partition_of);
  f.Bytes(&cut, sizeof(cut));
  for (const auto& row : tl.chunks) {
    for (const Chunk& c : row) {
      f.Bytes(&c.partition_id, sizeof(c.partition_id));
      f.Bytes(&c.chunk_id, sizeof(c.chunk_id));
      f.Vec(c.dst_vertices);
      f.Vec(c.neighbors);
      f.Vec(c.in_offsets);
      f.Vec(c.nbr_idx);
      f.Vec(c.in_weights);
      f.Vec(c.src_offsets);
      f.Vec(c.dst_idx);
      f.Vec(c.src_weights);
      f.Vec(c.src_edge_idx);
      f.Vec(c.self_idx);
    }
  }
  return f.h;
}

struct GoldenCase {
  const char* dataset;
  int m;
  int n;
  uint64_t digest;
};

void PrintTo(const GoldenCase& gc, std::ostream* os) {
  *os << gc.dataset << " m=" << gc.m << " n=" << gc.n;
}

class GoldenPartitionTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenPartitionTest, DigestIsPinnedAtAnyTeamSize) {
  const GoldenCase& gc = GetParam();
  auto dsr = LoadDatasetScaled(gc.dataset, 0.05);
  ASSERT_TRUE(dsr.ok());
  const Graph& g = dsr.ValueOrDie().graph;
  const int team = NumThreads();
  for (int threads : {1, team}) {
    SetNumThreads(threads);
    auto r = BuildTwoLevelPartition(g, gc.m, gc.n);
    SetNumThreads(team);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const uint64_t d = PartitionDigest(g, r.ValueOrDie());
    EXPECT_EQ(d, gc.digest) << gc.dataset << " m=" << gc.m << " n=" << gc.n
                            << " threads=" << threads << " digest=0x"
                            << std::hex << d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixed, GoldenPartitionTest,
    ::testing::Values(GoldenCase{"it-2004", 4, 8, 0x039844c634c49d7full},
                      GoldenCase{"reddit", 4, 1, 0x00757c669b822029ull},
                      GoldenCase{"friendster", 4, 16, 0xb837e6917006a9a4ull}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = info.param.dataset;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_m" + std::to_string(info.param.m) + "_n" +
             std::to_string(info.param.n);
    });

TEST(ExtractChunk, MissingSelfLoopsAndParallelEdges) {
  // 6 vertices, no self-loops added, duplicates kept. Vertices 1 and 3
  // have self-loops; vertex 4 has none. 5 -> 4 appears three times and
  // 0 -> 1 twice.
  GraphBuilderOptions o;
  o.add_self_loops = false;
  o.deduplicate = false;
  auto gr = GraphBuilder(o).Build(
      6, {{0, 1}, {1, 1}, {0, 1}, {3, 1}, {5, 4}, {2, 4}, {5, 4}, {5, 4},
          {1, 3}, {3, 3}});
  ASSERT_TRUE(gr.ok()) << gr.status().ToString();
  const Graph& g = gr.ValueOrDie();
  Chunk c = ExtractChunk(g, {4, 1, 3}, 2, 5);
  EXPECT_EQ(c.partition_id, 2);
  EXPECT_EQ(c.chunk_id, 5);
  ASSERT_EQ(c.dst_vertices, (std::vector<VertexId>{1, 3, 4}));
  EXPECT_EQ(c.neighbors, (std::vector<VertexId>{0, 1, 2, 3, 5}));
  EXPECT_EQ(c.num_edges(), 10);

  // nbr_idx is the position of each in-neighbor in the sorted neighbor set.
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    const VertexId v = c.dst_vertices[d];
    ASSERT_EQ(c.in_offsets[d + 1] - c.in_offsets[d], g.in_degree(v));
    int64_t o = c.in_offsets[d];
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e, ++o) {
      const VertexId u = g.in_neighbors()[e];
      const auto it =
          std::lower_bound(c.neighbors.begin(), c.neighbors.end(), u);
      ASSERT_TRUE(it != c.neighbors.end() && *it == u);
      EXPECT_EQ(c.nbr_idx[o], it - c.neighbors.begin());
      EXPECT_EQ(c.in_weights[o], g.in_weights()[e]);
    }
  }
  // Every copy of a duplicate in-edge maps to the same neighbor slot.
  std::vector<int32_t> from5;
  for (int64_t e = c.in_offsets[2]; e < c.in_offsets[3]; ++e) {
    if (c.neighbors[c.nbr_idx[e]] == 5) from5.push_back(c.nbr_idx[e]);
  }
  EXPECT_EQ(from5, (std::vector<int32_t>{4, 4, 4}));

  // Vertex 4 has no self-loop and is no destination's in-neighbor, so it
  // is absent from the neighbor set.
  EXPECT_EQ(c.self_idx, (std::vector<int32_t>{1, 3, -1}));

  // The CSR mirror lists every source's out-edges in destination order.
  ASSERT_EQ(c.src_offsets.size(), c.neighbors.size() + 1);
  for (size_t s = 0; s < c.neighbors.size(); ++s) {
    for (int64_t e = c.src_offsets[s]; e < c.src_offsets[s + 1]; ++e) {
      EXPECT_EQ(c.nbr_idx[c.src_edge_idx[e]], static_cast<int32_t>(s));
      if (e > c.src_offsets[s]) {
        EXPECT_GT(c.src_edge_idx[e], c.src_edge_idx[e - 1]);
      }
    }
  }
}

TEST(ExtractChunk, DestinationWithoutSelfLoopOutsideNeighborSet) {
  GraphBuilderOptions o;
  o.add_self_loops = false;
  auto gr = GraphBuilder(o).Build(3, {{0, 2}, {1, 2}});
  ASSERT_TRUE(gr.ok());
  Chunk c = ExtractChunk(gr.ValueOrDie(), {2, 0}, 0, 0);
  EXPECT_EQ(c.dst_vertices, (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(c.neighbors, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(c.in_offsets, (std::vector<int64_t>{0, 0, 2}));
  EXPECT_EQ(c.nbr_idx, (std::vector<int32_t>{0, 1}));
  // Neither destination has a self-loop. Vertex 0 still resolves, because
  // it is an in-neighbor of 2; vertex 2 is no destination's in-neighbor.
  EXPECT_EQ(c.self_idx, (std::vector<int32_t>{0, -1}));
}

}  // namespace
}  // namespace hongtu
