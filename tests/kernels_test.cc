// Equivalence tests for the kernel layer: the blocked SIMD backend must
// match the reference backend to <= 1e-4 max-abs-diff on random and
// power-law-skewed inputs, including edge cases (dim=1, empty chunks,
// zero-degree vertices). Also covers the edge-balanced work partitioner and
// end-to-end layer forward/backward under both backends.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "hongtu/common/parallel.h"
#include "hongtu/gnn/gat_layer.h"
#include "hongtu/gnn/gcn_layer.h"
#include "hongtu/gnn/ggnn_layer.h"
#include "hongtu/gnn/gin_layer.h"
#include "hongtu/gnn/sage_layer.h"
#include "hongtu/graph/builder.h"
#include "hongtu/graph/generators.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/gemm.h"
#include "hongtu/kernels/schedule.h"
#include "hongtu/kernels/spmm.h"
#include "hongtu/partition/two_level.h"
#include "hongtu/tensor/ops.h"
#include "hongtu/tensor/pool.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {
namespace {

constexpr double kTol = 1e-4;

/// Restores the seed default backend after each test.
class KernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { kernels::SetBackend(kernels::Backend::kBlocked); }
};

// ---- GEMM ------------------------------------------------------------------

void CheckGemmShape(int64_t m, int64_t k, int64_t n, bool accumulate,
                    kernels::Epilogue ep) {
  const Tensor a = Tensor::Gaussian(m, k, 0.5f, 7 * m + k);
  const Tensor b = Tensor::Gaussian(k, n, 0.5f, 13 * n + k);
  const Tensor bias = Tensor::Gaussian(1, n, 0.5f, 17 + n);
  Tensor c_ref = Tensor::Gaussian(m, n, 0.3f, 23);
  Tensor c_blk = c_ref.Clone();
  kernels::Gemm(kernels::Backend::kReference, a.data(), b.data(),
                c_ref.data(), m, k, n, accumulate, bias.data(), ep);
  kernels::Gemm(kernels::Backend::kBlocked, a.data(), b.data(), c_blk.data(),
                m, k, n, accumulate, bias.data(), ep);
  EXPECT_LE(Tensor::MaxAbsDiff(c_ref, c_blk), kTol)
      << "m=" << m << " k=" << k << " n=" << n << " accum=" << accumulate;
}

TEST_F(KernelsTest, GemmMatchesReferenceAcrossShapes) {
  // Covers exact micro-tile multiples, remainders in every dimension,
  // multi-block K and N, and degenerate row/column counts.
  const int64_t shapes[][3] = {{1, 1, 1},    {3, 5, 7},    {8, 16, 16},
                               {17, 31, 33}, {64, 64, 64}, {129, 300, 47},
                               {256, 512, 80}, {40, 1, 16}, {1, 600, 1}};
  for (const auto& s : shapes) {
    CheckGemmShape(s[0], s[1], s[2], false, kernels::Epilogue::kNone);
  }
}

TEST_F(KernelsTest, GemmEpiloguesMatchReference) {
  for (const auto ep :
       {kernels::Epilogue::kBias, kernels::Epilogue::kBiasRelu,
        kernels::Epilogue::kBiasSigmoid, kernels::Epilogue::kBiasTanh}) {
    CheckGemmShape(65, 48, 33, false, ep);
    CheckGemmShape(65, 48, 33, true, ep);  // accumulate + epilogue
  }
}

TEST_F(KernelsTest, GemmAccumulateMatchesReference) {
  CheckGemmShape(50, 300, 20, true, kernels::Epilogue::kNone);
}

TEST_F(KernelsTest, GemmTransAAccumMatchesReference) {
  const int64_t shapes[][3] = {
      {500, 8, 16}, {1000, 64, 32}, {37, 19, 5}, {2048, 65, 17}};
  for (const auto& s : shapes) {
    const int64_t k = s[0], m = s[1], n = s[2];
    const Tensor a = Tensor::Gaussian(k, m, 0.5f, 31);
    const Tensor b = Tensor::Gaussian(k, n, 0.5f, 37);
    Tensor c_ref = Tensor::Gaussian(m, n, 0.3f, 41);
    Tensor c_blk = c_ref.Clone();
    kernels::GemmTransAAccum(kernels::Backend::kReference, a.data(), b.data(),
                             c_ref.data(), k, m, n);
    kernels::GemmTransAAccum(kernels::Backend::kBlocked, a.data(), b.data(),
                             c_blk.data(), k, m, n);
    EXPECT_LE(Tensor::MaxAbsDiff(c_ref, c_blk), kTol) << "k=" << k;
  }
}

TEST_F(KernelsTest, GemmTransBMatchesReference) {
  const int64_t shapes[][3] = {
      {400, 32, 64}, {33, 17, 129}, {1000, 64, 48}, {5, 3, 2}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = Tensor::Gaussian(m, k, 0.5f, 43);
    const Tensor b = Tensor::Gaussian(n, k, 0.5f, 47);
    Tensor c_ref(m, n), c_blk(m, n);
    kernels::GemmTransB(kernels::Backend::kReference, a.data(), b.data(),
                        c_ref.data(), m, k, n);
    kernels::GemmTransB(kernels::Backend::kBlocked, a.data(), b.data(),
                        c_blk.data(), m, k, n);
    EXPECT_LE(Tensor::MaxAbsDiff(c_ref, c_blk), kTol) << "m=" << m;
  }
}

TEST_F(KernelsTest, ColumnSumAndDotMatchReference) {
  const Tensor x = Tensor::Gaussian(700, 37, 0.5f, 53);
  Tensor out_ref = Tensor::Gaussian(1, 37, 0.2f, 59);
  Tensor out_blk = out_ref.Clone();
  kernels::ColumnSumAccum(kernels::Backend::kReference, x.data(), x.rows(),
                          x.cols(), out_ref.data());
  kernels::ColumnSumAccum(kernels::Backend::kBlocked, x.data(), x.rows(),
                          x.cols(), out_blk.data());
  EXPECT_LE(Tensor::MaxAbsDiff(out_ref, out_blk), kTol);

  const Tensor y = Tensor::Gaussian(700, 37, 0.5f, 61);
  const double d_ref =
      kernels::Dot(kernels::Backend::kReference, x.data(), y.data(), x.size());
  const double d_blk =
      kernels::Dot(kernels::Backend::kBlocked, x.data(), y.data(), x.size());
  EXPECT_NEAR(d_ref, d_blk, kTol * x.size());
}

// ---- Golden GEMM-family digest ---------------------------------------------
// FNV-1a over the blocked outputs of every dense kernel the layers call.
// Each output element has one owning thread and a fixed summation order, so
// the bits must not depend on the team size. The pinned value also catches
// a change to the order itself (depth blocks, epilogue arithmetic). It
// depends on the float code the compiler emits (FMA contraction) and on
// libm's expf/tanhf, so it is pinned per build flavour; a flavour without a
// pinned value still checks the team-size invariance.

#if defined(__GNUC__) && !defined(__clang__) && defined(__FMA__)
constexpr uint64_t kGemmFamilyGolden = 0x642bc732ba98d532ull;  // GCC, FMA
#elif defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
constexpr uint64_t kGemmFamilyGolden = 0x54dd22c31cb5f23eull;  // GCC, no FMA
#else
constexpr uint64_t kGemmFamilyGolden = 0;  // not pinned
#endif

uint64_t Fnv1a(uint64_t h, const float* p, int64_t n) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  for (int64_t i = 0; i < n * static_cast<int64_t>(sizeof(float)); ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t BlockedGemmFamilyDigest() {
  constexpr auto kB = kernels::Backend::kBlocked;
  uint64_t h = 1469598103934665603ull;
  // Gemm (m, k, n): fewer output tiles than threads with five depth blocks,
  // remainders in every dimension, two column blocks, and a layer shape
  // with enough row tiles to run in parallel.
  const int64_t gemm_shapes[][3] = {
      {5, 1100, 19}, {67, 300, 150}, {300, 64, 260}, {600, 128, 128}};
  for (const auto& s : gemm_shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = Tensor::Gaussian(m, k, 0.5f, 101 + m);
    const Tensor b = Tensor::Gaussian(k, n, 0.5f, 103 + n);
    const Tensor bias = Tensor::Gaussian(1, n, 0.5f, 107);
    for (const auto ep :
         {kernels::Epilogue::kNone, kernels::Epilogue::kBias,
          kernels::Epilogue::kBiasRelu, kernels::Epilogue::kBiasSigmoid,
          kernels::Epilogue::kBiasTanh}) {
      for (const bool accumulate : {false, true}) {
        Tensor c = Tensor::Gaussian(m, n, 0.3f, 109);
        kernels::Gemm(kB, a.data(), b.data(), c.data(), m, k, n, accumulate,
                      ep == kernels::Epilogue::kNone ? nullptr : bias.data(),
                      ep);
        h = Fnv1a(h, c.data(), c.size());
      }
    }
  }
  // GemmTransAAccum (k, m, n): k > 1024 spans two or three depth blocks;
  // m=5, n=19 gives two output tiles.
  const int64_t transa_shapes[][3] = {
      {2500, 128, 128}, {1100, 5, 19}, {1500, 37, 70}};
  for (const auto& s : transa_shapes) {
    const int64_t k = s[0], m = s[1], n = s[2];
    const Tensor a = Tensor::Gaussian(k, m, 0.5f, 113 + m);
    const Tensor b = Tensor::Gaussian(k, n, 0.5f, 127 + n);
    Tensor c = Tensor::Gaussian(m, n, 0.3f, 131);
    kernels::GemmTransAAccum(kB, a.data(), b.data(), c.data(), k, m, n);
    h = Fnv1a(h, c.data(), c.size());
  }
  // GemmTransB (m, k, n).
  const int64_t transb_shapes[][3] = {
      {600, 128, 64}, {5, 1100, 19}, {67, 300, 150}};
  for (const auto& s : transb_shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = Tensor::Gaussian(m, k, 0.5f, 137 + m);
    const Tensor b = Tensor::Gaussian(n, k, 0.5f, 139 + n);
    Tensor c(m, n);
    kernels::GemmTransB(kB, a.data(), b.data(), c.data(), m, k, n);
    h = Fnv1a(h, c.data(), c.size());
  }
  // ColumnSumAccum (rows, cols): full and partial column blocks.
  const int64_t colsum_shapes[][2] = {{3000, 128}, {700, 37}, {5, 19}};
  for (const auto& s : colsum_shapes) {
    const Tensor x = Tensor::Gaussian(s[0], s[1], 0.5f, 149 + s[1]);
    Tensor out = Tensor::Gaussian(1, s[1], 0.2f, 151);
    kernels::ColumnSumAccum(kB, x.data(), x.rows(), x.cols(), out.data());
    h = Fnv1a(h, out.data(), out.size());
  }
  return h;
}

TEST_F(KernelsTest, BlockedGemmFamilyIsTeamSizeInvariant) {
  const int team = NumThreads();
  uint64_t first = 0;
  for (const int threads : {1, 2, 3, team}) {
    SetNumThreads(threads);
    const uint64_t d = BlockedGemmFamilyDigest();
    SetNumThreads(team);
    if (threads == 1) first = d;
    EXPECT_EQ(d, first) << "threads=" << threads << " digest=0x" << std::hex
                        << d;
    if (kGemmFamilyGolden != 0) {
      EXPECT_EQ(d, kGemmFamilyGolden)
          << "threads=" << threads << " digest=0x" << std::hex << d;
    }
  }
}

// ---- Work partitioner ------------------------------------------------------

TEST_F(KernelsTest, ParallelForBalancedCoversEveryItemOnce) {
  // Heavily skewed weights: one hub, a zero-degree tail, random middle.
  Rng rng(71);
  const int64_t n = 5000;
  std::vector<int64_t> prefix(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    int64_t w = rng.NextInt(4);
    if (i == 42) w = 100000;       // hub
    if (i > n - 500) w = 0;        // zero-degree tail
    prefix[i + 1] = prefix[i] + w;
  }
  std::vector<int> covered(n, 0);
  ParallelForBalanced(n, prefix.data(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
#pragma omp atomic
      ++covered[i];
    }
  });
  for (int64_t i = 0; i < n; ++i) ASSERT_EQ(covered[i], 1) << i;
}

TEST_F(KernelsTest, ParallelForBalancedHandlesEmptyAndAllZero) {
  std::vector<int64_t> prefix = {0, 0, 0, 0};
  int calls = 0;
  ParallelForBalanced(0, prefix.data(), [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // All-zero weights still visit every item exactly once.
  std::vector<int> covered(3, 0);
  ParallelForBalanced(3, prefix.data(), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++covered[i];
  });
  EXPECT_EQ(covered[0] + covered[1] + covered[2], 3);
}

// ---- SpMM ------------------------------------------------------------------

Chunk FullChunk(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  return ExtractChunk(g, std::move(all), 0, 0);
}

/// Power-law-skewed graph (RMAT) — the workload the edge-balanced split is
/// for. Includes self-loop-free vertices with zero in-degree before the
/// builder adds self-loops.
Graph SkewedGraph(int64_t n, int64_t e, uint64_t seed) {
  RmatOptions opts;
  opts.seed = seed;
  auto edges = GenerateRmat(n, e, opts);
  EXPECT_TRUE(edges.ok());
  GraphBuilder b;
  auto g = b.Build(n, edges.MoveValueUnsafe());
  EXPECT_TRUE(g.ok());
  return g.MoveValueUnsafe();
}

Graph RandomGraph(int64_t n, int64_t e, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int64_t i = 0; i < e; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextInt(n));
    const VertexId v = static_cast<VertexId>(rng.NextInt(n));
    if (u != v) edges.emplace_back(u, v);
  }
  GraphBuilder b;
  auto g = b.Build(n, std::move(edges));
  EXPECT_TRUE(g.ok());
  return g.MoveValueUnsafe();
}

void CheckAggregationPrimitives(const Graph& g, int64_t dim) {
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  const Tensor src = Tensor::Gaussian(lg.num_src, dim, 0.7f, 83);
  const Tensor d_dst = Tensor::Gaussian(lg.num_dst, dim, 0.7f, 89);

  using GatherFn = void (*)(const LocalGraph&, const Tensor&, Tensor*);
  const GatherFn gathers[] = {&GatherWeighted, &GatherSum, &GatherMean};
  for (const auto fn : gathers) {
    Tensor ref(lg.num_dst, dim), blk(lg.num_dst, dim);
    kernels::SetBackend(kernels::Backend::kReference);
    fn(lg, src, &ref);
    kernels::SetBackend(kernels::Backend::kBlocked);
    fn(lg, src, &blk);
    EXPECT_LE(Tensor::MaxAbsDiff(ref, blk), kTol) << "dim=" << dim;
  }

  using ScatterFn = void (*)(const LocalGraph&, const Tensor&, Tensor*);
  const ScatterFn scatters[] = {&ScatterWeightedAccum, &ScatterSumAccum,
                                &ScatterMeanAccum};
  for (const auto fn : scatters) {
    Tensor ref = Tensor::Gaussian(lg.num_src, dim, 0.3f, 97);
    Tensor blk = ref.Clone();
    kernels::SetBackend(kernels::Backend::kReference);
    fn(lg, d_dst, &ref);
    kernels::SetBackend(kernels::Backend::kBlocked);
    fn(lg, d_dst, &blk);
    EXPECT_LE(Tensor::MaxAbsDiff(ref, blk), kTol) << "dim=" << dim;
  }
}

TEST_F(KernelsTest, SpmmMatchesReferenceOnRandomGraph) {
  const Graph g = RandomGraph(400, 3000, 101);
  for (const int64_t dim : {1, 5, 16, 33, 64}) {
    CheckAggregationPrimitives(g, dim);
  }
}

TEST_F(KernelsTest, SpmmMatchesReferenceOnPowerLawGraph) {
  const Graph g = SkewedGraph(1024, 16384, 103);
  for (const int64_t dim : {1, 16, 64}) {
    CheckAggregationPrimitives(g, dim);
  }
}

TEST_F(KernelsTest, SpmmHandlesEmptyChunk) {
  const Graph g = RandomGraph(50, 200, 107);
  Chunk chunk = ExtractChunk(g, {}, 0, 0);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  const Tensor src(0, 16);
  Tensor dst(0, 16);
  GatherWeighted(lg, src, &dst);  // must not crash
  EXPECT_EQ(dst.size(), 0);
}

TEST_F(KernelsTest, GatherRowsAndScatterRowsHandleMissingSelf) {
  const int64_t dim = 20;
  const Tensor x = Tensor::Gaussian(6, dim, 1.0f, 109);
  const std::vector<int32_t> idx = {3, -1, 0, 5};
  Tensor out(4, dim);
  kernels::GatherRows(kernels::Backend::kBlocked, idx.data(), 4, x.data(),
                      dim, out.data());
  for (int64_t c = 0; c < dim; ++c) {
    EXPECT_EQ(out.at(0, c), x.at(3, c));
    EXPECT_EQ(out.at(1, c), 0.0f);
  }
  Tensor acc_ref(6, dim), acc_blk(6, dim);
  kernels::ScatterRowsAccum(kernels::Backend::kReference, idx.data(), 4,
                            out.data(), 1.5f, dim, acc_ref.data());
  kernels::ScatterRowsAccum(kernels::Backend::kBlocked, idx.data(), 4,
                            out.data(), 1.5f, dim, acc_blk.data());
  EXPECT_LE(Tensor::MaxAbsDiff(acc_ref, acc_blk), kTol);
  EXPECT_NEAR(acc_ref.at(3, 0), 1.5f * out.at(0, 0), 1e-6);
}

// ---- Propagation-blocked (banded) path -------------------------------------

/// A hub graph: every vertex points at vertex 0 and vertex 0 points at a
/// spread of vertices, so one CSC row (and one CSR row) dominates.
Graph StarGraph(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int64_t u = 1; u < n; ++u) {
    edges.emplace_back(static_cast<VertexId>(u), 0);
    if (rng.NextInt(4) == 0) {
      edges.emplace_back(0, static_cast<VertexId>(u));
    }
  }
  GraphBuilder b;
  auto g = b.Build(n, std::move(edges));
  EXPECT_TRUE(g.ok());
  return g.MoveValueUnsafe();
}

/// All non-self-loop edges live among the first n/8 vertices, so most
/// (shard, band) buckets of a forced-small-band schedule are empty.
Graph EmptyBandGraph(int64_t n, int64_t e, uint64_t seed) {
  Rng rng(seed);
  const int64_t lo_n = std::max<int64_t>(2, n / 8);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int64_t i = 0; i < e; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextInt(lo_n));
    const VertexId v = static_cast<VertexId>(rng.NextInt(lo_n));
    if (u != v) edges.emplace_back(u, v);
  }
  GraphBuilder b;
  auto g = b.Build(n, std::move(edges));
  EXPECT_TRUE(g.ok());
  return g.MoveValueUnsafe();
}

/// Tiny L2 budget so even test-sized chunks split into several 256-row
/// bands and the ShouldUse table check passes for every dim >= 16.
kernels::EdgeScheduleParams ForcedBandedParams() {
  kernels::EdgeScheduleParams p;
  p.l2_bytes = 512;
  p.max_dim = 1;  // band_rows hits its 256-row floor
  p.num_shards = 4;
  return p;
}

/// All six primitives, banded vs reference, on one chunk.
void CheckBandedPrimitives(const Chunk& chunk, int64_t dim) {
  const ChunkSchedules scheds =
      ChunkSchedules::Build(chunk, ForcedBandedParams());
  const LocalGraph plain = LocalGraph::FromChunk(chunk);
  const LocalGraph banded = LocalGraph::FromChunk(chunk, &scheds);
  const Tensor src = Tensor::Gaussian(plain.num_src, dim, 0.7f, 211);
  const Tensor d_dst = Tensor::Gaussian(plain.num_dst, dim, 0.7f, 223);

  using GatherFn = void (*)(const LocalGraph&, const Tensor&, Tensor*);
  const GatherFn gathers[] = {&GatherWeighted, &GatherSum, &GatherMean};
  for (const auto fn : gathers) {
    Tensor ref(plain.num_dst, dim), out(plain.num_dst, dim);
    kernels::SetBackend(kernels::Backend::kReference);
    fn(plain, src, &ref);
    kernels::SetBackend(kernels::Backend::kBlocked);
    fn(banded, src, &out);
    EXPECT_LE(Tensor::MaxAbsDiff(ref, out), kTol) << "gather dim=" << dim;
  }

  using ScatterFn = void (*)(const LocalGraph&, const Tensor&, Tensor*);
  const ScatterFn scatters[] = {&ScatterWeightedAccum, &ScatterSumAccum,
                                &ScatterMeanAccum};
  for (const auto fn : scatters) {
    Tensor ref = Tensor::Gaussian(plain.num_src, dim, 0.3f, 227);
    Tensor out = ref.Clone();
    kernels::SetBackend(kernels::Backend::kReference);
    fn(plain, d_dst, &ref);
    kernels::SetBackend(kernels::Backend::kBlocked);
    fn(banded, d_dst, &out);
    EXPECT_LE(Tensor::MaxAbsDiff(ref, out), kTol) << "scatter dim=" << dim;
  }
}

TEST_F(KernelsTest, BandedMatchesReferenceAcrossChunkShapes) {
  const Graph uniform = RandomGraph(2000, 16000, 307);
  const Graph power_law = SkewedGraph(2048, 24576, 311);
  const Graph star = StarGraph(1500, 313);
  const Graph empty_band = EmptyBandGraph(2048, 12000, 317);
  for (const Graph* g : {&uniform, &power_law, &star, &empty_band}) {
    const Chunk chunk = FullChunk(*g);
    // Dims below 16 (and non-accumulating gathers below 32) take the
    // documented single-pass fallback; equivalence must hold either way.
    for (const int64_t dim : {1, 8, 16, 64, 256}) {
      CheckBandedPrimitives(chunk, dim);
    }
  }
}

TEST_F(KernelsTest, BandedMatchesReferenceOnHongTuStyleChunks) {
  // Chunked views (a partition's dst ranges), not just full-graph chunks.
  const Graph g = SkewedGraph(2048, 24576, 331);
  const int64_t n = g.num_vertices();
  for (int c = 0; c < 4; ++c) {
    std::vector<VertexId> dsts;
    for (int64_t v = n * c / 4; v < n * (c + 1) / 4; ++v) {
      dsts.push_back(static_cast<VertexId>(v));
    }
    const Chunk chunk = ExtractChunk(g, std::move(dsts), 0, c);
    CheckBandedPrimitives(chunk, 64);
  }
}

TEST_F(KernelsTest, EdgeScheduleInvariants) {
  const Graph g = SkewedGraph(2048, 24576, 401);
  const Chunk chunk = FullChunk(g);
  const kernels::EdgeSchedule s = kernels::EdgeSchedule::Build(
      chunk.num_dst(), chunk.in_offsets.data(), chunk.nbr_idx.data(),
      chunk.in_weights.data(), chunk.num_neighbors(), ForcedBandedParams());
  const int64_t E = chunk.num_edges();
  ASSERT_EQ(s.num_edges(), E);
  ASSERT_GE(s.num_bands(), 2) << "forced params must produce real bands";
  const int S = s.num_shards();
  const int B = s.num_bands();

  // Bucket offsets tile [0, E] monotonically; shard prefix rides on them.
  const int64_t* bo = s.bucket_offsets();
  EXPECT_EQ(bo[0], 0);
  EXPECT_EQ(bo[static_cast<int64_t>(S) * B], E);
  for (int64_t i = 0; i < static_cast<int64_t>(S) * B; ++i) {
    EXPECT_LE(bo[i], bo[i + 1]);
  }
  for (int t = 0; t <= S; ++t) {
    EXPECT_EQ(s.shard_edge_prefix()[t], bo[static_cast<int64_t>(t) * B]);
  }

  // edge_perm is a bijection on [0, E); every permuted entry matches the
  // original edge's source, weight, and (masked) destination row; bucket
  // membership respects the band's source extent and the shard's row range.
  std::vector<int> seen(static_cast<size_t>(E), 0);
  std::vector<int> flags_per_row(static_cast<size_t>(chunk.num_dst()), 0);
  for (int t = 0; t < S; ++t) {
    for (int b = 0; b < B; ++b) {
      for (int64_t k = bo[t * B + b]; k < bo[t * B + b + 1]; ++k) {
        const int32_t e = s.edge_perm()[k];
        ASSERT_GE(e, 0);
        ASSERT_LT(e, E);
        ++seen[static_cast<size_t>(e)];
        const int32_t rnd = s.rnd_perm()[k];
        EXPECT_EQ(rnd, chunk.nbr_idx[static_cast<size_t>(e)]);
        EXPECT_GE(rnd, static_cast<int64_t>(b) * s.band_rows());
        EXPECT_LT(rnd, static_cast<int64_t>(b + 1) * s.band_rows());
        EXPECT_EQ(s.w_perm()[k], chunk.in_weights[static_cast<size_t>(e)]);
        const int32_t d =
            s.out_perm()[k] & kernels::EdgeSchedule::kRowMask;
        EXPECT_GE(d, s.shard_row_bounds()[t]);
        EXPECT_LT(d, s.shard_row_bounds()[t + 1]);
        EXPECT_GE(e, chunk.in_offsets[d]);
        EXPECT_LT(e, chunk.in_offsets[d + 1]);
        if (s.out_perm()[k] < 0) ++flags_per_row[static_cast<size_t>(d)];
      }
    }
  }
  for (int64_t e = 0; e < E; ++e) {
    EXPECT_EQ(seen[static_cast<size_t>(e)], 1) << "edge " << e;
  }
  // Exactly one first-run flag per row with edges (self-loops: every row).
  EXPECT_EQ(s.num_zero_rows(), 0);
  for (int64_t d = 0; d < chunk.num_dst(); ++d) {
    EXPECT_EQ(flags_per_row[static_cast<size_t>(d)], 1) << "row " << d;
  }
}

TEST_F(KernelsTest, EdgeScheduleHandlesZeroDegreeRowsAndHeuristics) {
  // Hand-built structure with empty rows (no self-loops): rows 1 and 3.
  const std::vector<int64_t> offsets = {0, 2, 2, 5, 5, 6};
  const std::vector<int32_t> idx = {4, 700, 3, 900, 1023, 512};
  const std::vector<float> w = {1, 2, 3, 4, 5, 6};
  kernels::EdgeScheduleParams p = ForcedBandedParams();
  const kernels::EdgeSchedule s =
      kernels::EdgeSchedule::Build(5, offsets.data(), idx.data(), w.data(),
                                   1024, p);
  ASSERT_EQ(s.num_zero_rows(), 2);
  EXPECT_EQ(s.zero_rows()[0], 1);
  EXPECT_EQ(s.zero_rows()[1], 3);
  EXPECT_EQ(s.num_bands(), 4);  // 1024 rows / 256-row floor

  // The heuristic: banded only for supported widths on L2-exceeding tables,
  // and only for accumulating calls below 32 columns.
  EXPECT_TRUE(s.ShouldUse(64, false));
  EXPECT_TRUE(s.ShouldUse(16, true));
  EXPECT_FALSE(s.ShouldUse(16, false));
  EXPECT_FALSE(s.ShouldUse(8, true));
  EXPECT_FALSE(s.ShouldUse(512, false));

  // Banded SpMM must zero the empty rows in non-accumulating mode.
  const int64_t dim = 64;
  const Tensor x = Tensor::Gaussian(1024, dim, 0.5f, 409);
  Tensor ref = Tensor::Gaussian(5, dim, 9.0f, 419);  // garbage to overwrite
  Tensor out = ref.Clone();
  kernels::Spmm(kernels::Backend::kReference, kernels::EdgeWeight::kExplicit,
                5, offsets.data(), idx.data(), w.data(), nullptr, x.data(),
                dim, /*accumulate=*/false, ref.data());
  kernels::Spmm(kernels::Backend::kBlocked, kernels::EdgeWeight::kExplicit,
                5, offsets.data(), idx.data(), w.data(), nullptr, x.data(),
                dim, /*accumulate=*/false, out.data(), &s);
  EXPECT_LE(Tensor::MaxAbsDiff(ref, out), kTol);
  for (int64_t c = 0; c < dim; ++c) {
    EXPECT_EQ(out.at(1, c), 0.0f);
    EXPECT_EQ(out.at(3, c), 0.0f);
  }
}

TEST_F(KernelsTest, EdgeScheduleReuseAllocatesNothing) {
  const Graph g = SkewedGraph(2048, 24576, 431);
  const Chunk chunk = FullChunk(g);
  const ChunkSchedules scheds =
      ChunkSchedules::Build(chunk, ForcedBandedParams());
  const LocalGraph banded = LocalGraph::FromChunk(chunk, &scheds);
  ASSERT_TRUE(scheds.gather.ShouldUse(64, false));
  ASSERT_TRUE(scheds.scatter.ShouldUse(64, true));
  const Tensor src = Tensor::Gaussian(banded.num_src, 64, 0.5f, 433);
  const Tensor d_dst = Tensor::Gaussian(banded.num_dst, 64, 0.5f, 439);
  Tensor dst(banded.num_dst, 64);
  Tensor d_src(banded.num_src, 64);
  kernels::SetBackend(kernels::Backend::kBlocked);
  // Epoch-reuse contract: the compiled schedule serves every subsequent
  // call without touching the heap or the pool.
  const PoolStats before = TensorPool::Global().stats();
  for (int epoch = 0; epoch < 3; ++epoch) {
    GatherWeighted(banded, src, &dst);
    ScatterWeightedAccum(banded, d_dst, &d_src);
  }
  const PoolStats after = TensorPool::Global().stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.hits, before.hits);
}

TEST_F(KernelsTest, PrecountedHistogramMatchesDirectBuild) {
  // ChunkSchedules::Build derives the scatter mirror's (shard, band)
  // histogram from one walk of the CSC edges and hands both directions'
  // counts to EdgeSchedule::Build, which then skips its counting pass. The
  // compiled schedules must be identical, array for array, to the direct
  // self-counted builds.
  for (const uint64_t seed : {443ull, 449ull}) {
    const Graph g = SkewedGraph(2048, 24576, seed);
    const Chunk chunk = FullChunk(g);
    const kernels::EdgeScheduleParams p = ForcedBandedParams();
    const ChunkSchedules fused = ChunkSchedules::Build(chunk, p);
    const kernels::EdgeSchedule gather = kernels::EdgeSchedule::Build(
        chunk.num_dst(), chunk.in_offsets.data(), chunk.nbr_idx.data(),
        chunk.in_weights.data(), chunk.num_neighbors(), p);
    const kernels::EdgeSchedule scatter = kernels::EdgeSchedule::Build(
        chunk.num_neighbors(), chunk.src_offsets.data(), chunk.dst_idx.data(),
        chunk.src_weights.data(), chunk.num_dst(), p);
    const auto check = [](const kernels::EdgeSchedule& a,
                          const kernels::EdgeSchedule& b, const char* which) {
      ASSERT_EQ(a.num_edges(), b.num_edges()) << which;
      ASSERT_EQ(a.num_bands(), b.num_bands()) << which;
      ASSERT_EQ(a.num_shards(), b.num_shards()) << which;
      ASSERT_EQ(a.num_zero_rows(), b.num_zero_rows()) << which;
      const int64_t nb =
          static_cast<int64_t>(a.num_shards()) * a.num_bands() + 1;
      for (int64_t i = 0; i < nb; ++i) {
        ASSERT_EQ(a.bucket_offsets()[i], b.bucket_offsets()[i]) << which;
      }
      for (int t = 0; t <= a.num_shards(); ++t) {
        ASSERT_EQ(a.shard_edge_prefix()[t], b.shard_edge_prefix()[t]) << which;
        ASSERT_EQ(a.shard_row_bounds()[t], b.shard_row_bounds()[t]) << which;
      }
      for (int64_t k = 0; k < a.num_edges(); ++k) {
        ASSERT_EQ(a.rnd_perm()[k], b.rnd_perm()[k]) << which << " k=" << k;
        ASSERT_EQ(a.out_perm()[k], b.out_perm()[k]) << which << " k=" << k;
        ASSERT_EQ(a.edge_perm()[k], b.edge_perm()[k]) << which << " k=" << k;
        ASSERT_EQ(a.w_perm()[k], b.w_perm()[k]) << which << " k=" << k;
      }
      for (int64_t z = 0; z < a.num_zero_rows(); ++z) {
        ASSERT_EQ(a.zero_rows()[z], b.zero_rows()[z]) << which;
      }
    };
    check(fused.gather, gather, "gather");
    check(fused.scatter, scatter, "scatter");
  }
}

TEST_F(KernelsTest, GatBandedBackwardMatchesSinglePass) {
  // GAT's source-major backward attention phase consumes scatter_sched when
  // the heuristic accepts the width; the banded sweep regroups each dp
  // row's additions by destination band, so it must match the single-pass
  // walk to float rounding.
  const Graph g = SkewedGraph(2048, 24576, 457);
  const Chunk chunk = FullChunk(g);
  const ChunkSchedules scheds =
      ChunkSchedules::Build(chunk, ForcedBandedParams());
  ASSERT_TRUE(scheds.scatter.ShouldUse(32, /*accumulate=*/true));
  const LocalGraph plain = LocalGraph::FromChunk(chunk);
  const LocalGraph banded = LocalGraph::FromChunk(chunk, &scheds);
  const Tensor src = Tensor::Gaussian(plain.num_src, 24, 0.5f, 461);

  const auto run = [&](const LocalGraph& lg) {
    GatLayer layer(24, 32, /*relu=*/true, /*seed=*/463);
    Tensor dst;
    std::unique_ptr<LayerCtx> ctx;
    EXPECT_TRUE(layer.ForwardStore(lg, src, &dst, &ctx).ok());
    layer.ZeroGrads();
    Tensor d_src(lg.num_src, 24);
    EXPECT_TRUE(layer.BackwardStored(lg, *ctx, src, dst, &d_src).ok());
    std::vector<Tensor> out;
    out.push_back(std::move(d_src));
    for (Tensor* t : layer.grads()) out.push_back(t->Clone());
    return out;
  };
  const std::vector<Tensor> ref = run(plain);
  const std::vector<Tensor> bnd = run(banded);
  ASSERT_EQ(ref.size(), bnd.size());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_LE(Tensor::MaxAbsDiff(ref[i], bnd[i]), kTol) << "tensor " << i;
  }
}

// ---- End-to-end layer equivalence ------------------------------------------

template <typename LayerT>
void CheckLayerBackendEquivalence(const Graph& g, int in_dim, int out_dim) {
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  const Tensor src = Tensor::Gaussian(lg.num_src, in_dim, 0.5f, 113);

  struct Run {
    Tensor dst;
    Tensor d_src;
    std::vector<Tensor> grads;
  };
  const auto run = [&](kernels::Backend backend) {
    kernels::SetBackend(backend);
    LayerT layer(in_dim, out_dim, /*relu=*/true, /*seed=*/127);
    Run r;
    std::unique_ptr<LayerCtx> ctx;
    EXPECT_TRUE(layer.ForwardStore(lg, src, &r.dst, &ctx).ok());
    layer.ZeroGrads();
    r.d_src = Tensor(lg.num_src, in_dim);
    EXPECT_TRUE(layer.BackwardStored(lg, *ctx, src, r.dst, &r.d_src).ok());
    // ForwardStore may hand out a view of ctx storage; detach before ctx
    // dies at the end of this lambda.
    r.dst = r.dst.Clone();
    for (Tensor* t : layer.grads()) r.grads.push_back(t->Clone());
    return r;
  };

  const Run ref = run(kernels::Backend::kReference);
  const Run blk = run(kernels::Backend::kBlocked);
  EXPECT_LE(Tensor::MaxAbsDiff(ref.dst, blk.dst), kTol);
  EXPECT_LE(Tensor::MaxAbsDiff(ref.d_src, blk.d_src), kTol);
  ASSERT_EQ(ref.grads.size(), blk.grads.size());
  for (size_t i = 0; i < ref.grads.size(); ++i) {
    EXPECT_LE(Tensor::MaxAbsDiff(ref.grads[i], blk.grads[i]), kTol)
        << "grad " << i;
  }
}

TEST_F(KernelsTest, LayersMatchAcrossBackends) {
  const Graph g = SkewedGraph(300, 2400, 131);
  CheckLayerBackendEquivalence<GcnLayer>(g, 24, 17);
  CheckLayerBackendEquivalence<SageLayer>(g, 24, 17);
  CheckLayerBackendEquivalence<GinLayer>(g, 24, 17);
  CheckLayerBackendEquivalence<GgnnLayer>(g, 24, 17);
  CheckLayerBackendEquivalence<GatLayer>(g, 24, 17);
}

}  // namespace
}  // namespace hongtu
