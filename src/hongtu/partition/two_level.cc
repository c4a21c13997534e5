#include "hongtu/partition/two_level.h"

#include <algorithm>

#include "hongtu/common/parallel.h"

namespace hongtu {

double TwoLevelPartition::ReplicationFactor(int64_t num_vertices) const {
  if (num_vertices == 0) return 0.0;
  int64_t total = 0;
  for (const auto& row : chunks) {
    for (const auto& c : row) total += c.num_neighbors();
  }
  return static_cast<double>(total) / static_cast<double>(num_vertices);
}

namespace {

/// ExtractChunk over a caller-owned position map: `*pos_map` has one entry
/// per graph vertex, all -1 on entry and on return. While the chunk is
/// built, it holds u's index in the neighbor set N_ij (-1 if u is not in
/// it), which replaces a binary search per edge.
Chunk ExtractChunkWithMap(const Graph& g, std::vector<VertexId> dst_vertices,
                          int partition_id, int chunk_id,
                          std::vector<int32_t>* pos_map) {
  std::vector<int32_t>& pos = *pos_map;
  Chunk c;
  c.partition_id = partition_id;
  c.chunk_id = chunk_id;
  std::sort(dst_vertices.begin(), dst_vertices.end());
  c.dst_vertices = std::move(dst_vertices);

  // Collect the unique neighbor set N_ij: each vertex is marked the first
  // time it is seen, then the (already unique) set is sorted and numbered.
  for (VertexId v : c.dst_vertices) {
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      const VertexId u = g.in_neighbors()[e];
      if (pos[u] == -1) {
        pos[u] = 0;
        c.neighbors.push_back(u);
      }
    }
  }
  std::sort(c.neighbors.begin(), c.neighbors.end());
  for (size_t k = 0; k < c.neighbors.size(); ++k) {
    pos[c.neighbors[k]] = static_cast<int32_t>(k);
  }

  // Local CSC with edges referencing neighbor-set positions.
  c.in_offsets.assign(c.dst_vertices.size() + 1, 0);
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    const VertexId v = c.dst_vertices[d];
    c.in_offsets[d + 1] =
        c.in_offsets[d] + (g.in_offsets()[v + 1] - g.in_offsets()[v]);
  }
  c.nbr_idx.resize(static_cast<size_t>(c.in_offsets.back()));
  c.in_weights.resize(static_cast<size_t>(c.in_offsets.back()));
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    const VertexId v = c.dst_vertices[d];
    int64_t o = c.in_offsets[d];
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e, ++o) {
      c.nbr_idx[o] = pos[g.in_neighbors()[e]];
      c.in_weights[o] = g.in_weights()[e];
    }
  }

  // self_idx: destination's own position in the neighbor space.
  c.self_idx.resize(c.dst_vertices.size());
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    c.self_idx[d] = pos[c.dst_vertices[d]];
  }
  for (VertexId u : c.neighbors) pos[u] = -1;

  // Local CSR mirror (source-major) for parallel scatter.
  c.src_offsets.assign(c.neighbors.size() + 1, 0);
  for (int64_t e = 0; e < c.num_edges(); ++e) c.src_offsets[c.nbr_idx[e] + 1]++;
  for (size_t s = 0; s < c.neighbors.size(); ++s) {
    c.src_offsets[s + 1] += c.src_offsets[s];
  }
  c.dst_idx.resize(static_cast<size_t>(c.num_edges()));
  c.src_weights.resize(static_cast<size_t>(c.num_edges()));
  c.src_edge_idx.resize(static_cast<size_t>(c.num_edges()));
  {
    std::vector<int64_t> cur(c.src_offsets.begin(), c.src_offsets.end() - 1);
    for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
      for (int64_t e = c.in_offsets[d]; e < c.in_offsets[d + 1]; ++e) {
        const int32_t s = c.nbr_idx[e];
        c.dst_idx[cur[s]] = static_cast<int32_t>(d);
        c.src_weights[cur[s]] = c.in_weights[e];
        c.src_edge_idx[cur[s]] = static_cast<int32_t>(e);
        ++cur[s];
      }
    }
  }
  return c;
}

}  // namespace

Chunk ExtractChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                   int partition_id, int chunk_id) {
  std::vector<int32_t> pos(static_cast<size_t>(g.num_vertices()), -1);
  return ExtractChunkWithMap(g, std::move(dst_vertices), partition_id,
                             chunk_id, &pos);
}

Result<TwoLevelPartition> BuildTwoLevelPartition(const Graph& g, int m, int n,
                                                 const TwoLevelOptions& opts) {
  if (m <= 0 || n <= 0) {
    return Status::Invalid("BuildTwoLevelPartition: m and n must be positive");
  }
  TwoLevelPartition tl;
  tl.num_partitions = m;
  tl.num_chunks = n;

  HT_ASSIGN_OR_RETURN(PartitionResult metis,
                      MetisLitePartition(g, m, opts.metis));
  tl.partition_of = std::move(metis.part_of);

  // Destination lists of every chunk, serially: partition i's vertices in
  // ascending order (range-based order, Fig. 2/5), split into n runs
  // balanced by in-edge count (computation balance).
  std::vector<std::vector<VertexId>> verts(static_cast<size_t>(m));
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    verts[tl.partition_of[v]].push_back(static_cast<VertexId>(v));
  }
  std::vector<std::vector<VertexId>> dsts(static_cast<size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    int64_t total_edges = 0;
    for (VertexId v : verts[i]) total_edges += g.in_degree(v);
    const double target = static_cast<double>(total_edges) / n;

    size_t pos = 0;
    for (int j = 0; j < n; ++j) {
      std::vector<VertexId>& dst = dsts[static_cast<size_t>(i) * n + j];
      int64_t acc = 0;
      const bool last_chunk = (j == n - 1);
      while (pos < verts[i].size()) {
        const size_t remaining_v = verts[i].size() - pos;
        const size_t later_chunks = static_cast<size_t>(n - 1 - j);
        // Leave at least one vertex for every later chunk when possible.
        if (!dst.empty() && remaining_v <= later_chunks) break;
        if (!dst.empty() && !last_chunk && acc >= target) break;
        dst.push_back(verts[i][pos++]);
        acc += g.in_degree(dst.back());
      }
    }
  }

  // Chunks are independent and each lands in its own slot, so the result
  // does not depend on the team size.
  tl.chunks.assign(static_cast<size_t>(m), std::vector<Chunk>(n));
  const int64_t num_chunks = static_cast<int64_t>(m) * n;
#pragma omp parallel num_threads(NumThreads())
  {
    std::vector<int32_t> pos_map(static_cast<size_t>(g.num_vertices()), -1);
#pragma omp for schedule(dynamic, 1)
    for (int64_t k = 0; k < num_chunks; ++k) {
      const int i = static_cast<int>(k / n);
      const int j = static_cast<int>(k % n);
      tl.chunks[i][j] = ExtractChunkWithMap(g, std::move(dsts[k]), i, j,
                                            &pos_map);
    }
  }
  return tl;
}

}  // namespace hongtu
