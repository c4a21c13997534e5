#include "hongtu/partition/metis_lite.h"

#include <algorithm>
#include <numeric>

#include "hongtu/common/random.h"

namespace hongtu {

namespace {

/// Undirected weighted graph used on every level of the multilevel scheme.
struct WorkGraph {
  int64_t n = 0;
  std::vector<int64_t> offsets;
  std::vector<int32_t> nbrs;
  std::vector<int64_t> ewgt;
  std::vector<int64_t> vwgt;
  int64_t total_vwgt = 0;
};

/// Builds the undirected working graph from the directed input, merging
/// parallel edges (weight = multiplicity) and dropping self-loops.
WorkGraph BuildWorkGraph(const Graph& g) {
  WorkGraph w;
  w.n = g.num_vertices();
  w.vwgt.assign(static_cast<size_t>(w.n), 1);
  w.total_vwgt = w.n;

  // Degree count over both directions (excluding self-loops), then merge
  // duplicates per-vertex with sort+unique.
  std::vector<int64_t> deg(static_cast<size_t>(w.n), 0);
  for (int64_t v = 0; v < w.n; ++v) {
    for (EdgeId e = g.out_offsets()[v]; e < g.out_offsets()[v + 1]; ++e) {
      if (g.out_neighbors()[e] != v) ++deg[v];
    }
    for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      if (g.in_neighbors()[e] != v) ++deg[v];
    }
  }
  w.offsets.assign(static_cast<size_t>(w.n) + 1, 0);
  for (int64_t v = 0; v < w.n; ++v) w.offsets[v + 1] = w.offsets[v] + deg[v];
  std::vector<int32_t> tmp(static_cast<size_t>(w.offsets[w.n]));
  {
    std::vector<int64_t> cur(w.offsets.begin(), w.offsets.end() - 1);
    for (int64_t v = 0; v < w.n; ++v) {
      for (EdgeId e = g.out_offsets()[v]; e < g.out_offsets()[v + 1]; ++e) {
        const VertexId u = g.out_neighbors()[e];
        if (u != v) tmp[cur[v]++] = u;
      }
      for (EdgeId e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
        const VertexId u = g.in_neighbors()[e];
        if (u != v) tmp[cur[v]++] = u;
      }
    }
  }
  // Merge duplicates.
  std::vector<int64_t> new_offsets(static_cast<size_t>(w.n) + 1, 0);
  for (int64_t v = 0; v < w.n; ++v) {
    auto b = tmp.begin() + w.offsets[v];
    auto e = tmp.begin() + w.offsets[v + 1];
    std::sort(b, e);
    int64_t uniq = 0;
    for (auto it = b; it != e;) {
      auto jt = it;
      while (jt != e && *jt == *it) ++jt;
      ++uniq;
      it = jt;
    }
    new_offsets[v + 1] = uniq;
  }
  for (int64_t v = 0; v < w.n; ++v) new_offsets[v + 1] += new_offsets[v];
  w.nbrs.resize(static_cast<size_t>(new_offsets[w.n]));
  w.ewgt.resize(static_cast<size_t>(new_offsets[w.n]));
  for (int64_t v = 0; v < w.n; ++v) {
    auto b = tmp.begin() + w.offsets[v];
    auto e = tmp.begin() + w.offsets[v + 1];
    int64_t out = new_offsets[v];
    for (auto it = b; it != e;) {
      auto jt = it;
      int64_t mult = 0;
      while (jt != e && *jt == *it) {
        ++mult;
        ++jt;
      }
      w.nbrs[out] = *it;
      w.ewgt[out] = mult;
      ++out;
      it = jt;
    }
  }
  w.offsets = std::move(new_offsets);
  return w;
}

/// Heavy-edge matching; returns coarse vertex count and fine->coarse map.
int64_t HeavyEdgeMatching(const WorkGraph& g, Rng* rng,
                          std::vector<int32_t>* coarse_of) {
  const int64_t n = g.n;
  std::vector<int32_t> match(static_cast<size_t>(n), -1);
  std::vector<int32_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  // Random visit order avoids pathological matchings.
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(order[i], order[rng->NextInt(static_cast<uint64_t>(i) + 1)]);
  }
  for (int32_t v : order) {
    if (match[v] != -1) continue;
    int32_t best = -1;
    int64_t best_w = -1;
    for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const int32_t u = g.nbrs[e];
      if (u == v || match[u] != -1) continue;
      if (g.ewgt[e] > best_w) {
        best_w = g.ewgt[e];
        best = u;
      }
    }
    if (best != -1) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;
    }
  }
  coarse_of->assign(static_cast<size_t>(n), -1);
  int64_t nc = 0;
  for (int64_t v = 0; v < n; ++v) {
    if ((*coarse_of)[v] != -1) continue;
    const int32_t m = match[v];
    (*coarse_of)[v] = static_cast<int32_t>(nc);
    if (m != static_cast<int32_t>(v)) (*coarse_of)[m] = static_cast<int32_t>(nc);
    ++nc;
  }
  return nc;
}

/// Contracts g under the fine->coarse map in O(n + m).
///
/// Pass 1 merges each coarse vertex's edges into one flat CSR, using a
/// dense position marker instead of a hash map: marker[cu] is where cu sits
/// in the row being built, and a value below the row's start means "not yet
/// seen". The rows come out merged but unsorted. Pass 2 is a counting
/// transpose: scanning rows in ascending order appends each row id to its
/// neighbours' lists, so every transposed list is ascending. The working
/// graph is symmetric (every edge sits in both endpoints' lists with the
/// same weight, and contraction sums both sides alike), so the transpose is
/// the same graph with sorted lists and its row sizes are pass 1's.
WorkGraph Contract(const WorkGraph& g, const std::vector<int32_t>& coarse_of,
                   int64_t nc) {
  WorkGraph c;
  c.n = nc;
  c.vwgt.assign(static_cast<size_t>(nc), 0);
  for (int64_t v = 0; v < g.n; ++v) c.vwgt[coarse_of[v]] += g.vwgt[v];
  c.total_vwgt = g.total_vwgt;

  // Group fine vertices by coarse id.
  std::vector<int32_t> head(static_cast<size_t>(nc), -1);
  std::vector<int32_t> next(static_cast<size_t>(g.n), -1);
  for (int64_t v = g.n - 1; v >= 0; --v) {
    const int32_t cv = coarse_of[v];
    next[v] = head[cv];
    head[cv] = static_cast<int32_t>(v);
  }

  c.offsets.assign(static_cast<size_t>(nc) + 1, 0);
  std::vector<int32_t> merged_nbrs(g.nbrs.size());
  std::vector<int64_t> merged_wgt(g.nbrs.size());
  {
    std::vector<int64_t> marker(static_cast<size_t>(nc), -1);
    int64_t len = 0;
    for (int64_t cv = 0; cv < nc; ++cv) {
      const int64_t row = len;
      for (int32_t v = head[cv]; v != -1; v = next[v]) {
        for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
          const int32_t cu = coarse_of[g.nbrs[e]];
          if (cu == cv) continue;
          if (marker[cu] < row) {
            marker[cu] = len;
            merged_nbrs[len] = cu;
            merged_wgt[len] = g.ewgt[e];
            ++len;
          } else {
            merged_wgt[marker[cu]] += g.ewgt[e];
          }
        }
      }
      c.offsets[cv + 1] = len;
    }
  }

  c.nbrs.resize(static_cast<size_t>(c.offsets[nc]));
  c.ewgt.resize(static_cast<size_t>(c.offsets[nc]));
  std::vector<int64_t> cur(c.offsets.begin(), c.offsets.end() - 1);
  for (int64_t cv = 0; cv < nc; ++cv) {
    for (int64_t e = c.offsets[cv]; e < c.offsets[cv + 1]; ++e) {
      const int32_t cu = merged_nbrs[e];
      c.nbrs[cur[cu]] = static_cast<int32_t>(cv);
      c.ewgt[cur[cu]] = merged_wgt[e];
      ++cur[cu];
    }
  }
  return c;
}

/// Greedy graph growing (GGGP-style) on the coarsest graph: each part grows
/// by repeatedly absorbing the unassigned vertex with the highest
/// connectivity into the part. O(k * n^2) but the coarsest graph is small.
std::vector<int32_t> InitialPartition(const WorkGraph& g, int k, Rng* rng) {
  std::vector<int32_t> part(static_cast<size_t>(g.n), -1);
  const int64_t target = (g.total_vwgt + k - 1) / k;
  std::vector<int64_t> weight(static_cast<size_t>(k), 0);
  // gain[v] = edge weight from v into the part currently growing.
  std::vector<int64_t> gain(static_cast<size_t>(g.n), 0);
  int64_t assigned = 0;

  for (int p = 0; p < k && assigned < g.n; ++p) {
    std::fill(gain.begin(), gain.end(), 0);
    // Seed: random unassigned vertex.
    int32_t seed = -1;
    for (int tries = 0; tries < 64 && seed == -1; ++tries) {
      const int32_t cand = static_cast<int32_t>(rng->NextInt(g.n));
      if (part[cand] == -1) seed = cand;
    }
    for (int64_t v = 0; v < g.n && seed == -1; ++v) {
      if (part[v] == -1) seed = static_cast<int32_t>(v);
    }
    if (seed == -1) break;

    int32_t next = seed;
    while (next != -1 && weight[p] < target) {
      const int32_t v = next;
      part[v] = p;
      weight[p] += g.vwgt[v];
      ++assigned;
      for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        const int32_t u = g.nbrs[e];
        if (part[u] == -1) gain[u] += g.ewgt[e];
      }
      // Pick the unassigned vertex with the highest gain; fall back to any
      // unassigned vertex when the frontier is exhausted (disconnected).
      next = -1;
      int64_t best_gain = 0;
      for (int64_t u = 0; u < g.n; ++u) {
        if (part[u] == -1 && gain[u] > best_gain) {
          best_gain = gain[u];
          next = static_cast<int32_t>(u);
        }
      }
      if (next == -1 && p == k - 1) {
        for (int64_t u = 0; u < g.n && next == -1; ++u) {
          if (part[u] == -1) next = static_cast<int32_t>(u);
        }
      }
    }
  }
  // Any stragglers go to the lightest part.
  for (int64_t v = 0; v < g.n; ++v) {
    if (part[v] == -1) {
      const int p = static_cast<int>(
          std::min_element(weight.begin(), weight.end()) - weight.begin());
      part[v] = p;
      weight[p] += g.vwgt[v];
    }
  }
  return part;
}

/// One boundary-refinement sweep (greedy FM without rollback). Returns the
/// number of vertices moved.
int64_t RefinePass(const WorkGraph& g, int k, int64_t max_part_weight,
                   std::vector<int32_t>* part,
                   std::vector<int64_t>* part_weight) {
  int64_t moved = 0;
  std::vector<int64_t> gain_to(static_cast<size_t>(k), 0);
  std::vector<int32_t> touched;
  for (int64_t v = 0; v < g.n; ++v) {
    const int32_t pv = (*part)[v];
    touched.clear();
    bool boundary = false;
    for (int64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const int32_t pu = (*part)[g.nbrs[e]];
      if (gain_to[pu] == 0) touched.push_back(pu);
      gain_to[pu] += g.ewgt[e];
      if (pu != pv) boundary = true;
    }
    if (boundary) {
      const int64_t internal = gain_to[pv];
      int32_t best = pv;
      int64_t best_gain = 0;
      for (int32_t p : touched) {
        if (p == pv) continue;
        const int64_t gain = gain_to[p] - internal;
        if (gain > best_gain &&
            (*part_weight)[p] + g.vwgt[v] <= max_part_weight) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != pv) {
        (*part_weight)[pv] -= g.vwgt[v];
        (*part_weight)[best] += g.vwgt[v];
        (*part)[v] = best;
        ++moved;
      }
    }
    for (int32_t p : touched) gain_to[p] = 0;
  }
  return moved;
}

}  // namespace

int64_t ComputeEdgeCut(const Graph& g, const std::vector<int32_t>& part_of) {
  int64_t cut = 0;
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.out_offsets()[v]; e < g.out_offsets()[v + 1]; ++e) {
      const VertexId u = g.out_neighbors()[e];
      if (u != v && part_of[u] != part_of[v]) ++cut;
    }
  }
  return cut;
}

Result<PartitionResult> MetisLitePartition(const Graph& g, int num_parts,
                                           const MetisLiteOptions& opts) {
  if (num_parts <= 0) {
    return Status::Invalid("MetisLitePartition: num_parts must be positive");
  }
  if (g.num_vertices() == 0) {
    return Status::Invalid("MetisLitePartition: empty graph");
  }
  PartitionResult result;
  result.num_parts = num_parts;
  if (num_parts == 1) {
    result.part_of.assign(static_cast<size_t>(g.num_vertices()), 0);
    result.edge_cut = 0;
    return result;
  }

  Rng rng(opts.seed);
  std::vector<WorkGraph> levels;
  std::vector<std::vector<int32_t>> maps;  // fine->coarse per level
  levels.push_back(BuildWorkGraph(g));

  const int64_t stop_n =
      std::max<int64_t>(opts.coarsen_until,
                        static_cast<int64_t>(num_parts) * 8);
  while (levels.back().n > stop_n) {
    std::vector<int32_t> coarse_of;
    const int64_t nc = HeavyEdgeMatching(levels.back(), &rng, &coarse_of);
    if (nc >= levels.back().n * 9 / 10) break;  // diminishing returns
    WorkGraph c = Contract(levels.back(), coarse_of, nc);
    maps.push_back(std::move(coarse_of));
    levels.push_back(std::move(c));
  }

  // Initial partition on the coarsest level: multi-start greedy growing,
  // keep the lowest-cut candidate (the coarsest graph is small, so extra
  // starts are nearly free).
  const auto coarse_cut = [&](const WorkGraph& wg,
                              const std::vector<int32_t>& p) {
    int64_t cut = 0;
    for (int64_t v = 0; v < wg.n; ++v) {
      for (int64_t e = wg.offsets[v]; e < wg.offsets[v + 1]; ++e) {
        if (p[wg.nbrs[e]] != p[v]) cut += wg.ewgt[e];
      }
    }
    return cut / 2;
  };
  std::vector<int32_t> part;
  int64_t best_cut = -1;
  for (int start = 0; start < 4; ++start) {
    std::vector<int32_t> cand =
        InitialPartition(levels.back(), num_parts, &rng);
    const int64_t cut = coarse_cut(levels.back(), cand);
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      part = std::move(cand);
    }
  }

  // Uncoarsen with refinement at every level.
  for (int level = static_cast<int>(levels.size()) - 1; level >= 0; --level) {
    WorkGraph& wg = levels[level];
    std::vector<int64_t> weight(static_cast<size_t>(num_parts), 0);
    for (int64_t v = 0; v < wg.n; ++v) weight[part[v]] += wg.vwgt[v];
    const int64_t max_w = static_cast<int64_t>(
        (1.0 + opts.imbalance) * static_cast<double>(wg.total_vwgt) /
        num_parts) + 1;
    for (int pass = 0; pass < opts.refine_passes; ++pass) {
      if (RefinePass(wg, num_parts, max_w, &part, &weight) == 0) break;
    }
    if (level > 0) {
      // Project to the finer level.
      const std::vector<int32_t>& coarse_of = maps[level - 1];
      std::vector<int32_t> fine_part(coarse_of.size());
      for (size_t v = 0; v < coarse_of.size(); ++v) {
        fine_part[v] = part[coarse_of[v]];
      }
      part = std::move(fine_part);
    }
  }

  result.part_of = std::move(part);
  result.edge_cut = ComputeEdgeCut(g, result.part_of);
  return result;
}

}  // namespace hongtu
