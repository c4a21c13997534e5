/// \file parallel.h
/// \brief Shared-memory parallel helpers backed by OpenMP.
///
/// Simulated-GPU kernels in HongTu execute as real float32 computation on the
/// host CPU. Inner loops (SpMM rows, GEMM rows) are parallelized with these
/// helpers; outer device loops stay sequential so results are deterministic.
///
/// The chunked/balanced helpers are templates over the callable, so the hot
/// kernels (SpMM aggregation, GEMM tiles) invoke the body directly — no
/// std::function construction or indirect dispatch per call.

#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>

namespace hongtu {

/// Below this many items, parallel regions run serially.
inline constexpr int64_t kParallelSerialThreshold = 256;

/// Number of worker threads used by ParallelFor (OpenMP max threads).
int NumThreads();

/// Limits the number of threads used by subsequent parallel regions.
void SetNumThreads(int n);

/// Runs `fn(i)` for i in [begin, end) across threads. Iterations must be
/// independent. Falls back to a serial loop for tiny ranges.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn);

/// ParallelForChunked with a caller-chosen serial cutoff: stays serial when
/// `end - begin < serial_below`. Use when one item represents many units of
/// work (e.g. a GEMM micro-tile row covering 8 matrix rows), where the
/// default item-count threshold would serialize real work.
template <typename Fn,
          typename = std::enable_if_t<std::is_invocable_v<Fn&, int64_t, int64_t>>>
void ParallelForChunked(int64_t begin, int64_t end, int64_t serial_below,
                        Fn&& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (n < serial_below) {
    fn(begin, end);
    return;
  }
  // Slices are sized from the team that actually runs, not the requested
  // one: inside an enclosing parallel region (nested parallelism off) the
  // team has a single thread, which must then cover the whole range.
#pragma omp parallel num_threads(NumThreads())
  {
    const int team = omp_get_num_threads();
    const int t = omp_get_thread_num();
    const int64_t chunk = (n + team - 1) / team;
    const int64_t lo = begin + t * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) fn(lo, hi);
  }
}

/// Runs `fn(chunk_begin, chunk_end)` over contiguous blocks of [begin, end).
/// Fewer closure invocations than ParallelFor; preferred for hot loops.
template <typename Fn,
          typename = std::enable_if_t<std::is_invocable_v<Fn&, int64_t, int64_t>>>
void ParallelForChunked(int64_t begin, int64_t end, Fn&& fn) {
  ParallelForChunked(begin, end, kParallelSerialThreshold,
                     std::forward<Fn>(fn));
}

/// Runs `fn(chunk_begin, chunk_end)` over contiguous blocks of [0, n) chosen
/// so every thread receives roughly the same total *weight*, where item i
/// weighs `prefix[i+1] - prefix[i]`. `prefix` is a non-decreasing prefix-sum
/// array of length n+1 — for graph aggregation pass the chunk's `in_offsets`
/// (or `src_offsets`) directly, and each thread gets an equal share of
/// *edges* instead of vertices. This is what keeps power-law degree skew from
/// serializing the whole aggregation behind one hot chunk.
///
/// This overload takes an explicit weight cutoff: the loop stays serial only
/// while `prefix[n] - prefix[0] < serial_below_weight`. Use it when a few
/// items carry the whole workload (e.g. the banded kernels' shards: a
/// handful of items, millions of edges) and the default item-count threshold
/// would serialize real work.
///
/// `max_threads` (0 = no cap) additionally bounds the worker count below
/// NumThreads(). Cache-blocked kernels pass the available processor count
/// (omp_get_num_procs(); note that counts SMT siblings, which still share
/// an L2): threads time-slicing one processor evict each other's working
/// slice, so workers beyond the hardware only thrash.
template <typename Fn,
          typename = std::enable_if_t<std::is_invocable_v<Fn&, int64_t, int64_t>>>
void ParallelForBalanced(int64_t n, const int64_t* prefix,
                         int64_t serial_below_weight, Fn&& fn,
                         int max_threads = 0) {
  if (n <= 0) return;
  const int64_t total = prefix[n] - prefix[0];
  int nthreads = NumThreads();
  if (max_threads > 0) nthreads = std::min(nthreads, max_threads);
  if (nthreads <= 1 || total < serial_below_weight) {
    fn(int64_t{0}, n);
    return;
  }
  // Item i spans the weight interval [prefix[i], prefix[i+1]); thread t owns
  // the items whose interval *starts* inside its weight slice. Boundaries are
  // found by binary search on item start weights, so the slices tile [0, n)
  // exactly (ties included) and a degree-skewed tail of zero-weight vertices
  // costs whichever thread owns that weight point nothing extra.
  // As in ParallelForChunked, the weight slices follow the actual team size.
#pragma omp parallel num_threads(nthreads)
  {
    const int team = omp_get_num_threads();
    const int t = omp_get_thread_num();
    const int64_t w0 = prefix[0] + total * t / team;
    const int64_t w1 = prefix[0] + total * (t + 1) / team;
    const int64_t lo = std::lower_bound(prefix, prefix + n, w0) - prefix;
    const int64_t hi = (t + 1 == team)
                           ? n
                           : std::lower_bound(prefix, prefix + n, w1) - prefix;
    if (lo < hi) fn(lo, hi);
  }
}

/// ParallelForBalanced with the default thresholds: serial below
/// kParallelSerialThreshold items or total weight.
template <typename Fn,
          typename = std::enable_if_t<std::is_invocable_v<Fn&, int64_t, int64_t>>>
void ParallelForBalanced(int64_t n, const int64_t* prefix, Fn&& fn) {
  if (n <= 0) return;
  if (n < kParallelSerialThreshold) {
    fn(int64_t{0}, n);
    return;
  }
  ParallelForBalanced(n, prefix, kParallelSerialThreshold,
                      std::forward<Fn>(fn));
}

}  // namespace hongtu
