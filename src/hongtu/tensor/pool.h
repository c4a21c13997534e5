/// \file pool.h
/// \brief Arena-backed host buffer pool for Tensor storage.
///
/// Every chunk/layer iteration of the training engines used to heap-allocate
/// and zero-fill fresh Tensor storage, putting allocator traffic and page
/// zeroing on the critical path the chunk pipeline tries to hide. The pool
/// replaces that with size-bucketed free lists of 64-byte-aligned slabs:
/// releasing a buffer parks it in its bucket, and the next same-class acquire
/// reuses it without touching the system allocator. After the first epoch has
/// populated the buckets, steady-state epochs perform zero heap allocations
/// for tensor storage — a property the hit/miss counters make testable.
///
/// Size classes are 16-float (64 B) granules up to 2 KiB and 1/8-of-pow2
/// granules above, bounding per-buffer waste to 12.5% while mapping the
/// slightly varying chunk shapes of one layer onto a handful of buckets.
///
/// Thread safety: all methods are safe to call concurrently.
///
/// Escape hatch: HONGTU_DISABLE_POOL=1 restores the pre-pool allocation
/// behavior for A/B comparison — every acquire hits the heap, every release
/// frees immediately, Tensor::Uninitialized zero-fills like the old
/// constructor did, and EnsureShape reuses a buffer only on an exact shape
/// match. Counters still meter live/peak bytes and allocation counts, so
/// BENCH_memory.json can quantify exactly what the pool removes.

#pragma once

#include <cstdint>

namespace hongtu {

/// Counter snapshot of the pool (all monotone except live/cached/peak).
struct PoolStats {
  int64_t hits = 0;        ///< acquires served from a free list
  int64_t misses = 0;      ///< acquires that went to the system heap
  int64_t live_bytes = 0;  ///< bytes currently lent out to tensors
  int64_t cached_bytes = 0;     ///< bytes parked in free lists
  int64_t peak_live_bytes = 0;  ///< high watermark of live_bytes (ResetPeak)
  int64_t heap_bytes = 0;  ///< cumulative bytes ever obtained from the heap

  int64_t alloc_count() const { return misses; }
};

class TensorPool {
 public:
  /// The process-wide pool Tensor storage is drawn from. Never destroyed
  /// (tensors with static storage duration may release after static dtors
  /// run), but always reachable, so leak checkers stay quiet.
  static TensorPool& Global();

  /// A 64-byte-aligned buffer holding at least `floats` floats. The bucket
  /// capacity actually granted is written to `*capacity_floats`; pass it
  /// back verbatim to Release. Returns nullptr (capacity 0) for floats <= 0.
  /// Contents are NOT initialized (reused slabs hold stale data).
  float* Acquire(int64_t floats, int64_t* capacity_floats);

  /// Returns a buffer obtained from Acquire. `capacity_floats` must be the
  /// value Acquire reported for it.
  void Release(float* data, int64_t capacity_floats);

  /// Frees every cached slab (buckets empty; live buffers unaffected).
  void Trim();

  PoolStats stats() const;
  /// Resets the live-bytes watermark to the current live bytes. The
  /// SimPlatform calls this at epoch start so peak_live_bytes meters the
  /// epoch's own footprint.
  void ResetPeak();

  /// False when HONGTU_DISABLE_POOL=1 (or SetEnabled(false)): acquires go
  /// straight to the heap, releases free immediately, and Tensor falls back
  /// to the pre-pool allocate-and-zero semantics. Lock-free read.
  bool enabled() const;
  /// A/B toggle for tests and the memory bench. Buffers acquired in either
  /// mode may be released in the other (same underlying aligned allocation).
  void SetEnabled(bool on);

  /// The size class (in floats, always a multiple of 16) Acquire rounds a
  /// request up to. Exposed for tests.
  static int64_t BucketFloats(int64_t floats);

  TensorPool(const TensorPool&) = delete;
  TensorPool& operator=(const TensorPool&) = delete;

 private:
  TensorPool();
  ~TensorPool();

  struct Impl;
  Impl* impl_;
};

/// RAII scratch buffer for kernel internals (GEMM packing panels etc.):
/// pool-backed, 64-byte-aligned, uninitialized. Move-only.
class PoolBuffer {
 public:
  PoolBuffer() = default;
  explicit PoolBuffer(int64_t floats) {
    data_ = TensorPool::Global().Acquire(floats, &cap_);
  }
  ~PoolBuffer() { Reset(); }
  PoolBuffer(PoolBuffer&& o) noexcept : data_(o.data_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.cap_ = 0;
  }
  PoolBuffer& operator=(PoolBuffer&& o) noexcept {
    if (this != &o) {
      Reset();
      data_ = o.data_;
      cap_ = o.cap_;
      o.data_ = nullptr;
      o.cap_ = 0;
    }
    return *this;
  }
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;

  float* data() const { return data_; }

 private:
  void Reset() {
    if (data_ != nullptr) TensorPool::Global().Release(data_, cap_);
    data_ = nullptr;
    cap_ = 0;
  }

  float* data_ = nullptr;
  int64_t cap_ = 0;
};

}  // namespace hongtu
