/// \file device.h
/// \brief Simulated GPU devices with capacity-bounded memory accounting.
///
/// This substitutes for the paper's 4x NVIDIA A100 (80 GB) platform. Every
/// buffer the training engines place "on a GPU" is registered against a
/// SimDevice allocator; exceeding the device capacity produces
/// StatusCode::kOutOfMemory, which surfaces in the evaluation tables exactly
/// like the paper's OOM cells. Kernel arithmetic itself executes as real
/// float32 computation on the host CPU (see engine/), so numerics are
/// faithful while memory and communication behaviour follow this model.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "hongtu/common/status.h"

namespace hongtu {

/// A single simulated device's memory book-keeping. Lock-free thread-safe.
class SimDevice {
 public:
  SimDevice(int id, int64_t capacity_bytes)
      : id_(id), capacity_(capacity_bytes) {}
  SimDevice(const SimDevice& o)
      : id_(o.id_),
        capacity_(o.capacity_),
        used_(o.used_.load()),
        peak_(o.peak_.load()) {}

  int id() const { return id_; }
  int64_t capacity() const { return capacity_; }
  int64_t used() const { return used_.load(); }
  int64_t peak() const { return peak_.load(); }

  /// Reserves `bytes`; fails with OutOfMemory when capacity is exceeded.
  Status Allocate(int64_t bytes, const std::string& tag);

  /// Releases `bytes` previously allocated.
  void Free(int64_t bytes);

  /// Frees everything (end of epoch / engine teardown).
  void Reset() { used_ = 0; }
  /// Clears the peak watermark as well.
  void ResetPeak() { peak_ = used_.load(); }

 private:
  int id_;
  int64_t capacity_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

/// RAII guard for a device allocation.
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  DeviceAllocation(SimDevice* dev, int64_t bytes) : dev_(dev), bytes_(bytes) {}
  DeviceAllocation(DeviceAllocation&& o) noexcept { *this = std::move(o); }
  DeviceAllocation& operator=(DeviceAllocation&& o) noexcept {
    Release();
    dev_ = o.dev_;
    bytes_ = o.bytes_;
    o.dev_ = nullptr;
    o.bytes_ = 0;
    return *this;
  }
  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;
  ~DeviceAllocation() { Release(); }

  void Release() {
    if (dev_ != nullptr) dev_->Free(bytes_);
    dev_ = nullptr;
    bytes_ = 0;
  }

  int64_t bytes() const { return bytes_; }

 private:
  SimDevice* dev_ = nullptr;
  int64_t bytes_ = 0;
};

}  // namespace hongtu
