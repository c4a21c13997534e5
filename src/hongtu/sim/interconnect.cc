#include "hongtu/sim/interconnect.h"

#include <algorithm>

namespace hongtu {

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& o) {
  gpu += o.gpu;
  h2d += o.h2d;
  d2d += o.d2d;
  cpu += o.cpu;
  ru += o.ru;
  overlapped += o.overlapped;
  return *this;
}

TimeBreakdown TimeBreakdown::Max(const TimeBreakdown& a,
                                 const TimeBreakdown& b) {
  TimeBreakdown r;
  r.gpu = std::max(a.gpu, b.gpu);
  r.h2d = std::max(a.h2d, b.h2d);
  r.d2d = std::max(a.d2d, b.d2d);
  r.cpu = std::max(a.cpu, b.cpu);
  r.ru = std::max(a.ru, b.ru);
  r.overlapped = std::max(a.overlapped, b.overlapped);
  return r;
}

ByteCounters& ByteCounters::operator+=(const ByteCounters& o) {
  h2d += o.h2d;
  d2d += o.d2d;
  ru += o.ru;
  cpu_accum += o.cpu_accum;
  return *this;
}

SimPlatform::SimPlatform(int num_devices, int64_t device_capacity_bytes,
                         InterconnectParams params)
    : params_(params) {
  devices_.reserve(static_cast<size_t>(num_devices));
  for (int i = 0; i < num_devices; ++i) {
    devices_.emplace_back(i, device_capacity_bytes);
  }
  pending_.resize(static_cast<size_t>(num_devices));
}

void SimPlatform::AddH2D(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_[dev].h2d +=
      static_cast<double>(bytes) / params_.t_hd + params_.xfer_latency_s;
  total_bytes_.h2d += bytes;
}

void SimPlatform::AddH2DRemote(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_[dev].h2d +=
      static_cast<double>(bytes) / params_.t_hd_remote +
      params_.xfer_latency_s;
  total_bytes_.h2d += bytes;
}

void SimPlatform::AddD2D(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_[dev].d2d +=
      static_cast<double>(bytes) / params_.t_dd + params_.xfer_latency_s;
  total_bytes_.d2d += bytes;
}

void SimPlatform::AddReuse(int dev, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  pending_[dev].ru +=
      static_cast<double>(bytes) / params_.t_ru;
  total_bytes_.ru += bytes;
}

void SimPlatform::AddGpuCompute(int dev, double flops, double bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_[dev].gpu +=
      std::max(flops / params_.gpu_flops, bytes / params_.gpu_mem_bw) +
      params_.kernel_launch_s;
}

void SimPlatform::AddCpuAccum(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  host_pending_.cpu +=
      static_cast<double>(bytes) / params_.cpu_accum_bw;
  total_bytes_.cpu_accum += bytes;
}

void SimPlatform::AddCpuSeconds(double secs) {
  std::lock_guard<std::mutex> lock(mu_);
  host_pending_.cpu += secs;
}

void SimPlatform::Synchronize() {
  std::lock_guard<std::mutex> lock(mu_);
  TimeBreakdown phase;
  for (auto& p : pending_) {
    phase = TimeBreakdown::Max(phase, p);
    p = TimeBreakdown();
  }
  phase += host_pending_;
  host_pending_ = TimeBreakdown();
  total_time_ += phase;
}

void SimPlatform::RecordOverlap(double busy_seconds, double floor_seconds,
                                double modeled_wall_seconds) {
  // The modeled wall may extend the floor (stage dependencies and the
  // in-flight window keep the bottleneck from running gap-free) but never
  // hide the floor's own busy time, nor exceed fully serial execution.
  const double wall = std::min(
      busy_seconds, std::max(floor_seconds, modeled_wall_seconds));
  std::lock_guard<std::mutex> lock(mu_);
  total_time_.overlapped += busy_seconds - wall;
}

double ModelPipelineSeconds(
    const std::vector<std::array<double, 3>>& item_seconds, int window) {
  const size_t n = item_seconds.size();
  const size_t d = static_cast<size_t>(std::max(1, window));
  double load_fin = 0.0, comp_fin = 0.0, store_fin = 0.0;
  std::vector<double> retired(n, 0.0);
  for (size_t j = 0; j < n; ++j) {
    double start = load_fin;
    if (j >= d) start = std::max(start, retired[j - d]);
    load_fin = start + item_seconds[j][0];
    comp_fin = std::max(comp_fin, load_fin) + item_seconds[j][1];
    store_fin = std::max(store_fin, comp_fin) + item_seconds[j][2];
    retired[j] = store_fin;
  }
  return store_fin;
}

int64_t SimPlatform::MaxDevicePeak() const {
  int64_t m = 0;
  for (const auto& d : devices_) m = std::max(m, d.peak());
  return m;
}

int64_t SimPlatform::SumDevicePeaks() const {
  int64_t s = 0;
  for (const auto& d : devices_) s += d.peak();
  return s;
}

void SimPlatform::ResetEpoch() {
  Synchronize();
  TensorPool& pool = TensorPool::Global();
  pool.ResetPeak();
  std::lock_guard<std::mutex> lock(mu_);
  total_time_ = TimeBreakdown();
  total_bytes_ = ByteCounters();
  pool_epoch_base_ = pool.stats();
}

int64_t SimPlatform::HostAllocCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TensorPool::Global().stats().misses - pool_epoch_base_.misses;
}

int64_t SimPlatform::HostPoolHits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TensorPool::Global().stats().hits - pool_epoch_base_.hits;
}

int64_t SimPlatform::HostPeakBytes() const {
  return TensorPool::Global().stats().peak_live_bytes;
}

void SimPlatform::AddScheduleBytes(int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  schedule_bytes_ += bytes;
}

int64_t SimPlatform::ScheduleBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schedule_bytes_;
}

void SimPlatform::ResetPeaks() {
  for (auto& d : devices_) d.ResetPeak();
}

}  // namespace hongtu
