/// \file interconnect.h
/// \brief Interconnect throughput model and per-component time accounting.
///
/// Implements the cost model of §5.3 (Eq. 4): transferred vertex data is
/// split across three link classes — host<->GPU (T_hd, PCIe 4.0), GPU<->GPU
/// (T_dd, NVLink 3.0) and in-place intra-GPU reuse (T_ru, HBM) — plus a GPU
/// compute roofline and host-side gradient accumulation, matching the
/// {GPU, H2D, D2D, CPU} breakdown of Figure 9.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hongtu/sim/device.h"
#include "hongtu/tensor/pool.h"

namespace hongtu {

/// Environment-specific throughputs (defaults: the paper's 4xA100 server).
struct InterconnectParams {
  double t_hd = 32e9;    ///< host<->device B/s (PCIe 4.0 x16, local socket)
  /// Host access that crosses the CPU socket interconnect (QPI, Fig. 1):
  /// baseline per-chunk loading touches vertex data homed on the remote
  /// socket; deduplicated communication always loads via the owner GPU's
  /// local socket (§7.3).
  double t_hd_remote = 12e9;
  double t_dd = 200e9;   ///< device<->device B/s (4x NVLink 3.0)
  double t_ru = 1400e9;  ///< in-place reuse B/s (effective HBM2e)
  double gpu_flops = 19.5e12 * 0.35;  ///< A100 FP32 peak x efficiency
  double gpu_mem_bw = 1555e9 * 0.55;  ///< HBM stream bandwidth x efficiency
  double cpu_accum_bw = 50e9;         ///< host-side gradient accumulation B/s
  /// Fixed per-kernel launch overhead. The default is deliberately small:
  /// reproduction-scale data volumes are ~500x below paper scale, so real
  /// microsecond-class launch costs would be relatively inflated by the
  /// same factor and distort per-table shapes.
  double kernel_launch_s = 1e-6;
  /// Fixed latency per issued transfer (PCIe/NVLink round-trip setup).
  double xfer_latency_s = 1e-6;
};

/// Wall-clock attribution matching Figure 9's stacked bars.
///
/// The component fields are *busy* seconds: how long each resource class was
/// occupied. Under the serial executor the resources run one after another,
/// so wall time is simply their sum. Under the pipelined and task-graph
/// executors the modeled schedule runs the communication stages concurrently
/// with compute, and summing the components would double-count the hidden
/// seconds — `overlapped` records exactly that hidden amount, so `total()`
/// stays the critical-path wall time in every mode while the stacked
/// components remain comparable.
struct TimeBreakdown {
  double gpu = 0;  ///< simulated-GPU kernel time
  double h2d = 0;  ///< host<->device transfers (both directions, PCIe)
  double d2d = 0;  ///< inter-GPU transfers (NVLink)
  double cpu = 0;  ///< host-side gradient accumulation / loss
  double ru = 0;   ///< in-place reuse (usually negligible)
  /// Busy seconds hidden behind other stages by the modeled overlap (0 when
  /// the serial executor ran).
  double overlapped = 0;

  /// Sum of busy seconds, ignoring overlap (the Fig. 9 stacked bars).
  double busy() const { return gpu + h2d + d2d + cpu + ru; }
  /// Critical-path wall time: busy seconds minus what overlap hid.
  double total() const { return busy() - overlapped; }
  TimeBreakdown& operator+=(const TimeBreakdown& o);
  /// Component-wise max; used to merge concurrent per-device timelines.
  static TimeBreakdown Max(const TimeBreakdown& a, const TimeBreakdown& b);
};

/// Byte counters per link class (for the communication-volume tables).
struct ByteCounters {
  int64_t h2d = 0;  ///< host->device + device->host bytes
  int64_t d2d = 0;
  int64_t ru = 0;   ///< bytes whose transfer was avoided by in-place reuse
  int64_t cpu_accum = 0;

  ByteCounters& operator+=(const ByteCounters& o);
};

/// The simulated multi-GPU platform: m devices + metered links.
///
/// Engines call the Add* methods around every simulated transfer/kernel;
/// per-device timelines are kept separately and merged with max() per
/// synchronization phase, modeling devices running concurrently. Phases
/// accumulate serially; an engine that models overlap between its phases
/// (see RecordOverlap) reports the hidden share afterwards. The metering
/// methods are thread-safe.
class SimPlatform {
 public:
  SimPlatform(int num_devices, int64_t device_capacity_bytes,
              InterconnectParams params = {});

  int num_devices() const { return static_cast<int>(devices_.size()); }
  SimDevice& device(int i) { return devices_[i]; }
  const SimDevice& device(int i) const { return devices_[i]; }
  const InterconnectParams& params() const { return params_; }

  /// Host<->device transfer of `bytes` attributed to device `dev`.
  void AddH2D(int dev, int64_t bytes);
  /// Host<->device transfer crossing the CPU socket boundary (QPI rate).
  void AddH2DRemote(int dev, int64_t bytes);
  /// Device<->device transfer attributed to the *initiating* device.
  void AddD2D(int dev, int64_t bytes);
  /// In-place reuse of `bytes` on device `dev` (time at T_ru).
  void AddReuse(int dev, int64_t bytes);
  /// GPU kernel: roofline max(flops / F_peak, bytes / BW).
  void AddGpuCompute(int dev, double flops, double bytes);
  /// Host-side accumulation over `bytes` of gradients.
  void AddCpuAccum(int64_t bytes);
  /// Host-side compute expressed directly in seconds (loss, sampling, ...).
  void AddCpuSeconds(double secs);

  /// Ends a synchronization phase: folds max-over-devices of the per-device
  /// deltas into the epoch total and clears the deltas (Algorithm 2/3 end
  /// with synchronize(); this models that barrier).
  void Synchronize();

  /// Records that `busy_seconds` of already-synchronized phases ran in a
  /// modeled schedule whose wall time is `modeled_wall_seconds` (e.g. the
  /// pipeline recurrence or the task graph's list schedule over the phases'
  /// metered costs). The charge is clamped between `floor_seconds` (the
  /// longest chain no schedule can hide, such as the slowest pipeline
  /// stage's busy total) and `busy_seconds` (no model may beat zero
  /// overlap); the busy seconds hidden below that charge move into
  /// `overlapped`, so time().total() becomes the modeled critical path while
  /// the busy components stay as metered.
  void RecordOverlap(double busy_seconds, double floor_seconds,
                     double modeled_wall_seconds);

  /// Epoch totals since the last ResetEpoch (call Synchronize() first).
  const TimeBreakdown& time() const { return total_time_; }
  const ByteCounters& bytes() const { return total_bytes_; }

  /// Max peak memory across devices since last ResetPeaks.
  int64_t MaxDevicePeak() const;
  /// Sum of peak memory across devices.
  int64_t SumDevicePeaks() const;

  // ---- Host tensor-pool metering (tensor/pool.h). ResetEpoch snapshots the
  // process-wide pool counters; the accessors report the deltas since, so an
  // engine can prove its epoch ran without heap allocations.

  /// Heap allocations (pool misses) for tensor storage since ResetEpoch.
  int64_t HostAllocCount() const;
  /// Pool free-list hits since ResetEpoch.
  int64_t HostPoolHits() const;
  /// Peak live host tensor bytes observed since ResetEpoch.
  int64_t HostPeakBytes() const;

  /// Registers bytes held by precompiled edge schedules (kernels/schedule.h)
  /// — a one-time preprocessing cost, charged when an engine compiles its
  /// schedules and never reset by ResetEpoch. The caller separately accounts
  /// the same bytes against the owning device's capacity.
  void AddScheduleBytes(int64_t bytes);
  /// Total bytes registered through AddScheduleBytes.
  int64_t ScheduleBytes() const;

  void ResetEpoch();
  void ResetPeaks();

 private:
  std::vector<SimDevice> devices_;
  InterconnectParams params_;
  mutable std::mutex mu_;
  /// Per-device deltas of the current phase, and the host-side share.
  std::vector<TimeBreakdown> pending_;
  TimeBreakdown host_pending_;
  TimeBreakdown total_time_;
  ByteCounters total_bytes_;
  PoolStats pool_epoch_base_;  ///< pool counters at the last ResetEpoch
  int64_t schedule_bytes_ = 0;  ///< one-time edge-schedule storage
};

}  // namespace hongtu
