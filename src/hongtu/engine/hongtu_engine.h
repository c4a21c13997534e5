/// \file hongtu_engine.h
/// \brief The HongTu training engine: partition-based CPU-offloaded
/// full-graph GNN training with recomputation-caching-hybrid intermediate
/// data management and deduplicated communication (Algorithm 1).
///
/// Per-layer vertex representations h^l and gradients (and, for cacheable
/// layers, the AGGREGATE checkpoints) live in host memory; each batch loads
/// one chunk per device through the deduplicated communication framework,
/// computes on the simulated GPU, and streams results back.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hongtu/comm/dedup_plan.h"
#include "hongtu/comm/executor.h"
#include "hongtu/comm/reorganize.h"
#include "hongtu/engine/engine.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/gnn/model.h"
#include "hongtu/graph/datasets.h"

namespace hongtu {

// HongTuOptions is an alias of the flattened EngineConfig (engine/engine.h);
// the HongTu-specific knobs (chunks_per_partition, dedup, reorganize,
// hybrid_cache, edge_schedules, partition_seed) and the executor policy
// (executor + max_inflight) live there.
//
// Execution: every pass runs one layer loop on the calling thread. Each
// batch of a layer is three stages — load (host->device), compute (the GNN
// kernels, OpenMP-parallel inside), store (device->host) — and each stage
// is metered on its own. `executor` only picks how those metered costs are
// overlapped in the modeled wall (serial: not at all; pipeline: the in-order
// 3-stage recurrence per layer; taskgraph: the list schedule of the pass's
// (chunk, layer, stage) dependency graph, common/taskgraph.h), and
// `max_inflight` is both the modeled window and the number of in-flight
// batches reserved in device memory.

class HongTuEngine : public Engine {
 public:
  /// Preprocesses (2-level partition, reorganization, dedup plan) and
  /// allocates host-side buffers. `dataset` must outlive the engine.
  static Result<std::unique_ptr<HongTuEngine>> Create(const Dataset* dataset,
                                                      ModelConfig model_config,
                                                      HongTuOptions options);

  /// One full forward+backward epoch with parameter update.
  Result<EpochStats> TrainEpoch();

  // ---- Engine interface ----------------------------------------------------
  Result<EpochStats> RunEpoch() override { return TrainEpoch(); }
  /// Forward-only pass; returns accuracy over the given split.
  Result<double> EvaluateAccuracy(SplitRole role) override;
  const char* name() const override { return "hongtu"; }

  const DedupPlan& plan() const { return plan_; }
  const TwoLevelPartition& partition() const { return tl_; }
  /// Preprocessing wall-clock split: {partition, reorganize+plan} seconds.
  double partition_seconds() const { return partition_seconds_; }
  double dedup_preprocess_seconds() const { return dedup_preprocess_seconds_; }

  SimPlatform* platform() override { return platform_.get(); }
  GnnModel* model() override { return &model_; }
  /// Optimizer state — the checkpoint layer snapshots/restores it together
  /// with the parameters (engine/checkpoint.h).
  Adam* adam() override { return &adam_; }
  /// The engine's degradation record (common/fault.h). TrainEpoch resets the
  /// per-epoch counters and snapshots them into EpochStats::recovery.
  fault::DegradationPolicy* degradation() override { return &degrade_; }
  const HongTuOptions& options() const { return options_; }

  /// The compiled schedules of chunk (i, j); null when schedules are
  /// disabled or device i could not hold them.
  const ChunkSchedules* chunk_schedules(int i, int j) const {
    if (scheds_.empty() || scheds_[static_cast<size_t>(i)].empty()) {
      return nullptr;
    }
    return &scheds_[static_cast<size_t>(i)][static_cast<size_t>(j)];
  }

 private:
  HongTuEngine() = default;

  /// The modeled schedule of one pass (defined in the .cc): which overlap
  /// model applies, its in-flight window, and its device reservations.
  struct PassModel;
  /// The body of one stage of batch j.
  using StageFn = std::function<Status(int j)>;

  /// Forward over all layers/batches; fills h^l buffers (and caches).
  Status ForwardPass();
  /// Backward from the loss gradient in grad_[L] down to layer 0.
  Status BackwardPass();
  Status AllReduceAndStep();

  /// Sets up `pm` for one pass under options_.executor. The task graph
  /// builds the pass's dependency graph and reserves its pass-wide scratch
  /// (falling back to serial batches when that does not fit).
  Status BeginPass(bool backward, PassModel* pm);
  /// Charges the task graph's modeled overlap of a finished pass.
  void EndPass(PassModel* pm);
  /// Adds the pass's (chunk, layer, stage) nodes to pm->graph: loads chain
  /// in batch order and acquire a buffer-slot token (capacity = the
  /// window), computes chain in batch order, stores release the token
  /// (backward stores also chain), and cross-layer edges exist only where a
  /// batch's loads read rows an earlier layer's store produces.
  void BuildPassGraph(bool backward, PassModel* pm);

  /// The one layer loop. Registers the comm buffers and in-flight scratch
  /// the pass's window needs (an OutOfMemory there degrades the layer — under
  /// the task graph, the rest of the pass — to serial batches), runs load,
  /// compute and store of every batch in order on the calling thread,
  /// metering each stage, and hands the costs to the pass model.
  Status RunLayer(int l, bool backward, PassModel* pm, const StageFn& load,
                  const StageFn& compute, const StageFn& store);
  Status ForwardLayer(int l, PassModel* pm);
  Status BackwardLayer(int l, PassModel* pm);
  /// One stage: pokes the `pipeline.stage` fault site (a transient fire
  /// retries the stage in place, before it has touched anything), runs the
  /// body, closes its synchronization phase and returns the busy seconds it
  /// metered.
  Status RunStage(const StageFn& body, int j, double* seconds);
  /// Reserves `window` worst-case chunk working sets per device, the worst
  /// case taken over the layers in [l0, l1).
  Status ReserveWindowScratch(int window, int l0, int l1, bool backward,
                              std::vector<DeviceAllocation>* out);

  /// Classifies a failed in-flight window reservation: OutOfMemory is
  /// recorded as a degradation event and returns OK (the caller runs serial
  /// batches); anything else passes through.
  Status DegradeToSerial(const Status& st, const std::string& what);

  /// Cross-layer dependency tables of the task graph, computed once:
  /// fwd_dep_batches_[j] = the batches whose forward store writes rows that
  /// batch j's fresh (non-reused) transition loads read on any device;
  /// bwd_dep_batch_[j] = the latest batch whose backward flush completes
  /// grad rows batch j's recompute load reads at layer l from layer l+1's
  /// store (-1 when none). Both are layer-independent (the dedup plan's
  /// transition structure is).
  void BuildTaskDeps();

  /// Per-device chunk workspaces, pool-backed and reused across chunks,
  /// layers and epochs. Each hot-loop tensor is reshaped in place with
  /// EnsureShape, so the chunk loops never allocate once the workspaces are
  /// pre-sized (PresizeWorkspaces) to the worst-case chunk.
  struct Workspace {
    std::vector<Tensor> out;       ///< forward dst_h output (per device)
    std::vector<Tensor> agg;       ///< AGGREGATE output / reloaded checkpoint
    std::vector<Tensor> d_dst;     ///< destination gradients from host
    std::vector<Tensor> dst_rows;  ///< destinations' own h^l rows (hybrid)
    std::vector<Tensor> d_src;     ///< neighbor gradients (accumulator)
  };

  /// Grows every workspace tensor to the worst-case chunk of its device
  /// across all layers, so the first epoch already runs allocation-free in
  /// the engine's own loops.
  void PresizeWorkspaces();

  /// Compiles the per-(chunk, direction) edge schedules (options_.
  /// edge_schedules), sized for the widest layer dimension, accounts their
  /// bytes against each device and the platform's schedule meter. A device
  /// whose capacity cannot hold its schedules keeps none (single-pass
  /// kernels) instead of failing.
  void BuildEdgeSchedules();

  const Dataset* ds_ = nullptr;
  HongTuOptions options_;
  GnnModel model_;
  Adam adam_;
  /// Counted record of every graceful degradation (shared with executor_).
  fault::DegradationPolicy degrade_;

  TwoLevelPartition tl_;
  DedupPlan plan_;
  std::unique_ptr<SimPlatform> platform_;
  std::unique_ptr<CommExecutor> executor_;

  std::vector<Tensor> h_;      ///< h^l, l = 0..L (host)
  std::vector<Tensor> grad_;   ///< grad h^l, l = 1..L (host; [0] is empty)
  std::vector<Tensor> cache_;  ///< AGGREGATE checkpoints per layer (host)
  std::vector<bool> use_cache_;  ///< per layer: hybrid cache active
  Workspace ws_;  ///< reusable chunk workspaces
  /// Per (device, chunk) compiled aggregation schedules ([m][n]; a device's
  /// row is empty when its schedules did not fit) and their device-memory
  /// registrations.
  std::vector<std::vector<ChunkSchedules>> scheds_;
  std::vector<DeviceAllocation> sched_alloc_;

  /// Task-graph cross-layer dependency tables (BuildTaskDeps; empty until
  /// the taskgraph executor first runs).
  std::vector<std::vector<int>> fwd_dep_batches_;
  std::vector<int> bwd_dep_batch_;

  double partition_seconds_ = 0.0;
  double dedup_preprocess_seconds_ = 0.0;
};

}  // namespace hongtu
