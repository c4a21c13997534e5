#include "hongtu/engine/hongtu_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "hongtu/common/logging.h"
#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"

namespace hongtu {

namespace {

constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Copies selected host rows into a dense device tensor, crossing the host
/// link at `wire` precision: fp32 is a plain memcpy, a 16-bit wire quantizes
/// each value once in passing (kernels/codec.h). The output is reshaped in
/// place (every row is overwritten), so a pre-sized workspace tensor never
/// reallocates. Fault site `device.h2d`: the copy is idempotent, so a
/// transient failure on this row stream retries in place.
Status GatherRows(const Tensor& host, const std::vector<VertexId>& rows,
                  Tensor* out, kernels::CommPrecision wire,
                  fault::DegradationPolicy* degrade) {
  return fault::RetryTransient(fault::DefaultRetryPolicy(), degrade, "device.h2d", [&] {
    HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kDeviceH2D));
    const int64_t dim = host.cols();
    const kernels::Backend kb = kernels::ActiveBackend();
    out->EnsureShape(static_cast<int64_t>(rows.size()), dim);
    ParallelForChunked(0, static_cast<int64_t>(rows.size()),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) {
                           kernels::QuantizeCopyRows(kb, wire,
                                                     host.row(rows[r]), dim,
                                                     out->row(r));
                         }
                       });
    return Status::OK();
  });
}

/// Writes a dense device tensor back to selected host rows, crossing the
/// host link at `wire` precision (see GatherRows). Idempotent: target rows
/// are plain overwrites, so the same retry contract applies.
Status ScatterRows(const Tensor& dev, const std::vector<VertexId>& rows,
                   Tensor* host, kernels::CommPrecision wire,
                   fault::DegradationPolicy* degrade) {
  return fault::RetryTransient(fault::DefaultRetryPolicy(), degrade, "device.h2d", [&] {
    HT_RETURN_IF_ERROR(fault::Poke(fault::Site::kDeviceH2D));
    const int64_t dim = host->cols();
    const kernels::Backend kb = kernels::ActiveBackend();
    ParallelForChunked(0, static_cast<int64_t>(rows.size()),
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t r = lo; r < hi; ++r) {
                           kernels::QuantizeCopyRows(kb, wire, dev.row(r), dim,
                                                     host->row(rows[r]));
                         }
                       });
    return Status::OK();
  });
}

/// Device scratch reservation with transient-failure retry (the `pool.alloc`
/// fault site fires inside SimDevice::Allocate). A real OutOfMemory result
/// is not transient and propagates immediately to the OOM-fallback logic.
Status AllocateWithRetry(SimDevice* dev, int64_t bytes, const std::string& tag,
                         fault::DegradationPolicy* degrade) {
  return fault::RetryTransient(fault::DefaultRetryPolicy(), degrade, "pool.alloc",
                               [&] { return dev->Allocate(bytes, tag); });
}

/// Per-batch device working set of a forward chunk: per-destination scratch
/// plus, for non-cacheable layers, the regenerated edge state.
int64_t ForwardScratchBytes(const Chunk& chunk, const Layer& layer) {
  return (chunk.num_dst() * (layer.agg_dim() + 2 * layer.out_dim()) +
          (layer.cacheable()
               ? 0
               : chunk.num_edges() * 3 +
                     chunk.num_neighbors() * layer.out_dim())) *
         kF32;
}

/// Per-batch device working set of a backward chunk. Neighbor-data and
/// neighbor-gradient rows live in the executor's merged comm buffers; only
/// per-destination scratch and (for the recompute path) regenerated edge
/// state count here.
int64_t BackwardScratchBytes(const Chunk& chunk, const Layer& layer,
                             bool cached) {
  return (chunk.num_dst() * (layer.agg_dim() + 3 * layer.out_dim()) +
          (cached ? 0
                  : chunk.num_edges() * 3 +
                        2 * chunk.num_neighbors() * layer.out_dim())) *
         kF32;
}

/// Per-batch device working set of chunk `c` at `layer` in one direction.
int64_t ScratchBytes(const Chunk& c, const Layer& layer, bool backward,
                     bool cached) {
  return backward ? BackwardScratchBytes(c, layer, cached)
                  : ForwardScratchBytes(c, layer);
}

}  // namespace

Result<std::unique_ptr<HongTuEngine>> HongTuEngine::Create(
    const Dataset* dataset, ModelConfig model_config, HongTuOptions options) {
  if (dataset == nullptr) {
    return Status::Invalid("HongTuEngine: null dataset");
  }
  if (model_config.dims.empty() ||
      model_config.dims.front() != dataset->feature_dim()) {
    return Status::Invalid("HongTuEngine: model input dim must match dataset "
                           "feature dim");
  }
  auto engine = std::unique_ptr<HongTuEngine>(new HongTuEngine());
  engine->ds_ = dataset;
  engine->options_ = options;
  HT_ASSIGN_OR_RETURN(engine->model_, GnnModel::Create(model_config));
  engine->adam_ = Adam(options.adam);
  for (Tensor* p : engine->model_.AllParams()) engine->adam_.Register(p);

  // ---- Preprocessing: 2-level partition, reorganization, dedup plan.
  const double t0 = NowSeconds();
  TwoLevelOptions tlo;
  tlo.metis.seed = options.partition_seed;
  HT_ASSIGN_OR_RETURN(
      engine->tl_,
      BuildTwoLevelPartition(dataset->graph, options.num_devices,
                             options.chunks_per_partition, tlo));
  const double t1 = NowSeconds();
  if (options.reorganize && options.dedup != DedupLevel::kNone) {
    HT_RETURN_IF_ERROR(ReorganizePartition(&engine->tl_).status());
  }
  HT_ASSIGN_OR_RETURN(engine->plan_,
                      BuildDedupPlan(engine->tl_, options.dedup));
  const double t2 = NowSeconds();
  engine->partition_seconds_ = t1 - t0;
  engine->dedup_preprocess_seconds_ = t2 - t1;

  engine->platform_ = std::make_unique<SimPlatform>(
      options.num_devices, options.device_capacity_bytes,
      options.interconnect);
  engine->executor_ = std::make_unique<CommExecutor>(
      &engine->tl_, &engine->plan_, engine->platform_.get(),
      &engine->degrade_);

  // ---- Host buffers (Algorithm 1 line 3): h^l and grad h^l for all layers,
  // plus AGGREGATE checkpoints for cacheable layers under the hybrid policy.
  const int64_t nv = dataset->graph.num_vertices();
  const int L = engine->model_.num_layers();
  engine->h_.reserve(L + 1);
  engine->grad_.reserve(L + 1);
  for (int l = 0; l <= L; ++l) {
    engine->h_.emplace_back(nv, model_config.dims[l]);
    // Nothing reads the input features' gradient: grad_[0] stays empty.
    engine->grad_.push_back(l == 0 ? Tensor()
                                   : Tensor(nv, model_config.dims[l]));
  }
  HT_RETURN_IF_ERROR(engine->h_[0].CopyFrom(dataset->features));
  engine->cache_.resize(L);
  engine->use_cache_.resize(L);
  for (int l = 0; l < L; ++l) {
    Layer* layer = engine->model_.layer(l);
    engine->use_cache_[l] = options.hybrid_cache && layer->cacheable();
    if (engine->use_cache_[l]) {
      engine->cache_[l] = Tensor(nv, layer->agg_dim());
    }
  }
  engine->PresizeWorkspaces();
  if (options.edge_schedules) engine->BuildEdgeSchedules();
  return engine;
}

void HongTuEngine::BuildEdgeSchedules() {
  const int m = options_.num_devices;
  const int n = options_.chunks_per_partition;
  kernels::EdgeScheduleParams sp;
  sp.max_dim = 1;
  for (int d : model_.config().dims) sp.max_dim = std::max(sp.max_dim, d);
  scheds_.clear();
  scheds_.resize(static_cast<size_t>(m));
  sched_alloc_.clear();
  for (int i = 0; i < m; ++i) {
    // The schedules live in device memory next to the chunk topology they
    // permute. A device that cannot afford them keeps the single-pass
    // kernels — the schedules are an optimization, never a requirement —
    // and the capacity estimate runs *before* the builds, so an
    // over-capacity device pays nothing.
    if (platform_ != nullptr) {
      int64_t estimate = 0;
      for (int j = 0; j < n; ++j) {
        estimate += ChunkSchedules::EstimateBytes(tl_.chunks[i][j], sp);
      }
      SimDevice& dev = platform_->device(i);
      if (dev.used() + estimate > dev.capacity()) {
        degrade_.RecordSetup(
            fault::DegradeEvent::kScheduleFallback,
            "device " + std::to_string(i) +
                ": edge schedules do not fit, using single-pass kernels");
        continue;
      }
    }
    // Chunks compile independently — per-chunk parallel build keeps the
    // one-time preprocessing off the critical path at larger chunk counts
    // (ChunkSchedules::Build itself also fuses the two directions' counting
    // passes and parallelizes placement over shards).
    std::vector<ChunkSchedules> row(static_cast<size_t>(n));
    ParallelForChunked(0, n, /*serial_below=*/2, [&](int64_t lo, int64_t hi) {
      for (int64_t j = lo; j < hi; ++j) {
        row[static_cast<size_t>(j)] =
            ChunkSchedules::Build(tl_.chunks[i][j], sp);
      }
    });
    int64_t bytes = 0;
    for (int j = 0; j < n; ++j) bytes += row[static_cast<size_t>(j)].bytes();
    if (platform_ != nullptr) {
      // Cannot fail on capacity (bytes <= the estimate already checked
      // above), but an armed pool.alloc fault can still reject it — then
      // the device keeps the single-pass kernels like any other miss.
      if (!AllocateWithRetry(&platform_->device(i), bytes, "edge schedules",
                             &degrade_)
               .ok()) {
        degrade_.RecordSetup(
            fault::DegradeEvent::kScheduleFallback,
            "device " + std::to_string(i) +
                ": edge-schedule allocation rejected, using single-pass "
                "kernels");
        continue;
      }
      sched_alloc_.emplace_back(&platform_->device(i), bytes);
      platform_->AddScheduleBytes(bytes);
    }
    scheds_[static_cast<size_t>(i)] = std::move(row);
  }
}

void HongTuEngine::PresizeWorkspaces() {
  const int m = options_.num_devices;
  const int n = options_.chunks_per_partition;
  const int L = model_.num_layers();
  int64_t max_in = 0, max_out = 0, max_agg = 0;
  for (int l = 0; l < L; ++l) {
    const Layer* layer = model_.layer(l);
    max_in = std::max<int64_t>(max_in, layer->in_dim());
    max_out = std::max<int64_t>(max_out, layer->out_dim());
    max_agg = std::max<int64_t>(max_agg, layer->agg_dim());
  }
  ws_.out.resize(m);
  ws_.agg.resize(m);
  ws_.d_dst.resize(m);
  ws_.dst_rows.resize(m);
  ws_.d_src.resize(m);
  for (int i = 0; i < m; ++i) {
    int64_t max_dst = 0, max_nbr = 0;
    for (int j = 0; j < n; ++j) {
      max_dst = std::max(max_dst, tl_.chunks[i][j].num_dst());
      max_nbr = std::max(max_nbr, tl_.chunks[i][j].num_neighbors());
    }
    ws_.out[i].EnsureShape(max_dst, max_out);
    ws_.agg[i].EnsureShape(max_dst, max_agg);
    ws_.d_dst[i].EnsureShape(max_dst, max_out);
    ws_.dst_rows[i].EnsureShape(max_dst, max_in);
    ws_.d_src[i].EnsureShape(max_nbr, max_in);
  }
}

Status HongTuEngine::ForwardPass() {
  for (int l = 0; l < model_.num_layers(); ++l) {
    HT_RETURN_IF_ERROR(ForwardLayer(l));
  }
  return Status::OK();
}

Status HongTuEngine::BackwardPass() {
  for (int l = model_.num_layers() - 1; l >= 0; --l) {
    HT_RETURN_IF_ERROR(BackwardLayer(l));
  }
  return Status::OK();
}

Status HongTuEngine::ReserveWindowScratch(int window, int l, bool backward,
                                          std::vector<DeviceAllocation>* out) {
  const int m = options_.num_devices;
  const int n = options_.chunks_per_partition;
  out->reserve(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    int64_t ws = 0;
    for (int j = 0; j < n; ++j) {
      ws = std::max(ws, ScratchBytes(tl_.chunks[i][j], *model_.layer(l),
                                     backward, use_cache_[l]));
    }
    HT_RETURN_IF_ERROR(AllocateWithRetry(&platform_->device(i), window * ws,
                                         "in-flight scratch", &degrade_));
    out->emplace_back(&platform_->device(i), window * ws);
  }
  return Status::OK();
}

/// An in-flight window whose working set does not fit is a graceful
/// degradation to serial batches; anything else is a real error.
Status HongTuEngine::DegradeToSerial(const Status& st,
                                     const std::string& what) {
  if (!st.IsOutOfMemory()) return st;
  degrade_.Record(fault::DegradeEvent::kPipelineOomFallback,
                  what + ": " + st.message());
  return Status::OK();
}

Status HongTuEngine::RunStage(const StageFn& body, int j, double* seconds) {
  HT_RETURN_IF_ERROR(fault::RetryTransient(
      fault::DefaultRetryPolicy(), &degrade_, "pipeline.stage",
      [] { return fault::Poke(fault::Site::kPipelineStage); }));
  const double before = platform_->time().busy();
  HT_RETURN_IF_ERROR(body(j));
  platform_->Synchronize();
  *seconds = platform_->time().busy() - before;
  return Status::OK();
}

Status HongTuEngine::RunLayer(int l, bool backward, const StageFn& load,
                              const StageFn& compute, const StageFn& store) {
  const int m = options_.num_devices;
  const int n = options_.chunks_per_partition;
  const Layer* layer = model_.layer(l);
  const bool cached = backward && use_cache_[l];
  // Layer 0's hybrid backward neither loads neighbors nor pushes an input
  // gradient (BackwardLayer), so it opens no comm layer at all.
  const bool comm = !(cached && l == 0);
  const kernels::CommPrecision wire = options_.comm_precision;

  // The modeled in-flight window, clamped to the batch count. A window of 1
  // cannot overlap anything (the stages serialize through it), so modeling
  // one would fabricate hidden seconds: such a layer runs serial batches.
  int window = std::min(std::max(1, options_.max_inflight), n);
  // In-flight reservations: `window` comm slots (one when the hybrid
  // backward never loads neighbors) plus `window` worst-case chunk working
  // sets for this layer. If they do not fit, this layer runs serial
  // batches, each reserving only its own chunks' working sets.
  std::vector<DeviceAllocation> layer_scratch;
  if (window >= 2) {
    Status st = comm ? executor_->BeginLayer(layer->in_dim(),
                                             cached ? 1 : window, wire,
                                             options_.wire_integrity)
                     : Status::OK();
    if (st.ok()) st = ReserveWindowScratch(window, l, backward, &layer_scratch);
    if (!st.ok()) {
      layer_scratch.clear();
      HT_RETURN_IF_ERROR(DegradeToSerial(
          st, std::string(backward ? "backward" : "forward") + " layer " +
                  std::to_string(l)));
      window = 1;
    }
  }
  if (window == 1 && comm) {
    HT_RETURN_IF_ERROR(executor_->BeginLayer(layer->in_dim(), 1, wire,
                                             options_.wire_integrity));
  }

  std::vector<std::array<double, 3>> cost(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    std::array<double, 3>& c = cost[static_cast<size_t>(j)];
    HT_RETURN_IF_ERROR(RunStage(load, j, &c[0]));
    std::vector<DeviceAllocation> batch_scratch;
    if (window == 1) {
      for (int i = 0; i < m; ++i) {
        const Chunk& chunk = tl_.chunks[i][j];
        if (chunk.num_dst() == 0) continue;
        const int64_t ws = ScratchBytes(chunk, *layer, backward, cached);
        HT_RETURN_IF_ERROR(AllocateWithRetry(&platform_->device(i), ws,
                                             "chunk scratch", &degrade_));
        batch_scratch.emplace_back(&platform_->device(i), ws);
      }
    }
    HT_RETURN_IF_ERROR(RunStage(compute, j, &c[1]));
    HT_RETURN_IF_ERROR(RunStage(store, j, &c[2]));
  }

  if (comm) executor_->EndLayer();
  if (window >= 2) {
    // The layer is charged at the pipeline recurrence over the per-batch
    // stage costs, never below its slowest stage's busy total.
    double lane[3] = {0.0, 0.0, 0.0};
    for (const auto& c : cost) {
      for (int s = 0; s < 3; ++s) lane[s] += c[static_cast<size_t>(s)];
    }
    platform_->RecordOverlap(lane[0] + lane[1] + lane[2],
                             std::max({lane[0], lane[1], lane[2]}),
                             ModelPipelineSeconds(cost, window));
  }
  return Status::OK();
}

Status HongTuEngine::ForwardLayer(int l) {
  const int m = options_.num_devices;
  Layer* layer = model_.layer(l);
  const kernels::CommPrecision wire = options_.comm_precision;
  const int64_t eb = kernels::CommElemBytes(wire);

  // Load: deduplicated communication for batch j (Algorithm 2).
  const auto load = [&](int j) {
    return executor_->ForwardLoadSlot(j, 0, h_[l]);
  };
  // Compute: GNN kernels for batch j on every device.
  const auto compute = [&](int j) -> Status {
    std::vector<Tensor>& nbr = executor_->slot_buffers(0);
    for (int i = 0; i < m; ++i) {
      const Chunk& chunk = tl_.chunks[i][j];
      if (chunk.num_dst() == 0) continue;
      const LocalGraph lg = LocalGraph::FromChunk(chunk, chunk_schedules(i, j));
      HT_RETURN_IF_ERROR(layer->Forward(lg, nbr[i], &ws_.out[i],
                                        use_cache_[l] ? &ws_.agg[i] : nullptr));
      double flops = 0, bytes = 0;
      layer->ForwardCost(lg, &flops, &bytes);
      platform_->AddGpuCompute(i, flops, bytes);
    }
    return Status::OK();
  };
  // Store: copy the new representations back to host (Alg. 1 line 9) and
  // cache the AGGREGATE checkpoints in host memory (§4.2).
  const auto store = [&](int j) -> Status {
    for (int i = 0; i < m; ++i) {
      const Chunk& chunk = tl_.chunks[i][j];
      if (chunk.num_dst() == 0) continue;
      HT_RETURN_IF_ERROR(ScatterRows(ws_.out[i], chunk.dst_vertices,
                                     &h_[l + 1], wire, &degrade_));
      platform_->AddH2D(i, chunk.num_dst() * layer->out_dim() * eb);
      if (use_cache_[l]) {
        HT_RETURN_IF_ERROR(ScatterRows(ws_.agg[i], chunk.dst_vertices,
                                       &cache_[l], wire, &degrade_));
        platform_->AddH2D(i, chunk.num_dst() * layer->agg_dim() * eb);
      }
    }
    return Status::OK();
  };
  return RunLayer(l, /*backward=*/false, load, compute, store);
}

Status HongTuEngine::BackwardLayer(int l) {
  const int m = options_.num_devices;
  Layer* layer = model_.layer(l);
  const bool cached = use_cache_[l];
  // Layer 0's input is the feature matrix: nothing reads its gradient, so
  // the layer computes only its parameter gradients and flushes nothing.
  const bool input_grad = l > 0;
  // The hybrid path reads the ReLU mask from the stored activation h^{l+1}
  // instead of re-running the UPDATE GEMMs for it.
  const bool read_out = cached && layer->backward_reads_output();
  const kernels::CommPrecision wire = options_.comm_precision;
  const int64_t eb = kernels::CommElemBytes(wire);
  if (input_grad) grad_[l].Zero();

  // Load: destination gradients from host (Alg. 1 line 16), plus either the
  // AGGREGATE checkpoints (hybrid path, Fig. 4c — no neighbor reload) or
  // the neighbor representations through the deduplicated communication
  // framework (recomputation path, Fig. 4b).
  const auto load = [&](int j) -> Status {
    if (!cached) HT_RETURN_IF_ERROR(executor_->ForwardLoadSlot(j, 0, h_[l]));
    for (int i = 0; i < m; ++i) {
      const Chunk& chunk = tl_.chunks[i][j];
      if (chunk.num_dst() == 0) continue;
      HT_RETURN_IF_ERROR(GatherRows(grad_[l + 1], chunk.dst_vertices,
                                    &ws_.d_dst[i], wire, &degrade_));
      platform_->AddH2D(i, chunk.num_dst() * layer->out_dim() * eb);
      if (!cached) continue;
      HT_RETURN_IF_ERROR(GatherRows(cache_[l], chunk.dst_vertices,
                                    &ws_.agg[i], wire, &degrade_));
      platform_->AddH2D(i, chunk.num_dst() * layer->agg_dim() * eb);
      if (layer->needs_dst_h()) {
        HT_RETURN_IF_ERROR(GatherRows(h_[l], chunk.dst_vertices,
                                      &ws_.dst_rows[i], wire, &degrade_));
        platform_->AddH2D(i, chunk.num_dst() * layer->in_dim() * eb);
      } else {
        ws_.dst_rows[i].EnsureShape(0, 0);
      }
      if (read_out) {
        // The forward's output workspace is idle in the backward.
        HT_RETURN_IF_ERROR(GatherRows(h_[l + 1], chunk.dst_vertices,
                                      &ws_.out[i], wire, &degrade_));
        platform_->AddH2D(i, chunk.num_dst() * layer->out_dim() * eb);
      }
    }
    return Status::OK();
  };
  // Compute: backward kernels for batch j on every device.
  const auto compute = [&](int j) -> Status {
    for (int i = 0; i < m; ++i) {
      const Chunk& chunk = tl_.chunks[i][j];
      Tensor& d_src = ws_.d_src[i];
      if (chunk.num_dst() == 0) {
        d_src.EnsureShape(0, layer->in_dim());
        continue;
      }
      const LocalGraph lg = LocalGraph::FromChunk(chunk, chunk_schedules(i, j));
      if (input_grad) {
        d_src.EnsureShapeZeroed(chunk.num_neighbors(), layer->in_dim());
      }
      Tensor* ds = input_grad ? &d_src : nullptr;
      if (cached) {
        HT_RETURN_IF_ERROR(layer->BackwardCached(
            lg, ws_.agg[i], ws_.dst_rows[i], ws_.d_dst[i], ds,
            read_out ? &ws_.out[i] : nullptr));
      } else {
        HT_RETURN_IF_ERROR(layer->BackwardRecompute(
            lg, executor_->slot_buffers(0)[i], ws_.d_dst[i], ds));
      }
      double flops = 0, bytes = 0;
      layer->BackwardCost(lg, cached, &flops, &bytes, read_out, input_grad);
      platform_->AddGpuCompute(i, flops, bytes);
    }
    return Status::OK();
  };
  // Store: deduplicated gradient write-back (Alg. 1 line 19 / Alg. 3), in
  // batch order, so the host-side accumulation order is fixed.
  const auto store = [&](int j) {
    if (!input_grad) return Status::OK();
    return executor_->BackwardAccumulate(j, ws_.d_src, &grad_[l]);
  };
  return RunLayer(l, /*backward=*/true, load, compute, store);
}

Status HongTuEngine::AllReduceAndStep() {
  // Parameters are replicated across devices; gradients are synchronized
  // with a ring all-reduce (Alg. 1 line 21). In this single-process engine
  // the gradient tensors are already global sums, so only traffic is added.
  const int m = options_.num_devices;
  const int64_t param_bytes = model_.ParamBytes();
  for (int i = 0; i < m; ++i) {
    platform_->AddD2D(i, 2 * param_bytes * (m - 1) / std::max(1, m));
  }
  platform_->Synchronize();
  std::vector<const Tensor*> grads;
  for (Tensor* g : model_.AllGrads()) grads.push_back(g);
  return adam_.Step(grads);
}

Result<EpochStats> HongTuEngine::TrainEpoch() {
  const double w0 = NowSeconds();
  platform_->ResetEpoch();
  platform_->ResetPeaks();
  degrade_.ResetEpoch();
  model_.ZeroGrads();

  HT_RETURN_IF_ERROR(ForwardPass());

  // Downstream task (Alg. 1 lines 10-11) on the host.
  const int L = model_.num_layers();
  const std::vector<VertexId> train = ds_->VerticesWithRole(SplitRole::kTrain);
  LossResult loss = SoftmaxCrossEntropy(h_[L], ds_->labels, train, &grad_[L]);
  platform_->AddCpuAccum(static_cast<int64_t>(train.size()) *
                         model_.config().dims.back() * kF32);
  platform_->Synchronize();

  HT_RETURN_IF_ERROR(BackwardPass());
  HT_RETURN_IF_ERROR(AllReduceAndStep());

  EpochStats stats;
  stats.loss = loss.loss;
  stats.train_accuracy = loss.accuracy;
  stats.time = platform_->time();
  stats.bytes = platform_->bytes();
  stats.peak_device_bytes = platform_->MaxDevicePeak();
  stats.wall_seconds = NowSeconds() - w0;
  stats.host_peak_bytes = platform_->HostPeakBytes();
  stats.host_alloc_count = platform_->HostAllocCount();
  stats.host_pool_hits = platform_->HostPoolHits();
  stats.recovery = degrade_.SnapshotEpoch();
  return stats;
}

Result<double> HongTuEngine::EvaluateAccuracy(SplitRole role) {
  HT_RETURN_IF_ERROR(ForwardPass());
  const int L = model_.num_layers();
  return Accuracy(h_[L], ds_->labels, ds_->VerticesWithRole(role));
}

}  // namespace hongtu
