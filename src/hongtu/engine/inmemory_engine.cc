#include "hongtu/engine/inmemory_engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "hongtu/sim/memory_model.h"

namespace hongtu {

namespace {
constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Result<std::unique_ptr<InMemoryEngine>> InMemoryEngine::Create(
    const Dataset* dataset, ModelConfig model_config, InMemoryOptions options) {
  if (dataset == nullptr) {
    return Status::Invalid("InMemoryEngine: null dataset");
  }
  if (model_config.dims.empty() ||
      model_config.dims.front() != dataset->feature_dim()) {
    return Status::Invalid("InMemoryEngine: model input dim must match "
                           "dataset feature dim");
  }
  auto engine = std::unique_ptr<InMemoryEngine>(new InMemoryEngine());
  engine->ds_ = dataset;
  engine->options_ = options;
  HT_ASSIGN_OR_RETURN(engine->model_, GnnModel::Create(model_config));
  engine->adam_ = Adam(options.adam);
  for (Tensor* p : engine->model_.AllParams()) engine->adam_.Register(p);
  engine->platform_ = std::make_unique<SimPlatform>(
      options.num_devices, options.device_capacity_bytes,
      options.interconnect);

  // The whole graph as one chunk; self-loops make the source space the
  // identity over all vertices.
  std::vector<VertexId> all(dataset->graph.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  engine->full_chunk_ = ExtractChunk(dataset->graph, std::move(all), 0, 0);

  if (options.edge_schedules) {
    kernels::EdgeScheduleParams sp;
    sp.max_dim = 1;
    for (int d : model_config.dims) sp.max_dim = std::max(sp.max_dim, d);
    // Schedules ride along with the resident topology on device 0; if the
    // capacity cannot hold them (checked before paying for the compile),
    // train with the single-pass kernels.
    SimDevice& dev0 = engine->platform_->device(0);
    const int64_t estimate =
        ChunkSchedules::EstimateBytes(engine->full_chunk_, sp);
    if (dev0.used() + estimate <= dev0.capacity()) {
      auto sched = std::make_unique<ChunkSchedules>(
          ChunkSchedules::Build(engine->full_chunk_, sp));
      const int64_t bytes = sched->bytes();
      if (dev0.Allocate(bytes, "edge schedules").ok()) {
        engine->sched_alloc_ = DeviceAllocation(&dev0, bytes);
        engine->platform_->AddScheduleBytes(bytes);
        engine->sched_ = std::move(sched);
      }
    }
  }

  // Replication factor for the inter-GPU traffic model (multi-device only).
  if (options.num_devices > 1) {
    TwoLevelOptions tlo;
    tlo.metis.seed = options.partition_seed;
    HT_ASSIGN_OR_RETURN(
        TwoLevelPartition tl,
        BuildTwoLevelPartition(dataset->graph, options.num_devices, 1, tlo));
    engine->alpha_m_ = tl.ReplicationFactor(dataset->graph.num_vertices());
  }

  const int L = engine->model_.num_layers();
  engine->h_.reserve(L + 1);
  for (int l = 0; l <= L; ++l) {
    engine->h_.emplace_back(dataset->graph.num_vertices(),
                            model_config.dims[l]);
  }
  HT_RETURN_IF_ERROR(engine->h_[0].CopyFrom(dataset->features));
  engine->ctx_.resize(L);
  return engine;
}

Status InMemoryEngine::ReserveResidentMemory() {
  resident_.clear();
  // Vertex data (all layers' reps + grads), stored intermediates, topology
  // and parameter replicas, split evenly across the devices. Multi-device
  // full-graph systems additionally hold remote-neighbor replicas of the
  // representations (factor alpha_m) plus communication buffers and
  // allocator overhead — the "auxiliary data" of §1 that pushes real
  // systems into OOM well before the core state fills the devices.
  MemoryModelInput mm;
  mm.num_vertices = ds_->graph.num_vertices();
  mm.num_edges = ds_->graph.num_edges();
  for (int d : model_.config().dims) mm.dims.push_back(d);
  mm.kind = model_.config().kind == GnnKind::kGat ? ModelKind::kGat
                                                  : ModelKind::kGcn;
  const MemoryModelOutput out = EvaluateMemoryModel(mm);
  const int m = options_.num_devices;
  int64_t rep_dims = 0;
  for (int d : model_.config().dims) rep_dims += d;
  const int64_t rep_bytes = static_cast<int64_t>(
      static_cast<double>(ds_->graph.num_vertices()) * rep_dims *
      sizeof(float));
  int64_t aux_bytes = 0;
  if (m > 1) {
    // Multi-GPU full-graph systems (Sancus-style) additionally keep
    // (a) remote-neighbor replicas of the representations (factor alpha_m)
    // and (b) a historical-embedding copy of every layer used by
    // staleness-aware communication avoidance.
    aux_bytes = static_cast<int64_t>((alpha_m_ - 1.0) * rep_bytes) +
                rep_bytes;
  }
  constexpr double kAuxOverhead = 1.1;  // buffers + allocator slack
  const int64_t per_device = static_cast<int64_t>(
      kAuxOverhead *
      static_cast<double>(out.total() + aux_bytes + model_.ParamBytes() * m) /
      m);
  for (int i = 0; i < m; ++i) {
    HT_RETURN_IF_ERROR(
        platform_->device(i).Allocate(per_device, "resident training state"));
    resident_.emplace_back(&platform_->device(i), per_device);
  }
  return Status::OK();
}

Status InMemoryEngine::ForwardPass(bool store_ctx) {
  const int L = model_.num_layers();
  const LocalGraph lg = LocalGraph::FromChunk(full_chunk_, sched_.get());
  const int m = options_.num_devices;
  const int64_t nv = ds_->graph.num_vertices();

  for (int l = 0; l < L; ++l) {
    Layer* layer = model_.layer(l);
    Tensor dst_h;
    if (store_ctx) {
      HT_RETURN_IF_ERROR(layer->ForwardStore(lg, h_[l], &dst_h, &ctx_[l]));
    } else {
      HT_RETURN_IF_ERROR(layer->Forward(lg, h_[l], &dst_h, nullptr));
    }
    h_[l + 1] = std::move(dst_h);

    // Time model: kernels run on m devices in parallel; remote neighbor
    // access costs inter-GPU traffic proportional to (alpha_m - 1)|V|.
    // Replica exchange moves at the comm_precision wire width (a pure
    // traffic-model effect here: the resident numerics stay fp32).
    double flops = 0, bytes = 0;
    layer->ForwardCost(lg, &flops, &bytes);
    const int64_t eb = kernels::CommElemBytes(options_.comm_precision);
    for (int i = 0; i < m; ++i) {
      platform_->AddGpuCompute(i, flops / m, bytes / m);
      platform_->AddD2D(
          i, static_cast<int64_t>((alpha_m_ - 1.0) * nv / m) *
                 layer->in_dim() * eb);
    }
    platform_->Synchronize();
  }
  return Status::OK();
}

Result<EpochStats> InMemoryEngine::TrainEpoch() {
  const double w0 = NowSeconds();
  platform_->ResetEpoch();
  platform_->ResetPeaks();
  model_.ZeroGrads();
  HT_RETURN_IF_ERROR(ReserveResidentMemory());

  HT_RETURN_IF_ERROR(ForwardPass(/*store_ctx=*/true));

  const int L = model_.num_layers();
  const std::vector<VertexId> train = ds_->VerticesWithRole(SplitRole::kTrain);
  Tensor d_next(ds_->graph.num_vertices(), model_.config().dims[L]);
  LossResult loss = SoftmaxCrossEntropy(h_[L], ds_->labels, train, &d_next);
  platform_->AddCpuAccum(static_cast<int64_t>(train.size()) *
                         model_.config().dims.back() * kF32);
  platform_->Synchronize();

  const LocalGraph lg = LocalGraph::FromChunk(full_chunk_, sched_.get());
  const int m = options_.num_devices;
  const int64_t nv = ds_->graph.num_vertices();
  for (int l = L - 1; l >= 0; --l) {
    Layer* layer = model_.layer(l);
    // Layer 0's input is the feature matrix: no input gradient to compute
    // or to exchange between replicas.
    const bool input_grad = l > 0;
    Tensor d_src = input_grad ? Tensor(nv, layer->in_dim()) : Tensor();
    HT_RETURN_IF_ERROR(layer->BackwardStored(lg, *ctx_[l], h_[l], d_next,
                                             input_grad ? &d_src : nullptr));
    double flops = 0, bytes = 0;
    layer->BackwardCost(lg, /*cached=*/true, &flops, &bytes,
                        /*has_out_h=*/true, input_grad);
    const int64_t eb = kernels::CommElemBytes(options_.comm_precision);
    for (int i = 0; i < m; ++i) {
      platform_->AddGpuCompute(i, flops / m, bytes / m);
      if (!input_grad) continue;
      platform_->AddD2D(
          i, static_cast<int64_t>((alpha_m_ - 1.0) * nv / m) *
                 layer->in_dim() * eb);
    }
    platform_->Synchronize();
    d_next = std::move(d_src);
    // h_[l+1] may be a view of ctx_[l]'s stored activation (ForwardStore
    // hands out an alias instead of a copy); drop it together with the ctx
    // so no dangling view survives the epoch.
    h_[l + 1] = Tensor();
    ctx_[l].reset();
  }

  std::vector<const Tensor*> grads;
  for (Tensor* g : model_.AllGrads()) grads.push_back(g);
  HT_RETURN_IF_ERROR(adam_.Step(grads));

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
  resident_.clear();
  return stats;
}

Result<double> InMemoryEngine::EvaluateAccuracy(SplitRole role) {
  HT_RETURN_IF_ERROR(ForwardPass(/*store_ctx=*/false));
  return Accuracy(h_.back(), ds_->labels, ds_->VerticesWithRole(role));
}

}  // namespace hongtu
