#include "hongtu/engine/minibatch_engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>

#include "hongtu/common/parallel.h"

namespace hongtu {

namespace {
constexpr int64_t kF32 = static_cast<int64_t>(sizeof(float));

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void GatherRows(const Tensor& host, const std::vector<VertexId>& rows,
                Tensor* out) {
  const int64_t dim = host.cols();
  *out = Tensor(static_cast<int64_t>(rows.size()), dim);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::memcpy(out->row(static_cast<int64_t>(r)), host.row(rows[r]),
                static_cast<size_t>(dim) * sizeof(float));
  }
}

}  // namespace

Chunk SampleChunk(const Graph& g, std::vector<VertexId> dst_vertices,
                  int fanout, Rng* rng) {
  std::sort(dst_vertices.begin(), dst_vertices.end());
  // Pick sampled edge positions per destination.
  std::vector<std::vector<EdgeId>> picked(dst_vertices.size());
  for (size_t d = 0; d < dst_vertices.size(); ++d) {
    const VertexId v = dst_vertices[d];
    const EdgeId e0 = g.in_offsets()[v], e1 = g.in_offsets()[v + 1];
    const int64_t deg = e1 - e0;
    auto& out = picked[d];
    if (deg <= fanout) {
      for (EdgeId e = e0; e < e1; ++e) out.push_back(e);
    } else {
      // Partial Fisher-Yates over edge offsets.
      std::vector<EdgeId> idx(static_cast<size_t>(deg));
      std::iota(idx.begin(), idx.end(), e0);
      for (int k = 0; k < fanout; ++k) {
        const size_t r =
            k + static_cast<size_t>(rng->NextInt(deg - k));
        std::swap(idx[k], idx[r]);
        out.push_back(idx[k]);
      }
      // Keep the self-loop so the destination feeds its own update.
      bool has_self = false;
      for (EdgeId e : out) {
        if (g.in_neighbors()[e] == v) has_self = true;
      }
      if (!has_self) {
        for (EdgeId e = e0; e < e1; ++e) {
          if (g.in_neighbors()[e] == v) {
            out.back() = e;
            break;
          }
        }
      }
      std::sort(out.begin(), out.end());
    }
  }

  Chunk c;
  c.partition_id = 0;
  c.chunk_id = 0;
  c.dst_vertices = std::move(dst_vertices);
  for (auto& edges : picked) {
    for (EdgeId e : edges) c.neighbors.push_back(g.in_neighbors()[e]);
  }
  std::sort(c.neighbors.begin(), c.neighbors.end());
  c.neighbors.erase(std::unique(c.neighbors.begin(), c.neighbors.end()),
                    c.neighbors.end());
  auto local_of = [&](VertexId u) {
    return static_cast<int32_t>(
        std::lower_bound(c.neighbors.begin(), c.neighbors.end(), u) -
        c.neighbors.begin());
  };
  c.in_offsets.assign(c.dst_vertices.size() + 1, 0);
  for (size_t d = 0; d < picked.size(); ++d) {
    c.in_offsets[d + 1] =
        c.in_offsets[d] + static_cast<int64_t>(picked[d].size());
  }
  c.nbr_idx.resize(static_cast<size_t>(c.in_offsets.back()));
  c.in_weights.resize(static_cast<size_t>(c.in_offsets.back()));
  for (size_t d = 0; d < picked.size(); ++d) {
    int64_t o = c.in_offsets[d];
    for (EdgeId e : picked[d]) {
      c.nbr_idx[o] = local_of(g.in_neighbors()[e]);
      c.in_weights[o] = g.in_weights()[e];
      ++o;
    }
  }
  c.self_idx.resize(c.dst_vertices.size());
  for (size_t d = 0; d < c.dst_vertices.size(); ++d) {
    const VertexId v = c.dst_vertices[d];
    const auto it = std::lower_bound(c.neighbors.begin(), c.neighbors.end(), v);
    c.self_idx[d] = (it != c.neighbors.end() && *it == v)
                        ? static_cast<int32_t>(it - c.neighbors.begin())
                        : -1;
  }
  // Source-major mirror.
  c.src_offsets.assign(c.neighbors.size() + 1, 0);
  for (int64_t e = 0; e < c.num_edges(); ++e) c.src_offsets[c.nbr_idx[e] + 1]++;
  for (size_t s = 0; s < c.neighbors.size(); ++s) {
    c.src_offsets[s + 1] += c.src_offsets[s];
  }
  c.dst_idx.resize(static_cast<size_t>(c.num_edges()));
  c.src_weights.resize(static_cast<size_t>(c.num_edges()));
  c.src_edge_idx.resize(static_cast<size_t>(c.num_edges()));
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
  return c;
}

Result<std::unique_ptr<MiniBatchEngine>> MiniBatchEngine::Create(
    const Dataset* dataset, ModelConfig model_config, MiniBatchOptions options) {
  if (dataset == nullptr) {
    return Status::Invalid("MiniBatchEngine: null dataset");
  }
  if (model_config.dims.empty() ||
      model_config.dims.front() != dataset->feature_dim()) {
    return Status::Invalid("MiniBatchEngine: model input dim must match "
                           "dataset feature dim");
  }
  auto engine = std::unique_ptr<MiniBatchEngine>(new MiniBatchEngine());
  engine->ds_ = dataset;
  engine->options_ = options;
  HT_ASSIGN_OR_RETURN(engine->model_, GnnModel::Create(model_config));
  engine->adam_ = Adam(options.adam);
  for (Tensor* p : engine->model_.AllParams()) engine->adam_.Register(p);
  engine->platform_ = std::make_unique<SimPlatform>(
      options.num_devices, options.device_capacity_bytes,
      options.interconnect);
  std::vector<VertexId> all(dataset->graph.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  engine->full_chunk_ = ExtractChunk(dataset->graph, std::move(all), 0, 0);
  return engine;
}

Result<EpochStats> MiniBatchEngine::TrainEpoch() {
  const double w0 = NowSeconds();
  platform_->ResetEpoch();
  platform_->ResetPeaks();
  const int L = model_.num_layers();
  const int m = options_.num_devices;

  std::vector<VertexId> train = ds_->VerticesWithRole(SplitRole::kTrain);
  Rng rng(options_.seed * 1315423911ull + (++epoch_counter_));
  for (size_t i = train.size(); i > 1; --i) {
    std::swap(train[i - 1], train[rng.NextInt(i)]);
  }

  double loss_sum = 0.0, acc_sum = 0.0;
  int num_batches = 0;
  for (size_t begin = 0; begin < train.size();
       begin += static_cast<size_t>(options_.batch_size)) {
    const size_t end =
        std::min(train.size(), begin + static_cast<size_t>(options_.batch_size));
    std::vector<VertexId> targets(train.begin() + begin, train.begin() + end);
    const int dev = num_batches % m;
    ++num_batches;

    // ---- Layered neighbor sampling (blocks), from the top down.
    std::vector<Chunk> blocks(L);
    std::vector<VertexId> frontier = targets;
    for (int l = L - 1; l >= 0; --l) {
      blocks[l] = SampleChunk(ds_->graph, frontier, options_.fanout, &rng);
      frontier = blocks[l].neighbors;
    }

    // ---- Device memory: input features + per-layer blocks and contexts.
    int64_t working = static_cast<int64_t>(frontier.size()) *
                      model_.config().dims[0] * kF32;

    // ---- Forward with stored intermediates.
    std::vector<Tensor> hb(L + 1);
    GatherRows(ds_->features, frontier, &hb[0]);
    platform_->AddH2D(dev, hb[0].bytes());
    std::vector<std::unique_ptr<LayerCtx>> ctx(L);
    Status oom = Status::OK();
    for (int l = 0; l < L && oom.ok(); ++l) {
      Layer* layer = model_.layer(l);
      const LocalGraph lg = LocalGraph::FromChunk(blocks[l]);
      Tensor dst_h;
      HT_RETURN_IF_ERROR(layer->ForwardStore(lg, hb[l], &dst_h, &ctx[l]));
      hb[l + 1] = std::move(dst_h);
      working += hb[l + 1].bytes() + ctx[l]->bytes();
      double flops = 0, bytes = 0;
      layer->ForwardCost(lg, &flops, &bytes);
      platform_->AddGpuCompute(dev, flops, bytes);
      oom = platform_->device(dev).Allocate(0, "probe");
    }
    HT_RETURN_IF_ERROR(
        platform_->device(dev).Allocate(working, "mini-batch working set"));
    DeviceAllocation guard(&platform_->device(dev), working);

    // ---- Loss over the batch targets (they are the rows of hb[L]).
    model_.ZeroGrads();
    std::vector<VertexId> rows(targets.size());
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<int32_t> batch_labels(targets.size());
    // blocks[L-1].dst_vertices is sorted; map labels accordingly.
    for (size_t r = 0; r < targets.size(); ++r) {
      batch_labels[r] = ds_->labels[blocks[L - 1].dst_vertices[r]];
    }
    Tensor d_next(hb[L].rows(), hb[L].cols());
    LossResult lr = SoftmaxCrossEntropy(hb[L], batch_labels, rows, &d_next);
    loss_sum += lr.loss;
    acc_sum += lr.accuracy;

    // ---- Backward through the blocks.
    for (int l = L - 1; l >= 0; --l) {
      Layer* layer = model_.layer(l);
      const LocalGraph lg = LocalGraph::FromChunk(blocks[l]);
      // Layer 0's input is the feature matrix: no input gradient.
      const bool input_grad = l > 0;
      Tensor d_src = input_grad ? Tensor(lg.num_src, layer->in_dim())
                                : Tensor();
      HT_RETURN_IF_ERROR(layer->BackwardStored(lg, *ctx[l], hb[l], d_next,
                                               input_grad ? &d_src : nullptr));
      double flops = 0, bytes = 0;
      layer->BackwardCost(lg, /*cached=*/true, &flops, &bytes,
                          /*has_out_h=*/true, input_grad);
      platform_->AddGpuCompute(dev, flops, bytes);
      d_next = std::move(d_src);
    }

    std::vector<const Tensor*> grads;
    for (Tensor* g : model_.AllGrads()) grads.push_back(g);
    HT_RETURN_IF_ERROR(adam_.Step(grads));
  }
  platform_->Synchronize();

  EpochStats stats;
  stats.loss = num_batches > 0 ? loss_sum / num_batches : 0.0;
  stats.train_accuracy = num_batches > 0 ? acc_sum / num_batches : 0.0;
  stats.time = platform_->time();
  stats.bytes = platform_->bytes();
  stats.peak_device_bytes = platform_->MaxDevicePeak();
  stats.wall_seconds = NowSeconds() - w0;
  return stats;
}

Result<double> MiniBatchEngine::EvaluateAccuracy(SplitRole role) {
  const int L = model_.num_layers();
  const LocalGraph lg = LocalGraph::FromChunk(full_chunk_);
  Tensor h;
  for (int l = 0; l < L; ++l) {
    // Layer 0 reads the feature matrix in place — no copy of the largest
    // tensor in the system just to feed a read-only pass.
    const Tensor& src = l == 0 ? ds_->features : h;
    Tensor next;
    HT_RETURN_IF_ERROR(model_.layer(l)->Forward(lg, src, &next, nullptr));
    h = std::move(next);
  }
  return Accuracy(h, ds_->labels, ds_->VerticesWithRole(role));
}

}  // namespace hongtu
