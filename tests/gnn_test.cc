// Tests for the GNN layers: finite-difference gradient checks for all four
// models, equivalence of the three backward modes, and loss functions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>

#include "hongtu/gnn/gat_layer.h"
#include "hongtu/gnn/gcn_layer.h"
#include "hongtu/gnn/ggnn_layer.h"
#include "hongtu/gnn/gin_layer.h"
#include "hongtu/gnn/loss.h"
#include "hongtu/gnn/model.h"
#include "hongtu/gnn/sage_layer.h"
#include "hongtu/graph/builder.h"
#include "hongtu/partition/two_level.h"

namespace hongtu {
namespace {

/// A small deterministic random graph with self-loops.
Graph SmallGraph(int64_t n, int64_t extra_edges, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (int64_t e = 0; e < extra_edges; ++e) {
    const VertexId u = static_cast<VertexId>(rng.NextInt(n));
    const VertexId v = static_cast<VertexId>(rng.NextInt(n));
    if (u != v) edges.emplace_back(u, v);
  }
  GraphBuilder b;
  auto r = b.Build(n, std::move(edges));
  EXPECT_TRUE(r.ok());
  return r.MoveValueUnsafe();
}

Chunk FullChunk(const Graph& g) {
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  return ExtractChunk(g, std::move(all), 0, 0);
}

/// Scalar objective: sum of squares of forward output (well-behaved and
/// sensitive to every output entry). Returns 0.5*||dst_h||^2.
double Objective(Layer* layer, const LocalGraph& lg, const Tensor& src_h) {
  Tensor dst_h;
  EXPECT_TRUE(layer->Forward(lg, src_h, &dst_h, nullptr).ok());
  double s = 0;
  for (int64_t i = 0; i < dst_h.size(); ++i) {
    s += 0.5 * dst_h.data()[i] * dst_h.data()[i];
  }
  return s;
}

/// Checks analytic input & parameter gradients against central differences.
void CheckGradients(Layer* layer, const Graph& g, double tol) {
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  Tensor src_h = Tensor::Gaussian(lg.num_src, layer->in_dim(), 0.7f, 321);

  // Analytic gradients with d_dst = dst_h (gradient of 0.5*||out||^2).
  Tensor dst_h;
  std::unique_ptr<LayerCtx> ctx;
  ASSERT_TRUE(layer->ForwardStore(lg, src_h, &dst_h, &ctx).ok());
  layer->ZeroGrads();
  Tensor d_src(lg.num_src, layer->in_dim());
  ASSERT_TRUE(layer->BackwardStored(lg, *ctx, src_h, dst_h, &d_src).ok());

  const double eps = 1e-3;
  // Input gradient at a handful of probe positions.
  Rng rng(99);
  for (int probe = 0; probe < 12; ++probe) {
    const int64_t i = static_cast<int64_t>(rng.NextInt(src_h.size()));
    const float keep = src_h.data()[i];
    src_h.data()[i] = keep + static_cast<float>(eps);
    const double fp = Objective(layer, lg, src_h);
    src_h.data()[i] = keep - static_cast<float>(eps);
    const double fm = Objective(layer, lg, src_h);
    src_h.data()[i] = keep;
    const double numeric = (fp - fm) / (2 * eps);
    EXPECT_NEAR(d_src.data()[i], numeric,
                tol * std::max(1.0, std::fabs(numeric)))
        << layer->name() << " input grad probe " << probe;
  }
  // Parameter gradients.
  auto params = layer->params();
  auto grads = layer->grads();
  for (size_t p = 0; p < params.size(); ++p) {
    for (int probe = 0; probe < 6; ++probe) {
      const int64_t i = static_cast<int64_t>(rng.NextInt(params[p]->size()));
      const float keep = params[p]->data()[i];
      params[p]->data()[i] = keep + static_cast<float>(eps);
      const double fp = Objective(layer, lg, src_h);
      params[p]->data()[i] = keep - static_cast<float>(eps);
      const double fm = Objective(layer, lg, src_h);
      params[p]->data()[i] = keep;
      const double numeric = (fp - fm) / (2 * eps);
      EXPECT_NEAR(grads[p]->data()[i], numeric,
                  tol * std::max(1.0, std::fabs(numeric)))
          << layer->name() << " param " << p << " probe " << probe;
    }
  }
}

TEST(GradCheck, Gcn) {
  Graph g = SmallGraph(24, 100, 1);
  GcnLayer layer(6, 5, /*relu=*/true, 11);
  CheckGradients(&layer, g, 0.02);
}

TEST(GradCheck, GcnNoRelu) {
  Graph g = SmallGraph(24, 100, 2);
  GcnLayer layer(6, 5, /*relu=*/false, 12);
  CheckGradients(&layer, g, 0.02);
}

TEST(GradCheck, Sage) {
  Graph g = SmallGraph(24, 100, 3);
  SageLayer layer(6, 5, /*relu=*/true, 13);
  CheckGradients(&layer, g, 0.02);
}

TEST(GradCheck, Gin) {
  Graph g = SmallGraph(24, 100, 4);
  GinLayer layer(6, 5, /*relu=*/true, 14);
  CheckGradients(&layer, g, 0.02);
}

TEST(GradCheck, Ggnn) {
  Graph g = SmallGraph(20, 80, 7);
  GgnnLayer layer(6, 5, /*relu_unused=*/false, 17);
  CheckGradients(&layer, g, 0.03);
}

TEST(GradCheck, Gat) {
  Graph g = SmallGraph(20, 80, 5);
  GatLayer layer(6, 5, /*relu=*/true, 15);
  CheckGradients(&layer, g, 0.03);
}

TEST(GradCheck, GatNoRelu) {
  Graph g = SmallGraph(20, 80, 6);
  GatLayer layer(5, 4, /*relu=*/false, 16);
  CheckGradients(&layer, g, 0.03);
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

/// Parameter gradients after one backward call from zeroed gradients.
std::vector<Tensor> GradsAfter(Layer* layer,
                               const std::function<Status()>& backward) {
  layer->ZeroGrads();
  EXPECT_TRUE(backward().ok()) << layer->name();
  std::vector<Tensor> out;
  for (Tensor* t : layer->grads()) out.push_back(t->Clone());
  return out;
}

void ExpectSameGrads(const std::vector<Tensor>& a, const std::vector<Tensor>& b,
                     const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t p = 0; p < a.size(); ++p) {
    EXPECT_TRUE(BitwiseEqual(a[p], b[p])) << what << " param " << p;
  }
}

/// The cached backward (Fig. 4c) must produce identical gradients to the
/// stored backward (Fig. 4a) — the paper's accuracy-preservation claim. Its
/// two forms, re-running the UPDATE for the activation mask and reading the
/// mask from the activated output `out_h`, agree with each other and with
/// the stored backward bit for bit.
template <typename LayerT>
void CheckCachedEqualsStored(int in_dim, int out_dim, uint64_t seed,
                             bool relu) {
  Graph g = SmallGraph(32, 150, seed);
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  LayerT layer(in_dim, out_dim, relu, seed + 7);
  ASSERT_TRUE(layer.cacheable());
  const std::string what =
      std::string(layer.name()) + (relu ? " relu" : " linear");

  Tensor src_h = Tensor::Gaussian(lg.num_src, in_dim, 0.5f, seed + 9);
  Tensor d_dst = Tensor::Gaussian(lg.num_dst, out_dim, 0.5f, seed + 10);

  // Stored path.
  Tensor dst_h;
  std::unique_ptr<LayerCtx> ctx;
  ASSERT_TRUE(layer.ForwardStore(lg, src_h, &dst_h, &ctx).ok());
  Tensor d_src_stored(lg.num_src, in_dim);
  const auto grads_stored = GradsAfter(&layer, [&] {
    return layer.BackwardStored(lg, *ctx, src_h, d_dst, &d_src_stored);
  });

  // Cached path: forward with aggregate capture, then BackwardCached. The
  // forward's output is the `out_h` the engine reads back from the host.
  Tensor out_h, agg;
  ASSERT_TRUE(layer.Forward(lg, src_h, &out_h, &agg).ok());
  EXPECT_LT(Tensor::MaxAbsDiff(dst_h, out_h), 1e-6);
  // dst rows from the "host": with the identity chunk they're src_h rows.
  Tensor d_src_cached(lg.num_src, in_dim), d_src_out(lg.num_src, in_dim);
  const auto grads_cached = GradsAfter(&layer, [&] {
    return layer.BackwardCached(lg, agg, src_h, d_dst, &d_src_cached,
                                /*out_h=*/nullptr);
  });
  const auto grads_out = GradsAfter(&layer, [&] {
    return layer.BackwardCached(lg, agg, src_h, d_dst, &d_src_out, &out_h);
  });

  EXPECT_TRUE(BitwiseEqual(d_src_stored, d_src_cached)) << what;
  EXPECT_TRUE(BitwiseEqual(d_src_stored, d_src_out)) << what;
  ExpectSameGrads(grads_stored, grads_cached, what + " cached");
  ExpectSameGrads(grads_stored, grads_out, what + " cached out_h");
}

TEST(CachedBackward, GcnMatchesStored) {
  CheckCachedEqualsStored<GcnLayer>(6, 4, 21, /*relu=*/true);
  CheckCachedEqualsStored<GcnLayer>(6, 4, 21, /*relu=*/false);
}
TEST(CachedBackward, SageMatchesStored) {
  CheckCachedEqualsStored<SageLayer>(6, 4, 22, /*relu=*/true);
  CheckCachedEqualsStored<SageLayer>(6, 4, 22, /*relu=*/false);
}
TEST(CachedBackward, GinMatchesStored) {
  CheckCachedEqualsStored<GinLayer>(6, 4, 23, /*relu=*/true);
  CheckCachedEqualsStored<GinLayer>(6, 4, 23, /*relu=*/false);
}
TEST(CachedBackward, GgnnMatchesStored) {
  CheckCachedEqualsStored<GgnnLayer>(6, 4, 24, /*relu=*/false);
}

TEST(CachedBackward, ReadsOutputOnlyForRelu) {
  EXPECT_TRUE(GcnLayer(6, 4, true, 1).backward_reads_output());
  EXPECT_TRUE(SageLayer(6, 4, true, 1).backward_reads_output());
  EXPECT_TRUE(GinLayer(6, 4, true, 1).backward_reads_output());
  EXPECT_FALSE(GcnLayer(6, 4, false, 1).backward_reads_output());
  EXPECT_FALSE(SageLayer(6, 4, false, 1).backward_reads_output());
  EXPECT_FALSE(GinLayer(6, 4, false, 1).backward_reads_output());
  EXPECT_FALSE(GgnnLayer(6, 4, false, 1).backward_reads_output());
  EXPECT_FALSE(GatLayer(6, 4, true, 1).backward_reads_output());
}

TEST(CachedBackward, GatReportsNotImplemented) {
  Graph g = SmallGraph(16, 60, 30);
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  GatLayer layer(4, 3, true, 31);
  EXPECT_FALSE(layer.cacheable());
  Tensor agg, dst_h, d_dst(lg.num_dst, 3), d_src(lg.num_src, 4);
  EXPECT_EQ(layer.BackwardCached(lg, agg, dst_h, d_dst, &d_src).code(),
            StatusCode::kNotImplemented);
}

TEST(BackwardRecompute, MatchesStoredForAllKinds) {
  Graph g = SmallGraph(28, 120, 40);
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<GcnLayer>(5, 4, true, 41));
  layers.push_back(std::make_unique<SageLayer>(5, 4, true, 42));
  layers.push_back(std::make_unique<GinLayer>(5, 4, true, 43));
  layers.push_back(std::make_unique<GatLayer>(5, 4, true, 44));
  layers.push_back(std::make_unique<GgnnLayer>(5, 4, false, 45));
  for (auto& layer : layers) {
    Tensor src_h = Tensor::Gaussian(lg.num_src, 5, 0.5f, 45);
    Tensor d_dst = Tensor::Gaussian(lg.num_dst, 4, 0.5f, 46);
    Tensor dst_h;
    std::unique_ptr<LayerCtx> ctx;
    ASSERT_TRUE(layer->ForwardStore(lg, src_h, &dst_h, &ctx).ok());
    layer->ZeroGrads();
    Tensor a(lg.num_src, 5);
    ASSERT_TRUE(layer->BackwardStored(lg, *ctx, src_h, d_dst, &a).ok());
    std::vector<Tensor> ga;
    for (Tensor* t : layer->grads()) ga.push_back(t->Clone());
    layer->ZeroGrads();
    Tensor b(lg.num_src, 5);
    ASSERT_TRUE(layer->BackwardRecompute(lg, src_h, d_dst, &b).ok());
    EXPECT_LT(Tensor::MaxAbsDiff(a, b), 1e-6) << layer->name();
    auto gb = layer->grads();
    for (size_t p = 0; p < gb.size(); ++p) {
      EXPECT_LT(Tensor::MaxAbsDiff(ga[p], *gb[p]), 1e-6) << layer->name();
    }
  }
}

TEST(NullInputGradient, LeavesParamGradsBitwiseEqual) {
  // A null d_src skips only the input-gradient products: every backward
  // mode must leave the parameter gradients exactly as the full call does.
  Graph g = SmallGraph(40, 200, 70);
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<GcnLayer>(6, 5, true, 71));
  layers.push_back(std::make_unique<SageLayer>(6, 5, true, 72));
  layers.push_back(std::make_unique<GinLayer>(6, 5, true, 73));
  layers.push_back(std::make_unique<GatLayer>(6, 5, true, 74));
  layers.push_back(std::make_unique<GgnnLayer>(6, 5, false, 75));
  for (auto& layer : layers) {
    Layer* l = layer.get();
    const Tensor src_h = Tensor::Gaussian(lg.num_src, 6, 0.5f, 76);
    const Tensor d_dst = Tensor::Gaussian(lg.num_dst, 5, 0.5f, 77);
    Tensor out_h, agg;
    ASSERT_TRUE(l->Forward(lg, src_h, &out_h, &agg).ok());
    Tensor stored_h;
    std::unique_ptr<LayerCtx> ctx;
    ASSERT_TRUE(l->ForwardStore(lg, src_h, &stored_h, &ctx).ok());
    Tensor d_src(lg.num_src, 6);
    const std::string name = l->name();
    ExpectSameGrads(
        GradsAfter(l, [&] {
          return l->BackwardStored(lg, *ctx, src_h, d_dst, nullptr);
        }),
        GradsAfter(l, [&] {
          d_src.Zero();
          return l->BackwardStored(lg, *ctx, src_h, d_dst, &d_src);
        }),
        name + " stored");
    ExpectSameGrads(
        GradsAfter(l, [&] {
          return l->BackwardRecompute(lg, src_h, d_dst, nullptr);
        }),
        GradsAfter(l, [&] {
          d_src.Zero();
          return l->BackwardRecompute(lg, src_h, d_dst, &d_src);
        }),
        name + " recompute");
    if (!l->cacheable()) continue;
    for (const Tensor* oh : {static_cast<const Tensor*>(nullptr),
                             static_cast<const Tensor*>(&out_h)}) {
      ExpectSameGrads(
          GradsAfter(l, [&] {
            return l->BackwardCached(lg, agg, src_h, d_dst, nullptr, oh);
          }),
          GradsAfter(l, [&] {
            d_src.Zero();
            return l->BackwardCached(lg, agg, src_h, d_dst, &d_src, oh);
          }),
          name + (oh != nullptr ? " cached out_h" : " cached"));
    }
  }
}

TEST(Gat, AttentionWeightsFormDistribution) {
  Graph g = SmallGraph(16, 60, 50);
  const Chunk chunk = FullChunk(g);
  const LocalGraph lg = LocalGraph::FromChunk(chunk);
  GatLayer layer(4, 3, true, 51);
  Tensor src_h = Tensor::Gaussian(lg.num_src, 4, 1.0f, 52);
  // Attention weights are internal; verify through homogeneity: if all
  // neighbors have identical representations, the output equals W h (alpha
  // sums to 1 regardless of the attention logits).
  Tensor uniform(lg.num_src, 4);
  for (int64_t s = 0; s < lg.num_src; ++s) {
    for (int64_t c = 0; c < 4; ++c) uniform.at(s, c) = 0.3f * (c + 1);
  }
  Tensor out;
  ASSERT_TRUE(layer.Forward(lg, uniform, &out, nullptr).ok());
  // Expected: relu(W^T x) identical for every destination.
  for (int64_t d = 1; d < lg.num_dst; ++d) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(out.at(d, c), out.at(0, c), 1e-4);
    }
  }
}

TEST(Model, FactoryBuildsAllKinds) {
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGin,
                       GnnKind::kGat, GnnKind::kGgnn}) {
    ModelConfig cfg = ModelConfig::Make(kind, 16, 8, 4, 3, 77);
    auto r = GnnModel::Create(cfg);
    ASSERT_TRUE(r.ok());
    GnnModel& m = r.ValueOrDie();
    EXPECT_EQ(m.num_layers(), 3);
    EXPECT_EQ(m.layer(0)->in_dim(), 16);
    EXPECT_EQ(m.layer(2)->out_dim(), 4);
    EXPECT_GT(m.ParamBytes(), 0);
    EXPECT_FALSE(m.AllParams().empty());
    EXPECT_EQ(m.AllParams().size(), m.AllGrads().size());
  }
}

TEST(Model, RejectsBadDims) {
  ModelConfig cfg;
  cfg.dims = {16};
  EXPECT_TRUE(GnnModel::Create(cfg).status().IsInvalid());
  cfg.dims = {16, 0};
  EXPECT_TRUE(GnnModel::Create(cfg).status().IsInvalid());
}

TEST(Model, SameSeedSameInit) {
  ModelConfig cfg = ModelConfig::Make(GnnKind::kGcn, 8, 4, 2, 2, 5);
  auto a = GnnModel::Create(cfg);
  auto b = GnnModel::Create(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  auto pa = a.ValueOrDie().AllParams();
  auto pb = b.ValueOrDie().AllParams();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(Tensor::MaxAbsDiff(*pa[i], *pb[i]), 0.0);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  const int64_t n = 6, c = 4;
  Tensor logits = Tensor::Gaussian(n, c, 1.0f, 60);
  std::vector<int32_t> labels = {0, 1, 2, 3, 1, 2};
  std::vector<VertexId> verts = {0, 2, 4};
  Tensor d(n, c);
  LossResult lr = SoftmaxCrossEntropy(logits, labels, verts, &d);
  EXPECT_GT(lr.loss, 0);
  const double eps = 1e-3;
  for (int64_t i = 0; i < logits.size(); ++i) {
    const float keep = logits.data()[i];
    logits.data()[i] = keep + static_cast<float>(eps);
    const double fp = SoftmaxCrossEntropy(logits, labels, verts, nullptr).loss;
    logits.data()[i] = keep - static_cast<float>(eps);
    const double fm = SoftmaxCrossEntropy(logits, labels, verts, nullptr).loss;
    logits.data()[i] = keep;
    EXPECT_NEAR(d.data()[i], (fp - fm) / (2 * eps), 2e-3);
  }
}

TEST(Loss, UnlabeledRowsGetZeroGradient) {
  Tensor logits = Tensor::Gaussian(4, 3, 1.0f, 61);
  std::vector<int32_t> labels = {0, 1, 2, 0};
  Tensor d(4, 3);
  SoftmaxCrossEntropy(logits, labels, {1, 3}, &d);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(d.at(0, c), 0.0f);
    EXPECT_EQ(d.at(2, c), 0.0f);
  }
}

TEST(Loss, EmptyVertexSet) {
  Tensor logits(2, 2);
  std::vector<int32_t> labels = {0, 1};
  LossResult lr = SoftmaxCrossEntropy(logits, labels, {}, nullptr);
  EXPECT_EQ(lr.loss, 0.0);
  EXPECT_EQ(Accuracy(logits, labels, {}), 0.0);
}

TEST(Loss, PerfectPredictionAccuracy) {
  Tensor logits(3, 2);
  logits.at(0, 0) = 5;
  logits.at(1, 1) = 5;
  logits.at(2, 0) = 5;
  std::vector<int32_t> labels = {0, 1, 0};
  EXPECT_DOUBLE_EQ(Accuracy(logits, labels, {0, 1, 2}), 1.0);
}

}  // namespace
}  // namespace hongtu
