#include "hongtu/gnn/gin_layer.h"

#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/spmm.h"
#include "hongtu/tensor/ops.h"

namespace hongtu {

namespace {

struct GinCtx : public LayerCtx {
  Tensor agg;     // sum aggregate (num_dst x in)
  Tensor self_h;  // destinations' own rows (num_dst x in)
  Tensor h;       // activated output; carries the ReLU mask (h > 0 iff z > 0)
  int64_t bytes() const override {
    return agg.bytes() + self_h.bytes() + h.bytes();
  }
};

void GatherSelfRows(const LocalGraph& g, const Tensor& src_h, Tensor* out) {
  kernels::GatherRows(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                      src_h.data(), src_h.cols(), out->data());
}

/// comb = agg + (1+eps) self_h.
void CombineSelf(const Tensor& agg, const Tensor& self_h, float eps,
                 Tensor* comb) {
  const float k = 1.0f + eps;
  const float* pa = agg.data();
  const float* ps = self_h.data();
  float* pc = comb->data();
  ParallelForChunked(0, comb->size(), [&](int64_t lo, int64_t hi) {
#pragma omp simd
    for (int64_t i = lo; i < hi; ++i) pc[i] = pa[i] + k * ps[i];
  });
}

/// dst_h = act(comb*W + b) with the bias + activation fused into the GEMM.
void UpdateForward(const Tensor& comb, const Tensor& w, const Tensor& b,
                   bool relu, Tensor* dst_h) {
  ops::MatmulBiasAct(comb, w, b,
                     relu ? ops::Activation::kRelu : ops::Activation::kNone,
                     /*accumulate=*/false, dst_h);
}

}  // namespace

GinLayer::GinLayer(int in_dim, int out_dim, bool relu, uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      w_(Tensor::GlorotUniform(in_dim, out_dim, seed)),
      b_(1, out_dim),
      eps_(1, 1),
      dw_(in_dim, out_dim),
      db_(1, out_dim),
      deps_(1, 1) {}

Status GinLayer::Forward(const LocalGraph& g, const Tensor& src_h,
                         Tensor* dst_h, Tensor* agg_cache) {
  // All scratch is fully overwritten before use: pooled, uninitialized, and
  // the caller's agg workspace is filled in place.
  Tensor local_agg;
  Tensor* agg = agg_cache != nullptr ? agg_cache : &local_agg;
  agg->EnsureShape(g.num_dst, in_dim_);
  GatherSum(g, src_h, agg);
  Tensor self_h = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSelfRows(g, src_h, &self_h);
  Tensor comb = Tensor::Uninitialized(g.num_dst, in_dim_);
  CombineSelf(*agg, self_h, eps_.at(0, 0), &comb);
  dst_h->EnsureShape(g.num_dst, out_dim_);
  UpdateForward(comb, w_, b_, relu_, dst_h);
  return Status::OK();
}

Status GinLayer::ForwardStore(const LocalGraph& g, const Tensor& src_h,
                              Tensor* dst_h, std::unique_ptr<LayerCtx>* ctx) {
  auto c = std::make_unique<GinCtx>();
  c->agg = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSum(g, src_h, &c->agg);
  c->self_h = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSelfRows(g, src_h, &c->self_h);
  Tensor comb = Tensor::Uninitialized(g.num_dst, in_dim_);
  CombineSelf(c->agg, c->self_h, eps_.at(0, 0), &comb);
  c->h = Tensor::Uninitialized(g.num_dst, out_dim_);
  UpdateForward(comb, w_, b_, relu_, &c->h);
  // The output IS the stored activation; hand out a view instead of a copy
  // (valid while *ctx lives — see Layer::ForwardStore).
  *dst_h = Tensor::View(c->h);
  *ctx = std::move(c);
  return Status::OK();
}

Status GinLayer::BackwardImpl(const LocalGraph& g, const Tensor& agg,
                              const Tensor& dst_h, const Tensor& d_dst,
                              Tensor* d_src, const Tensor* out_h) {
  if (dst_h.rows() != g.num_dst || dst_h.cols() != in_dim_) {
    return Status::Invalid("GinLayer backward requires destination rows");
  }
  const float eps = eps_.at(0, 0);
  // Recompute comb (needed for dW regardless of the mask source).
  Tensor comb = Tensor::Uninitialized(g.num_dst, in_dim_);
  CombineSelf(agg, dst_h, eps, &comb);

  Tensor dz = Tensor::Uninitialized(g.num_dst, out_dim_);
  if (relu_) {
    if (out_h != nullptr) {
      ops::ReluBackward(*out_h, d_dst, &dz);
    } else {
      // Recompute the activated output for the ReLU mask (h > 0 iff z > 0).
      Tensor h = Tensor::Uninitialized(g.num_dst, out_dim_);
      UpdateForward(comb, w_, b_, /*relu=*/true, &h);
      ops::ReluBackward(h, d_dst, &dz);
    }
  } else {
    HT_RETURN_IF_ERROR(dz.CopyFrom(d_dst));
  }
  ops::MatmulTransAAccum(comb, dz, &dw_);
  ops::ColumnSumAccum(dz, &db_);
  // dcomb = dz * W^T; the eps gradient needs it even without d_src.
  Tensor dcomb = Tensor::Uninitialized(g.num_dst, in_dim_);
  ops::MatmulTransB(dz, w_, &dcomb);
  // eps gradient: sum(dcomb . dst_h).
  deps_.at(0, 0) += static_cast<float>(ops::Dot(dcomb, dst_h));
  if (d_src == nullptr) return Status::OK();
  // Neighbor path (unweighted sum) and self path.
  ScatterSumAccum(g, dcomb, d_src);
  kernels::ScatterRowsAccum(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                            dcomb.data(), 1.0f + eps, in_dim_,
                            d_src->data());
  return Status::OK();
}

Status GinLayer::BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                const Tensor& src_h, const Tensor& d_dst,
                                Tensor* d_src) {
  (void)src_h;
  const auto& c = static_cast<const GinCtx&>(ctx);
  return BackwardImpl(g, c.agg, c.self_h, d_dst, d_src, &c.h);
}

Status GinLayer::BackwardCached(const LocalGraph& g, const Tensor& agg,
                                const Tensor& dst_h, const Tensor& d_dst,
                                Tensor* d_src, const Tensor* out_h) {
  return BackwardImpl(g, agg, dst_h, d_dst, d_src, out_h);
}

void GinLayer::ForwardCost(const LocalGraph& g, double* flops,
                           double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  *flops = 2.0 * e * in_dim_ + 2.0 * nd * in_dim_ * out_dim_ +
           2.0 * nd * in_dim_;
  *bytes = (e + 2.0 * nd) * in_dim_ * 4.0 + nd * out_dim_ * 8.0;
}

void GinLayer::BackwardCost(const LocalGraph& g, bool cached, double* flops,
                            double* bytes, bool has_out_h,
                            bool has_d_src) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  const double ns = static_cast<double>(g.num_src);
  // dW and dcomb (the eps gradient reads it), the combine and the eps dot,
  // plus the UPDATE re-forward: the recompute path's ForwardStore always
  // runs it, the cached path only to recompute the ReLU mask.
  *flops = 4.0 * nd * in_dim_ * out_dim_ + 4.0 * nd * in_dim_;
  *bytes = 2.0 * nd * in_dim_ * 4.0 + nd * out_dim_ * 12.0;
  if (!cached || (relu_ && !has_out_h)) {
    *flops += 2.0 * nd * in_dim_ * out_dim_;
  }
  if (has_d_src) {
    // The sum scatter and the (1 + eps) self scatter.
    *flops += 2.0 * e * in_dim_;
    *bytes += (e + ns) * in_dim_ * 4.0;
  }
  if (!cached) {
    *flops += 2.0 * e * in_dim_;
    *bytes += e * in_dim_ * 4.0;
  }
}

}  // namespace hongtu
