#include "hongtu/gnn/gcn_layer.h"

#include "hongtu/tensor/ops.h"

namespace hongtu {

namespace {

/// dst_h = act(agg * W + b) in one fused GEMM pass (bias + activation are
/// the GEMM epilogue; no separate sweep over the output).
void UpdateForward(const Tensor& agg, const Tensor& w, const Tensor& b,
                   bool relu, Tensor* dst_h) {
  ops::MatmulBiasAct(agg, w, b,
                     relu ? ops::Activation::kRelu : ops::Activation::kNone,
                     /*accumulate=*/false, dst_h);
}

struct GcnCtx : public LayerCtx {
  Tensor agg;  // AGGREGATE output (num_dst x in_dim)
  Tensor h;    // activated output; h > 0 iff the pre-activation z > 0, so
               // it carries the ReLU mask the backward pass needs
  int64_t bytes() const override { return agg.bytes() + h.bytes(); }
};

}  // namespace

GcnLayer::GcnLayer(int in_dim, int out_dim, bool relu, uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      w_(Tensor::GlorotUniform(in_dim, out_dim, seed)),
      b_(1, out_dim),
      dw_(in_dim, out_dim),
      db_(1, out_dim) {}

Status GcnLayer::Forward(const LocalGraph& g, const Tensor& src_h,
                         Tensor* dst_h, Tensor* agg_cache) {
  // Scratch is fully overwritten (GatherWeighted then the fused GEMM), so
  // pooled uninitialized buffers avoid the zero fill; the caller's
  // `agg_cache` workspace is written in place instead of being swapped out.
  Tensor local_agg;
  Tensor* agg = agg_cache != nullptr ? agg_cache : &local_agg;
  agg->EnsureShape(g.num_dst, in_dim_);
  GatherWeighted(g, src_h, agg);
  dst_h->EnsureShape(g.num_dst, out_dim_);
  UpdateForward(*agg, w_, b_, relu_, dst_h);
  return Status::OK();
}

Status GcnLayer::ForwardStore(const LocalGraph& g, const Tensor& src_h,
                              Tensor* dst_h, std::unique_ptr<LayerCtx>* ctx) {
  auto c = std::make_unique<GcnCtx>();
  c->agg = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherWeighted(g, src_h, &c->agg);
  c->h = Tensor::Uninitialized(g.num_dst, out_dim_);
  UpdateForward(c->agg, w_, b_, relu_, &c->h);
  // The output IS the stored activation; hand out a view instead of a copy
  // (valid while *ctx lives — see Layer::ForwardStore).
  *dst_h = Tensor::View(c->h);
  *ctx = std::move(c);
  return Status::OK();
}

Status GcnLayer::BackwardImpl(const LocalGraph& g, const Tensor& agg,
                              const Tensor& d_dst, Tensor* d_src,
                              const Tensor* out_h) {
  Tensor dz = Tensor::Uninitialized(g.num_dst, out_dim_);
  if (relu_) {
    if (out_h != nullptr) {
      ops::ReluBackward(*out_h, d_dst, &dz);
    } else {
      // Recompute the activated output for the ReLU mask (identical to the
      // forward value, §4.2; h > 0 iff the pre-activation was > 0).
      Tensor h = Tensor::Uninitialized(g.num_dst, out_dim_);
      UpdateForward(agg, w_, b_, /*relu=*/true, &h);
      ops::ReluBackward(h, d_dst, &dz);
    }
  } else {
    HT_RETURN_IF_ERROR(dz.CopyFrom(d_dst));
  }
  // Param grads.
  ops::MatmulTransAAccum(agg, dz, &dw_);
  ops::ColumnSumAccum(dz, &db_);
  if (d_src == nullptr) return Status::OK();
  // d_agg = dz * W^T, then scatter along edges to sources.
  Tensor dagg = Tensor::Uninitialized(g.num_dst, in_dim_);
  ops::MatmulTransB(dz, w_, &dagg);
  ScatterWeightedAccum(g, dagg, d_src);
  return Status::OK();
}

Status GcnLayer::BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                const Tensor& src_h, const Tensor& d_dst,
                                Tensor* d_src) {
  (void)src_h;
  const auto& c = static_cast<const GcnCtx&>(ctx);
  return BackwardImpl(g, c.agg, d_dst, d_src, &c.h);
}

Status GcnLayer::BackwardCached(const LocalGraph& g, const Tensor& agg,
                                const Tensor& dst_h, const Tensor& d_dst,
                                Tensor* d_src, const Tensor* out_h) {
  (void)dst_h;
  return BackwardImpl(g, agg, d_dst, d_src, out_h);
}

void GcnLayer::ForwardCost(const LocalGraph& g, double* flops,
                           double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  *flops = 2.0 * e * in_dim_ + 2.0 * nd * in_dim_ * out_dim_;
  *bytes = (e + nd) * in_dim_ * 4.0 + nd * out_dim_ * 8.0;
}

void GcnLayer::BackwardCost(const LocalGraph& g, bool cached, double* flops,
                            double* bytes, bool has_out_h,
                            bool has_d_src) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  const double ns = static_cast<double>(g.num_src);
  // dW, plus the UPDATE re-forward: the recompute path's ForwardStore
  // always runs it, the cached path only to recompute the ReLU mask.
  *flops = 2.0 * nd * in_dim_ * out_dim_;
  *bytes = nd * in_dim_ * 4.0 + nd * out_dim_ * 12.0;
  if (!cached || (relu_ && !has_out_h)) {
    *flops += 2.0 * nd * in_dim_ * out_dim_;
  }
  if (has_d_src) {
    // dagg = dz W^T, scattered along the edges to the sources.
    *flops += 2.0 * nd * in_dim_ * out_dim_ + 2.0 * e * in_dim_;
    *bytes += (e + ns) * in_dim_ * 4.0;
  }
  if (!cached) {
    // Full recomputation repeats the AGGREGATE as well.
    *flops += 2.0 * e * in_dim_;
    *bytes += e * in_dim_ * 4.0;
  }
}

}  // namespace hongtu
