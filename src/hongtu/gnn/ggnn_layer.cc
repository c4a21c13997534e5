#include "hongtu/gnn/ggnn_layer.h"

#include <cmath>

#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/spmm.h"
#include "hongtu/tensor/ops.h"

namespace hongtu {

namespace {

void GatherSelfRows(const LocalGraph& g, const Tensor& src_h, Tensor* out) {
  kernels::GatherRows(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                      src_h.data(), src_h.cols(), out->data());
}

/// gate = act(m*U + x*V + b): the second GEMM accumulates onto the first
/// with the bias + activation fused into its epilogue.
void GateForward(const Tensor& m, const Tensor& u, const Tensor& x,
                 const Tensor& v, const Tensor& b, bool tanh_act,
                 Tensor* gate) {
  ops::Matmul(m, u, gate);
  ops::MatmulBiasAct(
      x, v, b, tanh_act ? ops::Activation::kTanh : ops::Activation::kSigmoid,
      /*accumulate=*/true, gate);
}

struct GgnnCtx : public LayerCtx {
  Tensor agg;     // summed neighbor input (num_dst x in)
  Tensor self_h;  // destinations' own rows (num_dst x in)
  int64_t bytes() const override { return agg.bytes() + self_h.bytes(); }
};

}  // namespace

GgnnLayer::GgnnLayer(int in_dim, int out_dim, bool /*relu_unused*/,
                     uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      ws_(Tensor::GlorotUniform(in_dim, out_dim, seed)),
      wm_(Tensor::GlorotUniform(in_dim, out_dim, seed + 1)),
      uz_(Tensor::GlorotUniform(out_dim, out_dim, seed + 2)),
      vz_(Tensor::GlorotUniform(out_dim, out_dim, seed + 3)),
      ur_(Tensor::GlorotUniform(out_dim, out_dim, seed + 4)),
      vr_(Tensor::GlorotUniform(out_dim, out_dim, seed + 5)),
      uh_(Tensor::GlorotUniform(out_dim, out_dim, seed + 6)),
      vh_(Tensor::GlorotUniform(out_dim, out_dim, seed + 7)),
      bz_(1, out_dim),
      br_(1, out_dim),
      bh_(1, out_dim),
      dws_(in_dim, out_dim),
      dwm_(in_dim, out_dim),
      duz_(out_dim, out_dim),
      dvz_(out_dim, out_dim),
      dur_(out_dim, out_dim),
      dvr_(out_dim, out_dim),
      duh_(out_dim, out_dim),
      dvh_(out_dim, out_dim),
      dbz_(1, out_dim),
      dbr_(1, out_dim),
      dbh_(1, out_dim) {}

Status GgnnLayer::Forward(const LocalGraph& g, const Tensor& src_h,
                          Tensor* dst_h, Tensor* agg_cache) {
  // All scratch below is fully overwritten (GEMMs and elementwise stores),
  // so pooled uninitialized buffers skip the zero fill; the caller's agg
  // workspace is filled in place.
  Tensor local_agg;
  Tensor* agg = agg_cache != nullptr ? agg_cache : &local_agg;
  agg->EnsureShape(g.num_dst, in_dim_);
  GatherSum(g, src_h, agg);
  Tensor self_h = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSelfRows(g, src_h, &self_h);

  Tensor s = Tensor::Uninitialized(g.num_dst, out_dim_);
  Tensor m = Tensor::Uninitialized(g.num_dst, out_dim_);
  ops::Matmul(self_h, ws_, &s);
  ops::Matmul(*agg, wm_, &m);
  Tensor z = Tensor::Uninitialized(g.num_dst, out_dim_);
  Tensor r = Tensor::Uninitialized(g.num_dst, out_dim_);
  GateForward(m, uz_, s, vz_, bz_, /*tanh_act=*/false, &z);
  GateForward(m, ur_, s, vr_, br_, /*tanh_act=*/false, &r);
  Tensor rs = Tensor::Uninitialized(g.num_dst, out_dim_);
  for (int64_t i = 0; i < rs.size(); ++i) {
    rs.data()[i] = r.data()[i] * s.data()[i];
  }
  Tensor c = Tensor::Uninitialized(g.num_dst, out_dim_);
  GateForward(m, uh_, rs, vh_, bh_, /*tanh_act=*/true, &c);

  dst_h->EnsureShape(g.num_dst, out_dim_);
  for (int64_t i = 0; i < dst_h->size(); ++i) {
    dst_h->data()[i] =
        (1.0f - z.data()[i]) * s.data()[i] + z.data()[i] * c.data()[i];
  }
  return Status::OK();
}

Status GgnnLayer::ForwardStore(const LocalGraph& g, const Tensor& src_h,
                               Tensor* dst_h, std::unique_ptr<LayerCtx>* ctx) {
  auto c = std::make_unique<GgnnCtx>();
  HT_RETURN_IF_ERROR(Forward(g, src_h, dst_h, &c->agg));
  c->self_h = Tensor::Uninitialized(g.num_dst, in_dim_);
  GatherSelfRows(g, src_h, &c->self_h);
  *ctx = std::move(c);
  return Status::OK();
}

Status GgnnLayer::BackwardImpl(const LocalGraph& g, const Tensor& agg,
                               const Tensor& dst_h, const Tensor& d_dst,
                               Tensor* d_src) {
  if (dst_h.rows() != g.num_dst || dst_h.cols() != in_dim_) {
    return Status::Invalid("GgnnLayer backward requires destination rows");
  }
  const int64_t nd = g.num_dst;
  // Recompute the forward intermediates (identical values, §4.2). Every
  // buffer is fully overwritten before it is read, so the whole backward
  // scratch set is pooled and uninitialized.
  Tensor s = Tensor::Uninitialized(nd, out_dim_);
  Tensor m = Tensor::Uninitialized(nd, out_dim_);
  ops::Matmul(dst_h, ws_, &s);
  ops::Matmul(agg, wm_, &m);
  Tensor z = Tensor::Uninitialized(nd, out_dim_);
  Tensor r = Tensor::Uninitialized(nd, out_dim_);
  GateForward(m, uz_, s, vz_, bz_, false, &z);
  GateForward(m, ur_, s, vr_, br_, false, &r);
  Tensor rs = Tensor::Uninitialized(nd, out_dim_);
  for (int64_t i = 0; i < rs.size(); ++i) {
    rs.data()[i] = r.data()[i] * s.data()[i];
  }
  Tensor c = Tensor::Uninitialized(nd, out_dim_);
  GateForward(m, uh_, rs, vh_, bh_, true, &c);

  // h' = (1-z).s + z.c
  Tensor dz = Tensor::Uninitialized(nd, out_dim_);
  Tensor dc = Tensor::Uninitialized(nd, out_dim_);
  Tensor ds = Tensor::Uninitialized(nd, out_dim_);
  for (int64_t i = 0; i < dz.size(); ++i) {
    const float dd = d_dst.data()[i];
    dz.data()[i] = dd * (c.data()[i] - s.data()[i]);
    dc.data()[i] = dd * z.data()[i];
    ds.data()[i] = dd * (1.0f - z.data()[i]);
  }
  // c = tanh(pre_c): dpre_c = dc * (1 - c^2).
  Tensor dpre_c = Tensor::Uninitialized(nd, out_dim_);
  for (int64_t i = 0; i < dc.size(); ++i) {
    dpre_c.data()[i] = dc.data()[i] * (1.0f - c.data()[i] * c.data()[i]);
  }
  ops::MatmulTransAAccum(m, dpre_c, &duh_);
  ops::MatmulTransAAccum(rs, dpre_c, &dvh_);
  ops::ColumnSumAccum(dpre_c, &dbh_);
  Tensor dm = Tensor::Uninitialized(nd, out_dim_);
  Tensor drs = Tensor::Uninitialized(nd, out_dim_);
  ops::MatmulTransB(dpre_c, uh_, &dm);
  ops::MatmulTransB(dpre_c, vh_, &drs);
  Tensor dr = Tensor::Uninitialized(nd, out_dim_);
  for (int64_t i = 0; i < drs.size(); ++i) {
    dr.data()[i] = drs.data()[i] * s.data()[i];
    ds.data()[i] += drs.data()[i] * r.data()[i];
  }
  // r = sigmoid(pre_r): dpre_r = dr * r * (1-r).
  Tensor dpre_r = Tensor::Uninitialized(nd, out_dim_);
  for (int64_t i = 0; i < dr.size(); ++i) {
    dpre_r.data()[i] = dr.data()[i] * r.data()[i] * (1.0f - r.data()[i]);
  }
  ops::MatmulTransAAccum(m, dpre_r, &dur_);
  ops::MatmulTransAAccum(s, dpre_r, &dvr_);
  ops::ColumnSumAccum(dpre_r, &dbr_);
  {
    Tensor t = Tensor::Uninitialized(nd, out_dim_);
    ops::MatmulTransB(dpre_r, ur_, &t);
    ops::AddInPlace(t, &dm);
    ops::MatmulTransB(dpre_r, vr_, &t);
    ops::AddInPlace(t, &ds);
  }
  // z = sigmoid(pre_z).
  Tensor dpre_z = Tensor::Uninitialized(nd, out_dim_);
  for (int64_t i = 0; i < dz.size(); ++i) {
    dpre_z.data()[i] = dz.data()[i] * z.data()[i] * (1.0f - z.data()[i]);
  }
  ops::MatmulTransAAccum(m, dpre_z, &duz_);
  ops::MatmulTransAAccum(s, dpre_z, &dvz_);
  ops::ColumnSumAccum(dpre_z, &dbz_);
  {
    Tensor t = Tensor::Uninitialized(nd, out_dim_);
    ops::MatmulTransB(dpre_z, uz_, &t);
    ops::AddInPlace(t, &dm);
    ops::MatmulTransB(dpre_z, vz_, &t);
    ops::AddInPlace(t, &ds);
  }

  // Input projections.
  ops::MatmulTransAAccum(agg, dm, &dwm_);
  ops::MatmulTransAAccum(dst_h, ds, &dws_);
  if (d_src == nullptr) return Status::OK();
  Tensor dagg = Tensor::Uninitialized(nd, in_dim_);
  ops::MatmulTransB(dm, wm_, &dagg);
  ScatterSumAccum(g, dagg, d_src);
  Tensor dself = Tensor::Uninitialized(nd, in_dim_);
  ops::MatmulTransB(ds, ws_, &dself);
  kernels::ScatterRowsAccum(kernels::ActiveBackend(), g.self_idx, nd,
                            dself.data(), 1.0f, in_dim_, d_src->data());
  return Status::OK();
}

Status GgnnLayer::BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                 const Tensor& src_h, const Tensor& d_dst,
                                 Tensor* d_src) {
  (void)src_h;
  const auto& c = static_cast<const GgnnCtx&>(ctx);
  return BackwardImpl(g, c.agg, c.self_h, d_dst, d_src);
}

Status GgnnLayer::BackwardCached(const LocalGraph& g, const Tensor& agg,
                                 const Tensor& dst_h, const Tensor& d_dst,
                                 Tensor* d_src, const Tensor* out_h) {
  (void)out_h;  // no activation mask: the gates are recomputed anyway
  return BackwardImpl(g, agg, dst_h, d_dst, d_src);
}

void GgnnLayer::ForwardCost(const LocalGraph& g, double* flops,
                            double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double nd = static_cast<double>(g.num_dst);
  // Sum aggregation + 8 dense projections + elementwise gates.
  *flops = 2.0 * e * in_dim_ + 4.0 * nd * in_dim_ * out_dim_ +
           12.0 * nd * out_dim_ * out_dim_ + 12.0 * nd * out_dim_;
  *bytes = (e + 2.0 * nd) * in_dim_ * 4.0 + nd * out_dim_ * 40.0;
}

void GgnnLayer::BackwardCost(const LocalGraph& g, bool cached, double* flops,
                             double* bytes, bool has_out_h,
                             bool has_d_src) const {
  (void)has_out_h;
  double ff = 0, fb = 0;
  ForwardCost(g, &ff, &fb);
  *flops = 2.2 * ff;
  *bytes = 2.2 * fb;
  if (!has_d_src) {
    // No dagg/dself GEMMs and no scatters to the sources.
    const double e = static_cast<double>(g.num_edges);
    const double nd = static_cast<double>(g.num_dst);
    const double ns = static_cast<double>(g.num_src);
    *flops -= 4.0 * nd * in_dim_ * out_dim_ + 2.0 * e * in_dim_;
    *bytes -= (e + ns) * in_dim_ * 4.0;
  }
  if (!cached) {
    *flops += 2.0 * static_cast<double>(g.num_edges) * in_dim_;
    *bytes += static_cast<double>(g.num_edges) * in_dim_ * 4.0;
  }
}

}  // namespace hongtu
