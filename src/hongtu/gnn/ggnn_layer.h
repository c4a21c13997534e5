/// \file ggnn_layer.h
/// \brief Gated graph layer (after Li et al., GGNN): a GRU-style update over
/// the summed neighbor message,
///   s  = W_s h_v                    (state projection)
///   m  = W_m sum_{u in N(v)} h_u    (message)
///   z  = sigmoid(m U_z + s V_z + b_z)
///   r  = sigmoid(m U_r + s V_r + b_r)
///   c  = tanh(m U_h + (r . s) V_h + b_h)
///   h' = (1 - z) . s + z . c
///
/// The classical GGNN keeps a constant state width; the W_s / W_m input
/// projections generalize it to the varying layer widths used here. With
/// this (arithmetic-sum) aggregation the layer is cacheable under §4.2 —
/// the original per-edge-type GGNN variant the paper groups with GAT would
/// fall back to recomputation instead.

#pragma once

#include "hongtu/gnn/layer.h"

namespace hongtu {

class GgnnLayer : public Layer {
 public:
  GgnnLayer(int in_dim, int out_dim, bool relu_unused, uint64_t seed);

  const char* name() const override { return "GGNN"; }
  int in_dim() const override { return in_dim_; }
  int out_dim() const override { return out_dim_; }
  bool cacheable() const override { return true; }
  bool needs_dst_h() const override { return true; }

  std::vector<Tensor*> params() override {
    return {&ws_, &wm_, &uz_, &vz_, &ur_, &vr_, &uh_, &vh_, &bz_, &br_, &bh_};
  }
  std::vector<Tensor*> grads() override {
    return {&dws_, &dwm_, &duz_, &dvz_, &dur_, &dvr_, &duh_, &dvh_,
            &dbz_, &dbr_, &dbh_};
  }

  Status Forward(const LocalGraph& g, const Tensor& src_h, Tensor* dst_h,
                 Tensor* agg_cache) override;
  Status ForwardStore(const LocalGraph& g, const Tensor& src_h, Tensor* dst_h,
                      std::unique_ptr<LayerCtx>* ctx) override;
  Status BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                        const Tensor& src_h, const Tensor& d_dst,
                        Tensor* d_src) override;
  Status BackwardCached(const LocalGraph& g, const Tensor& agg,
                        const Tensor& dst_h, const Tensor& d_dst,
                        Tensor* d_src, const Tensor* out_h) override;

  void ForwardCost(const LocalGraph& g, double* flops,
                   double* bytes) const override;
  void BackwardCost(const LocalGraph& g, bool cached, double* flops,
                    double* bytes, bool has_out_h,
                    bool has_d_src) const override;

 private:
  Status BackwardImpl(const LocalGraph& g, const Tensor& agg,
                      const Tensor& dst_h, const Tensor& d_dst, Tensor* d_src);

  int in_dim_, out_dim_;
  Tensor ws_, wm_, uz_, vz_, ur_, vr_, uh_, vh_, bz_, br_, bh_;
  Tensor dws_, dwm_, duz_, dvz_, dur_, dvr_, duh_, dvh_, dbz_, dbr_, dbh_;
};

}  // namespace hongtu
