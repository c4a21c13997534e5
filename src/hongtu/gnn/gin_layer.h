/// \file gin_layer.h
/// \brief Graph isomorphism network layer (Xu et al.):
/// h_v = act(W ((1 + eps) h_v + sum_{u in N(v)} h_u) + b), with learnable
/// eps. Sum aggregation is arithmetic-only, so the layer is cacheable; the
/// cached backward needs the destinations' own representations for the
/// (1 + eps) term and the eps gradient.

#pragma once

#include "hongtu/gnn/layer.h"

namespace hongtu {

class GinLayer : public Layer {
 public:
  GinLayer(int in_dim, int out_dim, bool relu, uint64_t seed);

  const char* name() const override { return "GIN"; }
  int in_dim() const override { return in_dim_; }
  int out_dim() const override { return out_dim_; }
  bool cacheable() const override { return true; }
  bool needs_dst_h() const override { return true; }
  bool backward_reads_output() const override { return relu_; }

  std::vector<Tensor*> params() override { return {&w_, &b_, &eps_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_, &deps_}; }

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
  /// `out_h` is the activated forward output (stored, or read back from
  /// the host); null means recompute it for the ReLU mask.
  Status BackwardImpl(const LocalGraph& g, const Tensor& agg,
                      const Tensor& dst_h, const Tensor& d_dst, Tensor* d_src,
                      const Tensor* out_h);

  int in_dim_, out_dim_;
  bool relu_;
  Tensor w_, b_, eps_;
  Tensor dw_, db_, deps_;
};

}  // namespace hongtu
