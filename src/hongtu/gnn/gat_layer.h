/// \file gat_layer.h
/// \brief Graph attention layer (Velickovic et al., Eq. 3 of the paper),
/// single head:
///   e_uv   = LeakyReLU(a_src . (W h_u) + a_dst . (W h_v))
///   alpha  = softmax over the full in-neighbor set of v
///   h_v    = act(sum_u alpha_uv W h_u)
/// The attention softmax runs over the complete neighbor set, which is why
/// HongTu's chunks keep all in-edges of each destination (§4.1). Attention
/// produces O(|E|) intermediate state, so the layer is NOT cacheable: the
/// engine falls back to full recomputation in the backward pass (§4.2).

#pragma once

#include "hongtu/gnn/layer.h"

namespace hongtu {

class GatLayer : public Layer {
 public:
  GatLayer(int in_dim, int out_dim, bool relu, uint64_t seed);

  const char* name() const override { return "GAT"; }
  int in_dim() const override { return in_dim_; }
  int out_dim() const override { return out_dim_; }
  bool cacheable() const override { return false; }

  std::vector<Tensor*> params() override { return {&w_, &a_src_, &a_dst_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &da_src_, &da_dst_}; }

  Status Forward(const LocalGraph& g, const Tensor& src_h, Tensor* dst_h,
                 Tensor* agg_cache) override;
  Status ForwardStore(const LocalGraph& g, const Tensor& src_h, Tensor* dst_h,
                      std::unique_ptr<LayerCtx>* ctx) override;
  Status BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                        const Tensor& src_h, const Tensor& d_dst,
                        Tensor* d_src) override;

  void ForwardCost(const LocalGraph& g, double* flops,
                   double* bytes) const override;
  void BackwardCost(const LocalGraph& g, bool cached, double* flops,
                    double* bytes, bool has_out_h,
                    bool has_d_src) const override;

  static constexpr float kLeakySlope = 0.2f;

 private:
  int in_dim_, out_dim_;
  bool relu_;
  Tensor w_, a_src_, a_dst_;
  Tensor dw_, da_src_, da_dst_;
};

}  // namespace hongtu
