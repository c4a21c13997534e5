#include "hongtu/gnn/gat_layer.h"

#include <cmath>

#include "hongtu/common/parallel.h"
#include "hongtu/kernels/backend.h"
#include "hongtu/kernels/spmm.h"
#include "hongtu/tensor/ops.h"

namespace hongtu {

namespace {

struct GatCtx : public LayerCtx {
  Tensor p;       // projected sources W h_u (num_src x out)
  Tensor s_src;   // a_src . P[u] (num_src x 1)
  Tensor t_dst;   // a_dst . P[self(v)] (num_dst x 1)
  Tensor pre;     // LeakyReLU(raw) per CSC edge (num_edges x 1)
  Tensor alpha;   // softmax weight per CSC edge (num_edges x 1)
  Tensor o;       // pre-activation output (num_dst x out)
  int64_t bytes() const override {
    return p.bytes() + s_src.bytes() + t_dst.bytes() + pre.bytes() +
           alpha.bytes() + o.bytes();
  }
};

}  // namespace

GatLayer::GatLayer(int in_dim, int out_dim, bool relu, uint64_t seed)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      w_(Tensor::GlorotUniform(in_dim, out_dim, seed)),
      a_src_(Tensor::GlorotUniform(1, out_dim, seed + 1)),
      a_dst_(Tensor::GlorotUniform(1, out_dim, seed + 2)),
      dw_(in_dim, out_dim),
      da_src_(1, out_dim),
      da_dst_(1, out_dim) {}

Status GatLayer::ForwardStore(const LocalGraph& g, const Tensor& src_h,
                              Tensor* dst_h, std::unique_ptr<LayerCtx>* ctx) {
  // All edge/vertex state below is fully written before being read, so the
  // whole attention pipeline draws pooled uninitialized buffers.
  auto c = std::make_unique<GatCtx>();
  c->p = Tensor::Uninitialized(g.num_src, out_dim_);
  ops::Matmul(src_h, w_, &c->p);

  c->s_src = Tensor::Uninitialized(g.num_src, 1);
  {
    const float* pa = a_src_.data();
    ParallelForChunked(0, g.num_src, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        const float* pp = c->p.row(s);
        float acc = 0.0f;
        for (int64_t k = 0; k < out_dim_; ++k) acc += pa[k] * pp[k];
        c->s_src.at(s, 0) = acc;
      }
    });
  }
  c->t_dst = Tensor::Uninitialized(g.num_dst, 1);
  {
    const float* pa = a_dst_.data();
    ParallelForChunked(0, g.num_dst, [&](int64_t lo, int64_t hi) {
      for (int64_t d = lo; d < hi; ++d) {
        const int32_t s = g.self_idx[d];
        float acc = 0.0f;
        if (s >= 0) {
          const float* pp = c->p.row(s);
          for (int64_t k = 0; k < out_dim_; ++k) acc += pa[k] * pp[k];
        }
        c->t_dst.at(d, 0) = acc;
      }
    });
  }

  c->pre = Tensor::Uninitialized(g.num_edges, 1);
  c->alpha = Tensor::Uninitialized(g.num_edges, 1);
  c->o = Tensor::Uninitialized(g.num_dst, out_dim_);
  dst_h->EnsureShape(g.num_dst, out_dim_);

  // Edge-balanced split: the whole attention pipeline is O(edges), so a
  // vertex split would leave threads idle behind power-law hubs.
  ParallelForBalanced(g.num_dst, g.in_offsets, [&](int64_t lo, int64_t hi) {
    for (int64_t d = lo; d < hi; ++d) {
      const int64_t e0 = g.in_offsets[d], e1 = g.in_offsets[d + 1];
      // Attention logits with LeakyReLU; neighbor-softmax (stable).
      float mx = -1e30f;
      for (int64_t e = e0; e < e1; ++e) {
        const float raw = c->s_src.at(g.nbr_idx[e], 0) + c->t_dst.at(d, 0);
        const float v = ops::LeakyRelu(raw, kLeakySlope);
        c->pre.at(e, 0) = v;
        mx = std::max(mx, v);
      }
      float denom = 0.0f;
      for (int64_t e = e0; e < e1; ++e) {
        const float ex = std::exp(c->pre.at(e, 0) - mx);
        c->alpha.at(e, 0) = ex;
        denom += ex;
      }
      const float inv = denom > 0 ? 1.0f / denom : 0.0f;
      float* po = c->o.row(d);
      for (int64_t k = 0; k < out_dim_; ++k) po[k] = 0.0f;
      for (int64_t e = e0; e < e1; ++e) {
        const float a = c->alpha.at(e, 0) * inv;
        c->alpha.at(e, 0) = a;
        const float* pp = c->p.row(g.nbr_idx[e]);
        for (int64_t k = 0; k < out_dim_; ++k) po[k] += a * pp[k];
      }
      float* ph = dst_h->row(d);
      for (int64_t k = 0; k < out_dim_; ++k) {
        ph[k] = relu_ ? (po[k] > 0 ? po[k] : 0.0f) : po[k];
      }
    }
  });

  *ctx = std::move(c);
  return Status::OK();
}

Status GatLayer::Forward(const LocalGraph& g, const Tensor& src_h,
                         Tensor* dst_h, Tensor* agg_cache) {
  // GAT has no cacheable AGGREGATE output (§4.2): `agg_cache` stays empty and
  // the engine uses the recomputation path in backward.
  (void)agg_cache;
  std::unique_ptr<LayerCtx> ctx;
  return ForwardStore(g, src_h, dst_h, &ctx);
}

Status GatLayer::BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                const Tensor& src_h, const Tensor& d_dst,
                                Tensor* d_src) {
  const auto& c = static_cast<const GatCtx&>(ctx);

  // do = d act(o).
  Tensor dout = Tensor::Uninitialized(g.num_dst, out_dim_);
  if (relu_) {
    ops::ReluBackward(c.o, d_dst, &dout);
  } else {
    HT_RETURN_IF_ERROR(dout.CopyFrom(d_dst));
  }

  // Destination-major phase: softmax + LeakyReLU backward per edge. Every
  // edge/destination entry is written in the loop, so both buffers skip the
  // zero fill.
  Tensor dlin = Tensor::Uninitialized(g.num_edges, 1);
  Tensor dt_dst = Tensor::Uninitialized(g.num_dst, 1);
  ParallelForBalanced(g.num_dst, g.in_offsets, [&](int64_t lo, int64_t hi) {
    for (int64_t d = lo; d < hi; ++d) {
      const int64_t e0 = g.in_offsets[d], e1 = g.in_offsets[d + 1];
      const float* pdo = dout.row(d);
      float sumterm = 0.0f;
      for (int64_t e = e0; e < e1; ++e) {
        const float* pp = c.p.row(g.nbr_idx[e]);
        float da = 0.0f;
        for (int64_t k = 0; k < out_dim_; ++k) da += pdo[k] * pp[k];
        dlin.at(e, 0) = da;  // stash d_alpha temporarily
        sumterm += c.alpha.at(e, 0) * da;
      }
      float dt = 0.0f;
      for (int64_t e = e0; e < e1; ++e) {
        const float dpre = c.alpha.at(e, 0) * (dlin.at(e, 0) - sumterm);
        const float mask = c.pre.at(e, 0) > 0 ? 1.0f : kLeakySlope;
        dlin.at(e, 0) = dpre * mask;
        dt += dlin.at(e, 0);
      }
      dt_dst.at(d, 0) = dt;
    }
  });

  // Source-major phase: dP and ds_src (race-free via the CSR mirror). This
  // walk has the same random-read shape the scatter schedule fixes for the
  // SpMM primitives (per-source loop, random dout rows), so when the chunk
  // carries a compiled schedule whose heuristic accepts the width, the
  // phase runs the propagation-blocked sweep: (band over destinations,
  // shard over sources) bucket order keeps the dout slice L2-resident,
  // shards own disjoint source rows (conflict-free parallel), and per-run
  // register accumulation touches each dp row once per (row, band). The
  // per-edge alpha/dlin lookups stay indexed through edge_perm — they are
  // 4-byte streams, not the latency-bound part.
  const kernels::EdgeSchedule* ss = g.scatter_sched;
  const bool banded = kernels::ActiveBackend() == kernels::Backend::kBlocked &&
                      ss != nullptr && ss->num_out() == g.num_src &&
                      ss->num_edges() == g.num_edges &&
                      ss->ShouldUse(out_dim_, /*accumulate=*/true);
  // On the banded path every dp row is stored by its first run (or zeroed
  // below for edgeless sources), so the up-front zero fill is skipped; the
  // single-pass loop keeps the zeroed accumulator semantics.
  Tensor dp = banded ? Tensor::Uninitialized(g.num_src, out_dim_)
                     : Tensor(g.num_src, out_dim_);
  Tensor ds_src = Tensor::Uninitialized(g.num_src, 1);
  const float* pasrc = a_src_.data();
  if (banded) {
    const int32_t* zr = ss->zero_rows();
    ParallelForChunked(0, ss->num_zero_rows(), [&](int64_t lo, int64_t hi) {
      for (int64_t z = lo; z < hi; ++z) {
        float* pdp = dp.row(zr[z]);
        for (int64_t k = 0; k < out_dim_; ++k) pdp[k] = 0.0f;
        ds_src.at(zr[z], 0) = 0.0f;
      }
    });
    const int B = ss->num_bands();
    const int64_t* bo = ss->bucket_offsets();
    const int32_t* rnd = ss->rnd_perm();
    const int32_t* op = ss->out_perm();
    const int32_t* ep = ss->edge_perm();
    ParallelForBalanced(
        ss->num_shards(), ss->shard_edge_prefix(), kParallelSerialThreshold,
        [&](int64_t t_lo, int64_t t_hi) {
          float acc[256];  // ShouldUse caps the width at 256
          for (int b = 0; b < B; ++b) {
            for (int64_t t = t_lo; t < t_hi; ++t) {
              const int64_t bid = t * B + b;
              const int64_t e1 = bo[bid + 1];
              int64_t k = bo[bid];
              while (k < e1) {
                const int32_t ov = op[k];
                const int32_t s = ov & kernels::EdgeSchedule::kRowMask;
                const bool first = ov < 0;
                float ds = 0.0f;
                for (int64_t j = 0; j < out_dim_; ++j) acc[j] = 0.0f;
                // Continuation edges of a run are never flagged, so the raw
                // packed value compares equal to the masked row id.
                do {
                  const int32_t d = rnd[k];
                  const int32_t ce = g.src_edge_idx[ep[k]];
                  ds += dlin.at(ce, 0);
                  const float a = c.alpha.at(ce, 0);
                  const float* pdo = dout.row(d);
                  for (int64_t j = 0; j < out_dim_; ++j) acc[j] += a * pdo[j];
                  ++k;
                } while (k < e1 && op[k] == s);
                float* pdp = dp.row(s);
                if (first) {
                  for (int64_t j = 0; j < out_dim_; ++j) pdp[j] = acc[j];
                  ds_src.at(s, 0) = ds;
                } else {
                  for (int64_t j = 0; j < out_dim_; ++j) pdp[j] += acc[j];
                  ds_src.at(s, 0) += ds;
                }
              }
            }
          }
        },
        /*max_threads=*/omp_get_num_procs());
    // The a_src term needs the fully accumulated ds_src, so it folds in
    // after the banded sweep (the single-pass loop fuses it per source).
    ParallelForChunked(0, g.num_src, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        const float ds = ds_src.at(s, 0);
        float* pdp = dp.row(s);
        for (int64_t k = 0; k < out_dim_; ++k) pdp[k] += ds * pasrc[k];
      }
    });
  } else {
    ParallelForBalanced(g.num_src, g.src_offsets, [&](int64_t lo, int64_t hi) {
      for (int64_t s = lo; s < hi; ++s) {
        float* pdp = dp.row(s);
        float ds = 0.0f;
        for (int64_t e = g.src_offsets[s]; e < g.src_offsets[s + 1]; ++e) {
          const int32_t d = g.dst_idx[e];
          const int32_t ce = g.src_edge_idx[e];
          ds += dlin.at(ce, 0);
          const float a = c.alpha.at(ce, 0);
          const float* pdo = dout.row(d);
          for (int64_t k = 0; k < out_dim_; ++k) pdp[k] += a * pdo[k];
        }
        ds_src.at(s, 0) = ds;
        for (int64_t k = 0; k < out_dim_; ++k) pdp[k] += ds * pasrc[k];
      }
    });
  }
  // Destination self contribution (self_idx is injective over destinations).
  const float* padst = a_dst_.data();
  ParallelForChunked(0, g.num_dst, [&](int64_t lo, int64_t hi) {
    for (int64_t d = lo; d < hi; ++d) {
      const int32_t s = g.self_idx[d];
      if (s < 0) continue;
      const float dt = dt_dst.at(d, 0);
      float* pdp = dp.row(s);
      for (int64_t k = 0; k < out_dim_; ++k) pdp[k] += dt * padst[k];
    }
  });

  // Attention vector gradients.
  ops::MatmulTransAAccum(ds_src, c.p, &da_src_);
  {
    Tensor p_self = Tensor::Uninitialized(g.num_dst, out_dim_);
    kernels::GatherRows(kernels::ActiveBackend(), g.self_idx, g.num_dst,
                        c.p.data(), out_dim_, p_self.data());
    ops::MatmulTransAAccum(dt_dst, p_self, &da_dst_);
  }

  // Weight gradient and input gradient.
  ops::MatmulTransAAccum(src_h, dp, &dw_);
  if (d_src == nullptr) return Status::OK();
  Tensor dx = Tensor::Uninitialized(g.num_src, in_dim_);
  ops::MatmulTransB(dp, w_, &dx);
  ops::AddInPlace(dx, d_src);
  return Status::OK();
}

void GatLayer::ForwardCost(const LocalGraph& g, double* flops,
                           double* bytes) const {
  const double e = static_cast<double>(g.num_edges);
  const double ns = static_cast<double>(g.num_src);
  const double nd = static_cast<double>(g.num_dst);
  // The edge pipeline (attention logits, LeakyReLU, neighbor softmax,
  // weighted aggregation) makes several memory-bound passes over O(|E|)
  // state; the per-edge constants below are calibrated to the ~4.5x
  // GAT-vs-GCN kernel-time ratio the paper reports (§7.4).
  *flops = 2.0 * ns * in_dim_ * out_dim_ + 2.0 * ns * out_dim_ +
           e * (12.0 * out_dim_ + 30.0) + 2.0 * nd * out_dim_;
  *bytes = ns * (in_dim_ + out_dim_) * 4.0 + e * (out_dim_ * 36.0 + 32.0) +
           nd * out_dim_ * 8.0;
}

void GatLayer::BackwardCost(const LocalGraph& g, bool cached, double* flops,
                            double* bytes, bool has_out_h,
                            bool has_d_src) const {
  (void)cached;     // GAT always recomputes.
  (void)has_out_h;  // its mask comes from the recomputed pre-activation
  double ff, fb;
  ForwardCost(g, &ff, &fb);
  // Backward roughly mirrors forward twice (dP accumulation + scatter).
  *flops = 2.0 * ff;
  *bytes = 2.0 * fb;
  if (!has_d_src) {
    // No dX = dP W^T and no accumulation into d_src.
    const double ns = static_cast<double>(g.num_src);
    *flops -= 2.0 * ns * in_dim_ * out_dim_;
    *bytes -= ns * in_dim_ * 8.0;
  }
}

}  // namespace hongtu
