/// \file layer.h
/// \brief GNN layer abstraction with three backward modes (Fig. 4).
///
/// A layer computes dst_h = UPDATE(AGGREGATE({src_h}), ...) over a
/// LocalGraph (a chunk's local CSC/CSR view). Backward is offered in the
/// three flavors the paper distinguishes:
///   - BackwardStored   : consume intermediates stored by ForwardStore
///                        (original training, Fig. 4a; in-memory engines);
///   - BackwardRecompute: regenerate intermediates from the neighbor
///                        representations (recomputation, Fig. 4b; the
///                        HongTu fallback for edge-NN models like GAT);
///   - BackwardCached   : regenerate only the UPDATE stage from the cached
///                        AGGREGATE output (the recomputation-caching hybrid,
///                        Fig. 4c; models with arithmetic-only aggregation).
/// `cacheable()` says whether BackwardCached is available (§4.2).
///
/// The backward computes only what its gradients need:
///   - A ReLU layer's mask is the sign of its activated output, which the
///     engines already hold as vertex data (h^{l+1}). BackwardCached takes
///     those rows as `out_h`; `backward_reads_output()` says whether it
///     reads them, and a null `out_h` re-runs the UPDATE GEMMs for the mask
///     instead. Both give the same gradients bit for bit when `out_h` holds
///     the forward's exact output.
///   - `d_src` may be null in every backward mode: the parameter gradients
///     are computed as usual and only the input-gradient products are
///     skipped. Engines pass null at layer 0, whose input is the feature
///     matrix that nothing trains.

#pragma once

#include <memory>
#include <vector>

#include "hongtu/common/status.h"
#include "hongtu/kernels/schedule.h"
#include "hongtu/partition/two_level.h"
#include "hongtu/tensor/tensor.h"

namespace hongtu {

struct ChunkSchedules;

/// Non-owning chunk view consumed by layer kernels.
struct LocalGraph {
  int64_t num_dst = 0;
  int64_t num_src = 0;
  int64_t num_edges = 0;
  const int64_t* in_offsets = nullptr;   // per dst
  const int32_t* nbr_idx = nullptr;      // per CSC edge -> src index
  const float* in_weights = nullptr;     // per CSC edge
  const int64_t* src_offsets = nullptr;  // per src
  const int32_t* dst_idx = nullptr;      // per CSR edge -> dst index
  const float* src_weights = nullptr;    // per CSR edge
  const int32_t* src_edge_idx = nullptr; // per CSR edge -> CSC edge index
  const int32_t* self_idx = nullptr;     // per dst -> src index of itself

  /// Optional precompiled locality schedules (kernels/schedule.h); when set,
  /// the Gather*/Scatter* primitives below take the propagation-blocked path
  /// whenever its heuristic accepts the call shape. Null = single-pass.
  const kernels::EdgeSchedule* gather_sched = nullptr;   // CSC direction
  const kernels::EdgeSchedule* scatter_sched = nullptr;  // CSR direction

  static LocalGraph FromChunk(const Chunk& c);
  /// FromChunk with the chunk's compiled schedules attached (null ok).
  static LocalGraph FromChunk(const Chunk& c, const ChunkSchedules* s);
};

/// The two per-chunk edge schedules, one per traversal direction, compiled
/// once at engine setup and reused by every layer and epoch.
struct ChunkSchedules {
  kernels::EdgeSchedule gather;   ///< CSC walk (Gather* forward primitives)
  kernels::EdgeSchedule scatter;  ///< CSR mirror (Scatter*Accum backward)

  int64_t bytes() const { return gather.bytes() + scatter.bytes(); }

  /// Compiles both directions for `c`. `p.max_dim` should be the widest
  /// feature dimension any layer will push through the chunk.
  static ChunkSchedules Build(const Chunk& c,
                              const kernels::EdgeScheduleParams& p);

  /// Upper bound on Build(c, p).bytes() — lets engines check capacity
  /// before paying for the compile.
  static int64_t EstimateBytes(const Chunk& c,
                               const kernels::EdgeScheduleParams& p);
};

/// Opaque per-(layer, chunk) stored intermediates.
class LayerCtx {
 public:
  virtual ~LayerCtx() = default;
  /// Bytes held by this context; drives in-memory-engine OOM accounting.
  virtual int64_t bytes() const = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const char* name() const = 0;
  virtual int in_dim() const = 0;
  virtual int out_dim() const = 0;

  /// True when the AGGREGATE output fully determines backward (§4.2): the
  /// engine may cache it in host memory instead of recomputing.
  virtual bool cacheable() const = 0;
  /// True when BackwardCached additionally needs the destinations' own input
  /// representations (SAGE self-term, GIN (1+eps) term).
  virtual bool needs_dst_h() const { return false; }
  /// True when BackwardCached reads `out_h`, the layer's own activated
  /// output, for its activation mask (a ReLU layer).
  virtual bool backward_reads_output() const { return false; }
  /// Column count of the cached AGGREGATE output.
  virtual int agg_dim() const { return in_dim(); }

  virtual std::vector<Tensor*> params() = 0;
  virtual std::vector<Tensor*> grads() = 0;
  void ZeroGrads();

  /// Forward pass. dst_h is resized to (num_dst x out_dim). When `agg_cache`
  /// is non-null and cacheable(), it receives the AGGREGATE output
  /// (num_dst x agg_dim) for host-side caching; it is written in place
  /// (EnsureShape + overwrite), so callers can keep a pre-sized workspace.
  virtual Status Forward(const LocalGraph& g, const Tensor& src_h,
                         Tensor* dst_h, Tensor* agg_cache) = 0;

  /// Forward keeping the full intermediates for BackwardStored.
  ///
  /// Implementations whose stored intermediates include the activated
  /// output hand `*dst_h` out as a non-owning Tensor::View of that stored
  /// copy instead of duplicating it: the view is readable while *ctx lives
  /// and must not be written through.
  virtual Status ForwardStore(const LocalGraph& g, const Tensor& src_h,
                              Tensor* dst_h,
                              std::unique_ptr<LayerCtx>* ctx) = 0;

  /// Backward from stored intermediates. `src_h` are the same neighbor
  /// representations the forward consumed (resident in in-memory engines,
  /// reloaded in the recompute path). `d_src` is null (no input gradient)
  /// or pre-zeroed with shape (num_src x in_dim); param grads are
  /// accumulated.
  virtual Status BackwardStored(const LocalGraph& g, const LayerCtx& ctx,
                                const Tensor& src_h, const Tensor& d_dst,
                                Tensor* d_src) = 0;

  /// Backward from the cached AGGREGATE output (the hybrid path). `dst_h`
  /// is only read when needs_dst_h(); pass an empty tensor otherwise.
  /// `out_h` is the layer's activated output for the chunk's destinations
  /// (num_dst x out_dim), read when backward_reads_output(); null means
  /// recompute it. `d_src` as in BackwardStored.
  virtual Status BackwardCached(const LocalGraph& g, const Tensor& agg,
                                const Tensor& dst_h, const Tensor& d_dst,
                                Tensor* d_src, const Tensor* out_h = nullptr);

  /// Backward with full recomputation from neighbor representations.
  /// Default: ForwardStore (discarding dst_h) + BackwardStored. `d_src` as
  /// in BackwardStored.
  virtual Status BackwardRecompute(const LocalGraph& g, const Tensor& src_h,
                                   const Tensor& d_dst, Tensor* d_src);

  /// Roofline cost of Forward on `g` (simulated-GPU time accounting).
  virtual void ForwardCost(const LocalGraph& g, double* flops,
                           double* bytes) const = 0;
  /// Cost of the backward pass; `cached` selects the hybrid (or stored)
  /// path. It prices what runs: the UPDATE re-forward always on the
  /// recompute path, and on the cached path only when the activation mask is
  /// recomputed, i.e. without `has_out_h` (the activated output given as
  /// `out_h` or stored); the input-gradient products only with `has_d_src`.
  virtual void BackwardCost(const LocalGraph& g, bool cached, double* flops,
                            double* bytes, bool has_out_h,
                            bool has_d_src) const = 0;
};

// ---- Shared sparse kernels (the cuSparse stand-ins). -----------------------

/// dst[d] = sum_e w_e * src[nbr_idx[e]] (weighted neighbor convolution).
void GatherWeighted(const LocalGraph& g, const Tensor& src, Tensor* dst);
/// dst[d] = sum_e src[nbr_idx[e]] (unweighted sum aggregation).
void GatherSum(const LocalGraph& g, const Tensor& src, Tensor* dst);
/// dst[d] = mean_e src[nbr_idx[e]].
void GatherMean(const LocalGraph& g, const Tensor& src, Tensor* dst);

/// d_src[s] += sum over out-edges w_e * d_dst[dst]; race-free (source-major).
void ScatterWeightedAccum(const LocalGraph& g, const Tensor& d_dst,
                          Tensor* d_src);
/// d_src[s] += sum over out-edges d_dst[dst].
void ScatterSumAccum(const LocalGraph& g, const Tensor& d_dst, Tensor* d_src);
/// d_src[s] += sum over out-edges d_dst[dst] / in_degree(dst).
void ScatterMeanAccum(const LocalGraph& g, const Tensor& d_dst,
                      Tensor* d_src);

}  // namespace hongtu
