/// \file gemm.h
/// \brief Dense kernels: cache-blocked, register-tiled GEMM with fused
/// epilogues, plus the small dense reductions the layers need.
///
/// All functions operate on raw row-major float32 buffers so the kernel layer
/// depends only on common/. The `Backend` argument picks between the
/// reference scalar loops and the blocked SIMD implementation; callers
/// normally pass kernels::ActiveBackend().
///
/// The blocked GEMM uses Mc/Kc/Nc cache blocking with B packed into
/// (Kc x kNr) panels and an unrolled `#pragma omp simd` micro-kernel holding
/// a (kMr x kNr) accumulator tile in registers. The epilogue (bias add +
/// activation) is fused into the final-k-block store, so UPDATE stages write
/// their output in a single pass over C; the bias and bias+ReLU stores are
/// vector loops.
///
/// Threading: every blocked kernel gives each output element one owning
/// thread and sums it in a fixed order, so results are bit-identical at any
/// OpenMP team size (pinned by KernelsTest.BlockedGemmFamilyIsTeamSizeInvariant).

#pragma once

#include <cstdint>

#include "hongtu/kernels/backend.h"

namespace hongtu {
namespace kernels {

/// Fused elementwise tail applied while storing the final GEMM result.
/// All kinds except kNone add the (1 x n) bias row first.
enum class Epilogue {
  kNone,
  kBias,         ///< c = c + bias
  kBiasRelu,     ///< c = relu(c + bias)
  kBiasSigmoid,  ///< c = sigmoid(c + bias)
  kBiasTanh,     ///< c = tanh(c + bias)
};

/// c (m x n) = [c +] a (m x k) * b (k x n), then the epilogue.
/// `accumulate` adds into the existing contents of c instead of overwriting.
/// `bias` is a (1 x n) row; required iff `epilogue != kNone`.
void Gemm(Backend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t k, int64_t n, bool accumulate = false,
          const float* bias = nullptr, Epilogue epilogue = Epilogue::kNone);

/// c (m x n) += a^T * b, with a (k x m) and b (k x n). The dW kernel.
/// Threads split the grid of (8 x 16) output tiles, so a layer-sized dW
/// (m = in_dim, only 8-16 row tiles) still uses the whole team; each tile
/// adds its depth blocks in ascending order.
void GemmTransAAccum(Backend backend, const float* a, const float* b,
                     float* c, int64_t k, int64_t m, int64_t n);

/// c (m x n) = a (m x k) * b^T, with b (n x k). The dX kernel.
void GemmTransB(Backend backend, const float* a, const float* b, float* c,
                int64_t m, int64_t k, int64_t n);

/// out (1 x cols) += column sums of x (rows x cols). The db kernel. Threads
/// split the 16-column blocks once x has at least 256 rows (shorter inputs
/// run serially); each column is summed in row order, so results are
/// deterministic for any thread count.
void ColumnSumAccum(Backend backend, const float* x, int64_t rows,
                    int64_t cols, float* out);

/// Returns sum_i a[i] * b[i] accumulated in double (the d_eps kernel).
double Dot(Backend backend, const float* a, const float* b, int64_t n);

}  // namespace kernels
}  // namespace hongtu
