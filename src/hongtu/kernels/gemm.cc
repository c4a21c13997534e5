#include "hongtu/kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hongtu/common/parallel.h"
#include "hongtu/tensor/pool.h"

namespace hongtu {
namespace kernels {
namespace {

// Micro-tile shape: the innermost kernel keeps a (kMr x kNr) float
// accumulator block in registers across the whole depth loop. kNr is one
// AVX-512 register of floats (two AVX2 registers); kMr x kNr = 8..16 vector
// registers of accumulators, leaving room for the B row and A broadcasts.
constexpr int kMr = 8;
constexpr int kNr = 16;

// Cache blocking: the packed B block (kKc x kNc floats = 256 KB) and the A
// row panel a micro-tile streams (kMr x kKc = 8 KB) stay L2-resident.
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 256;

// Below this flop count the packing + tiling overhead dominates; fall back
// to the reference loops.
constexpr int64_t kSmallGemmFlops = 16 * 1024;

inline float Activate(float v, Epilogue ep) {
  switch (ep) {
    case Epilogue::kNone:
    case Epilogue::kBias:
      return v;
    case Epilogue::kBiasRelu:
      return v > 0.0f ? v : 0.0f;
    case Epilogue::kBiasSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case Epilogue::kBiasTanh:
      return std::tanh(v);
  }
  return v;
}

// ---- Reference backend: the seed's scalar loops, extended with the fused
// epilogue so both backends expose identical semantics. -----------------------

void ReferenceGemm(const float* a, const float* b, float* c, int64_t m,
                   int64_t k, int64_t n, bool accumulate, const float* bias,
                   Epilogue ep) {
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* pa = a + i * k;
      float* pc = c + i * n;
      if (!accumulate) {
        std::memset(pc, 0, static_cast<size_t>(n) * sizeof(float));
      }
      for (int64_t p = 0; p < k; ++p) {
        const float av = pa[p];
        if (av == 0.0f) continue;
        const float* pbrow = b + p * n;
        for (int64_t j = 0; j < n; ++j) pc[j] += av * pbrow[j];
      }
      if (ep != Epilogue::kNone) {
        for (int64_t j = 0; j < n; ++j) pc[j] = Activate(pc[j] + bias[j], ep);
      }
    }
  });
}

void ReferenceGemmTransAAccum(const float* a, const float* b, float* c,
                              int64_t k, int64_t m, int64_t n) {
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* pc = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = a[p * m + i];
        if (av == 0.0f) continue;
        const float* pbrow = b + p * n;
        for (int64_t j = 0; j < n; ++j) pc[j] += av * pbrow[j];
      }
    }
  });
}

void ReferenceGemmTransB(const float* a, const float* b, float* c, int64_t m,
                         int64_t k, int64_t n) {
  ParallelForChunked(0, m, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const float* pa = a + i * k;
      float* pc = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* pbrow = b + j * k;
        float s = 0.0f;
        for (int64_t p = 0; p < k; ++p) s += pa[p] * pbrow[p];
        pc[j] = s;
      }
    }
  });
}

// ---- Blocked backend. -------------------------------------------------------

/// Packs the (kc x nc) block of b starting at its top-left corner into
/// column panels of kNr: panel p holds kc rows of kNr contiguous floats,
/// zero-padded on the right so the micro-kernel always runs full width.
void PackB(const float* b, int64_t ldb, int64_t kc, int64_t nc, float* bp) {
  const int64_t npanels = (nc + kNr - 1) / kNr;
  for (int64_t panel = 0; panel < npanels; ++panel) {
    const int64_t j0 = panel * kNr;
    const int64_t w = std::min<int64_t>(kNr, nc - j0);
    float* dst = bp + panel * kc * kNr;
    for (int64_t p = 0; p < kc; ++p) {
      const float* srow = b + p * ldb + j0;
      float* drow = dst + p * kNr;
      for (int64_t j = 0; j < w; ++j) drow[j] = srow[j];
      for (int64_t j = w; j < kNr; ++j) drow[j] = 0.0f;
    }
  }
}

/// acc = A-tile (mr x kc, row stride lda) * packed-B panel (kc x kNr).
/// The full-height case is a separate constant-bound loop so the compiler
/// fully unrolls it and keeps `acc` in vector registers.
void MicroKernel(const float* a, int64_t lda, const float* bp, int64_t kc,
                 int mr, float acc[kMr][kNr]) {
  for (int r = 0; r < kMr; ++r) {
    for (int j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  if (mr == kMr) {
    for (int64_t p = 0; p < kc; ++p) {
      const float* brow = bp + p * kNr;
      for (int r = 0; r < kMr; ++r) {
        const float av = a[r * lda + p];
#pragma omp simd
        for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
      }
    }
  } else {
    for (int64_t p = 0; p < kc; ++p) {
      const float* brow = bp + p * kNr;
      for (int r = 0; r < mr; ++r) {
        const float av = a[r * lda + p];
#pragma omp simd
        for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
      }
    }
  }
}

/// Adds the accumulator tile into c; on the final depth block also applies
/// the fused bias + activation epilogue. `overwrite` discards the previous
/// contents (first depth block of a non-accumulating GEMM). The epilogue
/// kind is resolved once per tile row, so bias and bias+ReLU rows are vector
/// loops that compute (c or 0) + acc + bias and clamp exactly as Activate()
/// does; sigmoid and tanh stay scalar.
void StoreTile(const float acc[kMr][kNr], float* c, int64_t ldc, int mr,
               int nr, bool overwrite, bool final_block, const float* bias,
               Epilogue ep) {
  if (!final_block) ep = Epilogue::kNone;
  for (int r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc[r];
    switch (ep) {
      case Epilogue::kNone:
        if (overwrite) {
          for (int j = 0; j < nr; ++j) crow[j] = arow[j];
        } else {
          for (int j = 0; j < nr; ++j) crow[j] += arow[j];
        }
        break;
      case Epilogue::kBias:
      case Epilogue::kBiasRelu: {
        const bool relu = ep == Epilogue::kBiasRelu;
#pragma omp simd
        for (int j = 0; j < nr; ++j) {
          const float v = (overwrite ? 0.0f : crow[j]) + arow[j] + bias[j];
          crow[j] = relu && !(v > 0.0f) ? 0.0f : v;
        }
        break;
      }
      case Epilogue::kBiasSigmoid:
      case Epilogue::kBiasTanh:
        for (int j = 0; j < nr; ++j) {
          const float v = (overwrite ? 0.0f : crow[j]) + arow[j] + bias[j];
          crow[j] = Activate(v, ep);
        }
        break;
    }
  }
}

void BlockedGemm(const float* a, const float* b, float* c, int64_t m,
                 int64_t k, int64_t n, bool accumulate, const float* bias,
                 Epilogue ep) {
  // Pool-backed packing panel: GEMM runs once per chunk per layer, so a heap
  // allocation here would defeat the zero-allocation steady state.
  PoolBuffer bpack(static_cast<int64_t>(kKc) *
                   (((kNc + kNr - 1) / kNr) * kNr));
  const int64_t mtiles = (m + kMr - 1) / kMr;
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    const int64_t npanels = (nc + kNr - 1) / kNr;
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      PackB(b + pc * n + jc, n, kc, nc, bpack.data());
      const bool first = (pc == 0);
      const bool last = (pc + kc >= k);
      // Threads split the M dimension in contiguous micro-tile runs (the
      // effective Mc block); the packed B block is shared read-only. The
      // serial cutoff is in micro-tiles so it matches the default row
      // threshold (one tile = kMr rows).
      ParallelForChunked(0, mtiles, /*serial_below=*/256 / kMr,
                         [&](int64_t tlo, int64_t thi) {
        float acc[kMr][kNr];
        for (int64_t t = tlo; t < thi; ++t) {
          const int64_t i0 = t * kMr;
          const int mr = static_cast<int>(std::min<int64_t>(kMr, m - i0));
          const float* atile = a + i0 * k + pc;
          for (int64_t panel = 0; panel < npanels; ++panel) {
            const int64_t j0 = jc + panel * kNr;
            const int nr =
                static_cast<int>(std::min<int64_t>(kNr, jc + nc - j0));
            MicroKernel(atile, k, bpack.data() + panel * kc * kNr, kc, mr,
                        acc);
            StoreTile(acc, c + i0 * n + j0, n, mr, nr, first && !accumulate,
                      last, bias != nullptr ? bias + j0 : nullptr, ep);
          }
        }
      });
    }
  }
}

void BlockedGemmTransAAccum(const float* a, const float* b, float* c,
                            int64_t k, int64_t m, int64_t n) {
  // c[i][j] += sum_p a[p*m + i] * b[p*n + j]. Both operands are read
  // row-contiguously per depth step, so no packing is needed; the depth loop
  // is chunked so the streamed a/b blocks stay cache-resident while a
  // thread's (kMr x kNr) output tiles consume them.
  //
  // Threads split the (m-tile x n-tile) output grid: m is the layer's input
  // width, often only 8-16 tiles, too few to split alone. Each tile has one
  // owner that adds its depth blocks in ascending order, so every element is
  // summed in the same order at any team size.
  constexpr int64_t kDepthBlock = 1024;
  const int64_t mtiles = (m + kMr - 1) / kMr;
  const int64_t ntiles = (n + kNr - 1) / kNr;
  ParallelForChunked(0, mtiles * ntiles, /*serial_below=*/2,
                     [&](int64_t tlo, int64_t thi) {
    float acc[kMr][kNr];
    for (int64_t pc = 0; pc < k; pc += kDepthBlock) {
      const int64_t kc = std::min(kDepthBlock, k - pc);
      const float* ablk = a + pc * m;
      const float* bblk = b + pc * n;
      for (int64_t t = tlo; t < thi; ++t) {
        const int64_t i0 = (t / ntiles) * kMr;
        const int64_t j0 = (t % ntiles) * kNr;
        const int mr = static_cast<int>(std::min<int64_t>(kMr, m - i0));
        const int nr = static_cast<int>(std::min<int64_t>(kNr, n - j0));
        for (int r = 0; r < kMr; ++r) {
          for (int j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
        }
        if (mr == kMr && nr == kNr) {
          for (int64_t p = 0; p < kc; ++p) {
            const float* arow = ablk + p * m + i0;
            const float* brow = bblk + p * n + j0;
            for (int r = 0; r < kMr; ++r) {
              const float av = arow[r];
#pragma omp simd
              for (int j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
            }
          }
        } else {
          for (int64_t p = 0; p < kc; ++p) {
            const float* arow = ablk + p * m + i0;
            const float* brow = bblk + p * n + j0;
            for (int r = 0; r < mr; ++r) {
              const float av = arow[r];
              for (int j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
            }
          }
        }
        for (int r = 0; r < mr; ++r) {
          float* crow = c + (i0 + r) * n + j0;
          for (int j = 0; j < nr; ++j) crow[j] += acc[r][j];
        }
      }
    }
  });
}

void BlockedGemmTransB(const float* a, const float* b, float* c, int64_t m,
                       int64_t k, int64_t n) {
  // b is an (n x k) weight matrix — small. Transposing it once into (k x n)
  // turns the whole call into a plain blocked GEMM with packed B.
  PoolBuffer bt(k * n);
  for (int64_t j = 0; j < n; ++j) {
    const float* brow = b + j * k;
    for (int64_t p = 0; p < k; ++p) bt.data()[p * n + j] = brow[p];
  }
  BlockedGemm(a, bt.data(), c, m, k, n, /*accumulate=*/false, nullptr,
              Epilogue::kNone);
}

}  // namespace

void Gemm(Backend backend, const float* a, const float* b, float* c,
          int64_t m, int64_t k, int64_t n, bool accumulate, const float* bias,
          Epilogue epilogue) {
  if (m <= 0 || n <= 0) return;
  if (backend == Backend::kReference || m * n * k < kSmallGemmFlops) {
    ReferenceGemm(a, b, c, m, k, n, accumulate, bias, epilogue);
    return;
  }
  BlockedGemm(a, b, c, m, k, n, accumulate, bias, epilogue);
}

void GemmTransAAccum(Backend backend, const float* a, const float* b,
                     float* c, int64_t k, int64_t m, int64_t n) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (backend == Backend::kReference || m * n * k < kSmallGemmFlops) {
    ReferenceGemmTransAAccum(a, b, c, k, m, n);
    return;
  }
  BlockedGemmTransAAccum(a, b, c, k, m, n);
}

void GemmTransB(Backend backend, const float* a, const float* b, float* c,
                int64_t m, int64_t k, int64_t n) {
  if (m <= 0 || n <= 0) return;
  if (backend == Backend::kReference || m * n * k < kSmallGemmFlops) {
    ReferenceGemmTransB(a, b, c, m, k, n);
    return;
  }
  BlockedGemmTransB(a, b, c, m, k, n);
}

void ColumnSumAccum(Backend backend, const float* x, int64_t rows,
                    int64_t cols, float* out) {
  if (rows <= 0 || cols <= 0) return;
  if (backend == Backend::kReference) {
    for (int64_t r = 0; r < rows; ++r) {
      const float* px = x + r * cols;
      for (int64_t c = 0; c < cols; ++c) out[c] += px[c];
    }
    return;
  }
  // Threads own disjoint column blocks; each block is reduced in row order,
  // so the result is independent of the thread count. One block is
  // rows x kNr adds, so two blocks already fill a parallel region unless the
  // matrix is only a few rows tall.
  const int64_t nblocks = (cols + kNr - 1) / kNr;
  const int64_t serial_below =
      rows < kParallelSerialThreshold ? nblocks + 1 : 2;
  ParallelForChunked(0, nblocks, serial_below, [&](int64_t blo, int64_t bhi) {
    for (int64_t blk = blo; blk < bhi; ++blk) {
      const int64_t c0 = blk * kNr;
      const int w = static_cast<int>(std::min<int64_t>(kNr, cols - c0));
      float acc[kNr] = {0.0f};
      if (w == kNr) {
        for (int64_t r = 0; r < rows; ++r) {
          const float* px = x + r * cols + c0;
#pragma omp simd
          for (int j = 0; j < kNr; ++j) acc[j] += px[j];
        }
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          const float* px = x + r * cols + c0;
          for (int j = 0; j < w; ++j) acc[j] += px[j];
        }
      }
      for (int j = 0; j < w; ++j) out[c0 + j] += acc[j];
    }
  });
}

double Dot(Backend backend, const float* a, const float* b, int64_t n) {
  double s = 0.0;
  if (backend == Backend::kReference) {
    for (int64_t i = 0; i < n; ++i) {
      s += static_cast<double>(a[i]) * b[i];
    }
    return s;
  }
#pragma omp simd reduction(+ : s)
  for (int64_t i = 0; i < n; ++i) {
    s += static_cast<double>(a[i]) * b[i];
  }
  return s;
}

}  // namespace kernels
}  // namespace hongtu
