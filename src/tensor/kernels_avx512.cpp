// AVX-512F kernel backend (compiled with -mavx512f; see CMakeLists.txt).
//
// Same column-lane strategy as the AVX2 backend at twice the width: lanes
// run across independent output columns, each lane performing the exact
// scalar sequence — multiply, then add, k ascending, bias last — so every
// element is bit-identical to the scalar backend (zmm vmulpd/vaddpd round
// lane-wise exactly like mulsd/addsd; no FMA contraction inside any
// reduction). Because the kernels deliberately split mul and add, FP ALU
// throughput is the ceiling, and the 8-lane vectors double it over avx2 —
// this backend is what clears the serving-shape speedup floor against the
// compiler-SSE-paired scalar baseline on a single core.
//
// The GEMM tile is 4 A-rows x 16 columns (8 zmm accumulators): eight
// independent add chains cover the vaddpd latency, four broadcasts + two
// packed loads per k amortize load-port pressure over 128 flops.
#include "tensor/simd.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <iterator>

#include "tensor/aligned.h"
#include "tensor/kernels_pack.h"
#include "tensor/kernels_planar.h"
#include "tensor/kernels_quant.h"

namespace muffin::tensor::detail {

namespace {

/// Narrow-width path (8 * (V - 1) < m <= 8 * V): the C row lives in V
/// accumulators for the whole k loop, loaded and stored once. The last
/// vector is masked to the row's tail — masked lanes load +0.0 and are
/// never stored — and the a(i,k) == 0.0 skip is the scalar kernel's.
template <std::size_t V>
void matmul_avx512_narrow(const double* a, std::size_t lda, const double* b,
                          std::size_t ldb, double* out, std::size_t ldo,
                          std::size_t n, std::size_t depth, std::size_t m) {
  constexpr std::size_t kLast = 8 * (V - 1);
  const __mmask8 tail = static_cast<__mmask8>(0xFFu >> (8 * V - m));
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    __m512d acc[V];
    for (std::size_t v = 0; v + 1 < V; ++v) {
      acc[v] = _mm512_loadu_pd(ci + 8 * v);
    }
    acc[V - 1] = _mm512_maskz_loadu_pd(tail, ci + kLast);
    for (std::size_t k = 0; k < depth; ++k) {
      const double aik = ai[k];
      if (aik == 0.0) continue;
      const double* bk = b + k * ldb;
      const __m512d va = _mm512_set1_pd(aik);
      for (std::size_t v = 0; v + 1 < V; ++v) {
        acc[v] = _mm512_add_pd(
            acc[v], _mm512_mul_pd(va, _mm512_loadu_pd(bk + 8 * v)));
      }
      acc[V - 1] = _mm512_add_pd(
          acc[V - 1],
          _mm512_mul_pd(va, _mm512_maskz_loadu_pd(tail, bk + kLast)));
    }
    for (std::size_t v = 0; v + 1 < V; ++v) {
      _mm512_storeu_pd(ci + 8 * v, acc[v]);
    }
    _mm512_mask_storeu_pd(ci + kLast, tail, acc[V - 1]);
  }
}

/// i-k-j with the scalar kernel's 128-column tile and a(i,k) == 0.0 skip;
/// the innermost contiguous j sweep runs 8 columns per vector. Widths up
/// to kMatmulRegisterWidth take the register path above.
void matmul_avx512(const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* out, std::size_t ldo,
                   std::size_t n, std::size_t depth, std::size_t m) {
  using Narrow = void (*)(const double*, std::size_t, const double*,
                          std::size_t, double*, std::size_t, std::size_t,
                          std::size_t, std::size_t);
  static constexpr Narrow kNarrow[] = {matmul_avx512_narrow<1>,
                                       matmul_avx512_narrow<2>,
                                       matmul_avx512_narrow<3>};
  static_assert(std::size(kNarrow) * 8 == kMatmulRegisterWidth);
  if (m == 0) return;
  if (m <= kMatmulRegisterWidth) {
    kNarrow[(m - 1) / 8](a, lda, b, ldb, out, ldo, n, depth, m);
    return;
  }
  constexpr std::size_t kColTile = 128;
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    for (std::size_t j0 = 0; j0 < m; j0 += kColTile) {
      const std::size_t j1 = std::min(j0 + kColTile, m);
      for (std::size_t k = 0; k < depth; ++k) {
        const double aik = ai[k];
        if (aik == 0.0) continue;
        const double* bk = b + k * ldb;
        const __m512d va = _mm512_set1_pd(aik);
        std::size_t j = j0;
        for (; j + 8 <= j1; j += 8) {
          const __m512d vb = _mm512_loadu_pd(bk + j);
          const __m512d vc = _mm512_loadu_pd(ci + j);
          _mm512_storeu_pd(ci + j,
                           _mm512_add_pd(vc, _mm512_mul_pd(va, vb)));
        }
        for (; j < j1; ++j) ci[j] += aik * bk[j];
      }
    }
  }
}

/// The j-tail shared by all row variants: 8-wide vectors, then one masked
/// vector for the final m % 8 columns. Masked lanes load as +0.0 and are
/// never stored, so the live lanes still perform the exact scalar
/// mul-then-add sequence (a dead lane may compute 0 * inf = nan, but it
/// is discarded by the masked store).
inline void gemm_tb_row_tail(const double* ai, const double* bt,
                             const double* bias, double* ci, std::size_t m,
                             std::size_t depth, std::size_t j) {
  for (; j + 8 <= m; j += 8) {
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t k = 0; k < depth; ++k) {
      const __m512d va = _mm512_set1_pd(ai[k]);
      const __m512d vb = _mm512_loadu_pd(bt + k * m + j);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(va, vb));
    }
    if (bias != nullptr) {
      acc = _mm512_add_pd(acc, _mm512_loadu_pd(bias + j));
    }
    _mm512_storeu_pd(ci + j, acc);
  }
  if (j < m) {
    const __mmask8 mask =
        static_cast<__mmask8>((1u << (m - j)) - 1u);  // m - j in [1, 7]
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t k = 0; k < depth; ++k) {
      const __m512d va = _mm512_set1_pd(ai[k]);
      const __m512d vb = _mm512_maskz_loadu_pd(mask, bt + k * m + j);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(va, vb));
    }
    if (bias != nullptr) {
      acc = _mm512_add_pd(acc, _mm512_maskz_loadu_pd(mask, bias + j));
    }
    _mm512_mask_storeu_pd(ci + j, mask, acc);
  }
}

void gemm_tb_avx512(const double* a, std::size_t lda, const double* b,
                    std::size_t ldb, const double* bias, double* out,
                    std::size_t ldo, std::size_t n, std::size_t m,
                    std::size_t depth) {
  thread_local AlignedBuffer bt_scratch;
  pack_b_transposed(b, ldb, m, depth, bt_scratch);
  const double* bt = bt_scratch.data();

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* a0 = a + i * lda;
    const double* a1 = a + (i + 1) * lda;
    const double* a2 = a + (i + 2) * lda;
    const double* a3 = a + (i + 3) * lda;
    double* c0 = out + i * ldo;
    double* c1 = out + (i + 1) * ldo;
    double* c2 = out + (i + 2) * ldo;
    double* c3 = out + (i + 3) * ldo;
    std::size_t j = 0;
    for (; j + 16 <= m; j += 16) {
      __m512d acc00 = _mm512_setzero_pd();
      __m512d acc01 = _mm512_setzero_pd();
      __m512d acc10 = _mm512_setzero_pd();
      __m512d acc11 = _mm512_setzero_pd();
      __m512d acc20 = _mm512_setzero_pd();
      __m512d acc21 = _mm512_setzero_pd();
      __m512d acc30 = _mm512_setzero_pd();
      __m512d acc31 = _mm512_setzero_pd();
      const double* btk = bt + j;
      for (std::size_t k = 0; k < depth; ++k, btk += m) {
        const __m512d vb0 = _mm512_loadu_pd(btk);
        const __m512d vb1 = _mm512_loadu_pd(btk + 8);
        const __m512d va0 = _mm512_set1_pd(a0[k]);
        const __m512d va1 = _mm512_set1_pd(a1[k]);
        const __m512d va2 = _mm512_set1_pd(a2[k]);
        const __m512d va3 = _mm512_set1_pd(a3[k]);
        acc00 = _mm512_add_pd(acc00, _mm512_mul_pd(va0, vb0));
        acc01 = _mm512_add_pd(acc01, _mm512_mul_pd(va0, vb1));
        acc10 = _mm512_add_pd(acc10, _mm512_mul_pd(va1, vb0));
        acc11 = _mm512_add_pd(acc11, _mm512_mul_pd(va1, vb1));
        acc20 = _mm512_add_pd(acc20, _mm512_mul_pd(va2, vb0));
        acc21 = _mm512_add_pd(acc21, _mm512_mul_pd(va2, vb1));
        acc30 = _mm512_add_pd(acc30, _mm512_mul_pd(va3, vb0));
        acc31 = _mm512_add_pd(acc31, _mm512_mul_pd(va3, vb1));
      }
      if (bias != nullptr) {
        const __m512d vbias0 = _mm512_loadu_pd(bias + j);
        const __m512d vbias1 = _mm512_loadu_pd(bias + j + 8);
        acc00 = _mm512_add_pd(acc00, vbias0);
        acc01 = _mm512_add_pd(acc01, vbias1);
        acc10 = _mm512_add_pd(acc10, vbias0);
        acc11 = _mm512_add_pd(acc11, vbias1);
        acc20 = _mm512_add_pd(acc20, vbias0);
        acc21 = _mm512_add_pd(acc21, vbias1);
        acc30 = _mm512_add_pd(acc30, vbias0);
        acc31 = _mm512_add_pd(acc31, vbias1);
      }
      _mm512_storeu_pd(c0 + j, acc00);
      _mm512_storeu_pd(c0 + j + 8, acc01);
      _mm512_storeu_pd(c1 + j, acc10);
      _mm512_storeu_pd(c1 + j + 8, acc11);
      _mm512_storeu_pd(c2 + j, acc20);
      _mm512_storeu_pd(c2 + j + 8, acc21);
      _mm512_storeu_pd(c3 + j, acc30);
      _mm512_storeu_pd(c3 + j + 8, acc31);
    }
    // 8-wide x 4 rows keeps eight chains alive through the narrower tail.
    for (; j + 8 <= m; j += 8) {
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      __m512d acc2 = _mm512_setzero_pd();
      __m512d acc3 = _mm512_setzero_pd();
      const double* btk = bt + j;
      for (std::size_t k = 0; k < depth; ++k, btk += m) {
        const __m512d vb = _mm512_loadu_pd(btk);
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(_mm512_set1_pd(a0[k]), vb));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(_mm512_set1_pd(a1[k]), vb));
        acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(_mm512_set1_pd(a2[k]), vb));
        acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(_mm512_set1_pd(a3[k]), vb));
      }
      if (bias != nullptr) {
        const __m512d vbias = _mm512_loadu_pd(bias + j);
        acc0 = _mm512_add_pd(acc0, vbias);
        acc1 = _mm512_add_pd(acc1, vbias);
        acc2 = _mm512_add_pd(acc2, vbias);
        acc3 = _mm512_add_pd(acc3, vbias);
      }
      _mm512_storeu_pd(c0 + j, acc0);
      _mm512_storeu_pd(c1 + j, acc1);
      _mm512_storeu_pd(c2 + j, acc2);
      _mm512_storeu_pd(c3 + j, acc3);
    }
    if (j < m) {
      // Masked 4-row column tail: one masked B load feeds four add
      // chains, keeping the tail throughput-bound like the main tile.
      const __mmask8 mask =
          static_cast<__mmask8>((1u << (m - j)) - 1u);  // m - j in [1, 7]
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      __m512d acc2 = _mm512_setzero_pd();
      __m512d acc3 = _mm512_setzero_pd();
      const double* btk = bt + j;
      for (std::size_t k = 0; k < depth; ++k, btk += m) {
        const __m512d vb = _mm512_maskz_loadu_pd(mask, btk);
        acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(_mm512_set1_pd(a0[k]), vb));
        acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(_mm512_set1_pd(a1[k]), vb));
        acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(_mm512_set1_pd(a2[k]), vb));
        acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(_mm512_set1_pd(a3[k]), vb));
      }
      if (bias != nullptr) {
        const __m512d vbias = _mm512_maskz_loadu_pd(mask, bias + j);
        acc0 = _mm512_add_pd(acc0, vbias);
        acc1 = _mm512_add_pd(acc1, vbias);
        acc2 = _mm512_add_pd(acc2, vbias);
        acc3 = _mm512_add_pd(acc3, vbias);
      }
      _mm512_mask_storeu_pd(c0 + j, mask, acc0);
      _mm512_mask_storeu_pd(c1 + j, mask, acc1);
      _mm512_mask_storeu_pd(c2 + j, mask, acc2);
      _mm512_mask_storeu_pd(c3 + j, mask, acc3);
    }
  }
  for (; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = out + i * ldo;
    std::size_t j = 0;
    for (; j + 16 <= m; j += 16) {
      __m512d acc0 = _mm512_setzero_pd();
      __m512d acc1 = _mm512_setzero_pd();
      const double* btk = bt + j;
      for (std::size_t k = 0; k < depth; ++k, btk += m) {
        const __m512d va = _mm512_set1_pd(ai[k]);
        acc0 = _mm512_add_pd(acc0,
                             _mm512_mul_pd(va, _mm512_loadu_pd(btk)));
        acc1 = _mm512_add_pd(acc1,
                             _mm512_mul_pd(va, _mm512_loadu_pd(btk + 8)));
      }
      if (bias != nullptr) {
        acc0 = _mm512_add_pd(acc0, _mm512_loadu_pd(bias + j));
        acc1 = _mm512_add_pd(acc1, _mm512_loadu_pd(bias + j + 8));
      }
      _mm512_storeu_pd(ci + j, acc0);
      _mm512_storeu_pd(ci + j + 8, acc1);
    }
    gemm_tb_row_tail(ai, bt, bias, ci, m, depth, j);
  }
}

/// Scalar max / exp / total (bit-carrying), 8-wide normalization divide.
void softmax_avx512(const double* logits, std::size_t n, double temperature,
                    double* out) {
  const double maxv = *std::max_element(logits, logits + n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = std::exp((logits[i] - maxv) / temperature);
    total += out[i];
  }
  const __m512d vtotal = _mm512_set1_pd(total);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i,
                     _mm512_div_pd(_mm512_loadu_pd(out + i), vtotal));
  }
  for (; i < n; ++i) out[i] /= total;
}

}  // namespace

const KernelTable* avx512_kernels() {
  // normal_planar/softmax_planar/gemm_tb_bf16/gemm_tb_i8 are this TU's
  // -mavx512f compilation of the shared generic bodies (kernels_planar.h,
  // kernels_quant.h).
  static constexpr KernelTable table{
      matmul_avx512,          gemm_tb_avx512,     softmax_avx512,
      normal_planar_generic,  softmax_planar_generic,
      gemm_tb_bf16_generic,   gemm_tb_i8_generic, "avx512"};
  return &table;
}

}  // namespace muffin::tensor::detail

#else  // !__AVX512F__

namespace muffin::tensor::detail {

const KernelTable* avx512_kernels() { return nullptr; }

}  // namespace muffin::tensor::detail

#endif
