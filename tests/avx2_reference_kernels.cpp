// Frozen copy of the avx2 GEMM kernels as they stood before their
// register re-tiling (DESIGN.md §16). test_kernels compares the live avx2
// backend against these bit for bit: a re-tiled kernel may change how many
// accumulators are in flight, never the operation sequence that produces
// an output element. Built with the library's avx2 flags
// (-mavx2 -mfma -ffp-contract=off, tests/CMakeLists.txt); do not edit the
// kernel bodies — they are the reference.
#include "avx2_reference_kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace desmine::reference {

namespace {

using tensor::ConstMatrixView;
using tensor::MatrixView;

inline float hsum256_ps(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

// ---------------------------------------------------------------------------
// out += alpha * A B. Register-tiled: 2 rows of A x 32 columns of out live
// in 8 accumulators across the whole k loop, so out traffic is one
// load/store pair per tile and B rows are shared between the two A rows.
void frozen_gemm_nn(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const std::size_t n32 = n - n % 32;

  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const float* a0 = a.row(i);
    const float* a1 = a.row(i + 1);
    float* o0 = out.row(i);
    float* o1 = out.row(i + 1);
    for (std::size_t j = 0; j < n32; j += 32) {
      __m256 acc00 = _mm256_setzero_ps(), acc01 = _mm256_setzero_ps();
      __m256 acc02 = _mm256_setzero_ps(), acc03 = _mm256_setzero_ps();
      __m256 acc10 = _mm256_setzero_ps(), acc11 = _mm256_setzero_ps();
      __m256 acc12 = _mm256_setzero_ps(), acc13 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b.row(p) + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        const __m256 av0 = _mm256_set1_ps(alpha * a0[p]);
        const __m256 av1 = _mm256_set1_ps(alpha * a1[p]);
        acc00 = _mm256_fmadd_ps(av0, b0, acc00);
        acc01 = _mm256_fmadd_ps(av0, b1, acc01);
        acc02 = _mm256_fmadd_ps(av0, b2, acc02);
        acc03 = _mm256_fmadd_ps(av0, b3, acc03);
        acc10 = _mm256_fmadd_ps(av1, b0, acc10);
        acc11 = _mm256_fmadd_ps(av1, b1, acc11);
        acc12 = _mm256_fmadd_ps(av1, b2, acc12);
        acc13 = _mm256_fmadd_ps(av1, b3, acc13);
      }
      _mm256_storeu_ps(o0 + j, _mm256_add_ps(_mm256_loadu_ps(o0 + j), acc00));
      _mm256_storeu_ps(o0 + j + 8,
                       _mm256_add_ps(_mm256_loadu_ps(o0 + j + 8), acc01));
      _mm256_storeu_ps(o0 + j + 16,
                       _mm256_add_ps(_mm256_loadu_ps(o0 + j + 16), acc02));
      _mm256_storeu_ps(o0 + j + 24,
                       _mm256_add_ps(_mm256_loadu_ps(o0 + j + 24), acc03));
      _mm256_storeu_ps(o1 + j, _mm256_add_ps(_mm256_loadu_ps(o1 + j), acc10));
      _mm256_storeu_ps(o1 + j + 8,
                       _mm256_add_ps(_mm256_loadu_ps(o1 + j + 8), acc11));
      _mm256_storeu_ps(o1 + j + 16,
                       _mm256_add_ps(_mm256_loadu_ps(o1 + j + 16), acc12));
      _mm256_storeu_ps(o1 + j + 24,
                       _mm256_add_ps(_mm256_loadu_ps(o1 + j + 24), acc13));
    }
    // Column remainder: 8-wide then scalar.
    for (std::size_t j = n32; j + 8 <= n; j += 8) {
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 bv = _mm256_loadu_ps(b.row(p) + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a0[p]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a1[p]), bv, acc1);
      }
      _mm256_storeu_ps(o0 + j, _mm256_add_ps(_mm256_loadu_ps(o0 + j), acc0));
      _mm256_storeu_ps(o1 + j, _mm256_add_ps(_mm256_loadu_ps(o1 + j), acc1));
    }
    for (std::size_t j = n - n % 8; j < n; ++j) {
      float d0 = 0.0f, d1 = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        d0 += a0[p] * b(p, j);
        d1 += a1[p] * b(p, j);
      }
      o0[j] += alpha * d0;
      o1[j] += alpha * d1;
    }
  }
  for (; i < m; ++i) {  // odd final row
    const float* arow = a.row(i);
    float* orow = out.row(i);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(alpha * arow[p]),
                              _mm256_loadu_ps(b.row(p) + j), acc);
      }
      _mm256_storeu_ps(orow + j,
                       _mm256_add_ps(_mm256_loadu_ps(orow + j), acc));
    }
    for (; j < n; ++j) {
      float dot = 0.0f;
      for (std::size_t p = 0; p < k; ++p) dot += arow[p] * b(p, j);
      orow[j] += alpha * dot;
    }
  }
}

// out += alpha * A^T B, A stored (k x m). Same register tiling as gemm_nn
// with the A access transposed (a(p, i) is a strided scalar load, which the
// broadcast hides behind the FMA chain).
void frozen_gemm_tn(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    float* orow = out.row(i);
    std::size_t j = 0;
    for (; j + 32 <= n; j += 32) {
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 av = _mm256_set1_ps(alpha * a(p, i));
        const float* brow = b.row(p) + j;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 24), acc3);
      }
      _mm256_storeu_ps(orow + j,
                       _mm256_add_ps(_mm256_loadu_ps(orow + j), acc0));
      _mm256_storeu_ps(orow + j + 8,
                       _mm256_add_ps(_mm256_loadu_ps(orow + j + 8), acc1));
      _mm256_storeu_ps(orow + j + 16,
                       _mm256_add_ps(_mm256_loadu_ps(orow + j + 16), acc2));
      _mm256_storeu_ps(orow + j + 24,
                       _mm256_add_ps(_mm256_loadu_ps(orow + j + 24), acc3));
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(alpha * a(p, i)),
                              _mm256_loadu_ps(b.row(p) + j), acc);
      }
      _mm256_storeu_ps(orow + j,
                       _mm256_add_ps(_mm256_loadu_ps(orow + j), acc));
    }
    for (; j < n; ++j) {
      float dot = 0.0f;
      for (std::size_t p = 0; p < k; ++p) dot += a(p, i) * b(p, j);
      orow[j] += alpha * dot;
    }
  }
}

// out += alpha * A B^T: contiguous-row dot products, 4 B rows sharing each
// A load, lane accumulators + horizontal sum (reduction order differs from
// scalar — tolerance contract).
void frozen_gemm_nt(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const std::size_t k8 = k - k % 8;
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b.row(j);
      const float* b1 = b.row(j + 1);
      const float* b2 = b.row(j + 2);
      const float* b3 = b.row(j + 3);
      __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k8; p += 8) {
        const __m256 av = _mm256_loadu_ps(arow + p);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + p), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + p), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + p), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + p), acc3);
      }
      float d0 = hsum256_ps(acc0), d1 = hsum256_ps(acc1);
      float d2 = hsum256_ps(acc2), d3 = hsum256_ps(acc3);
      for (std::size_t p = k8; p < k; ++p) {
        d0 += arow[p] * b0[p];
        d1 += arow[p] * b1[p];
        d2 += arow[p] * b2[p];
        d3 += arow[p] * b3[p];
      }
      orow[j] += alpha * d0;
      orow[j + 1] += alpha * d1;
      orow[j + 2] += alpha * d2;
      orow[j + 3] += alpha * d3;
    }
    for (; j < n; ++j) {
      const float* brow = b.row(j);
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k8; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      }
      float dot = hsum256_ps(acc);
      for (std::size_t p = k8; p < k; ++p) dot += arow[p] * brow[p];
      orow[j] += alpha * dot;
    }
  }
}

}  // namespace

bool frozen_avx2_gemm(tensor::Transpose ta, tensor::Transpose tb, float alpha,
                      ConstMatrixView a, ConstMatrixView b, MatrixView out) {
  if (ta == tensor::Transpose::kNo && tb == tensor::Transpose::kNo) {
    frozen_gemm_nn(alpha, a, b, out);
  } else if (ta == tensor::Transpose::kTrans && tb == tensor::Transpose::kNo) {
    frozen_gemm_tn(alpha, a, b, out);
  } else if (ta == tensor::Transpose::kNo && tb == tensor::Transpose::kTrans) {
    frozen_gemm_nt(alpha, a, b, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace desmine::reference

#else  // !(__AVX2__ && __FMA__)

namespace desmine::reference {

bool frozen_avx2_gemm(tensor::Transpose, tensor::Transpose, float,
                      tensor::ConstMatrixView, tensor::ConstMatrixView,
                      tensor::MatrixView) {
  return false;
}

}  // namespace desmine::reference

#endif
