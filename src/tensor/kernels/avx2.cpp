// AVX2+FMA backend (ISSUE 10). This TU is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt) on x86-64 toolchains and collapses to a stub
// elsewhere; dispatch.cpp additionally gates selection on CPUID, so the
// rest of the library stays portable baseline x86-64.
//
// Bit-compatibility contract (DESIGN.md §16): the GEMM variants and the
// gate fusion are deterministic but NOT bit-identical to the scalar
// reference — FMA contraction, register-tiled accumulation, vectorized dot
// reductions, and polynomial exp/tanh all move final-bit rounding. The
// conformance suite holds them to tight tolerances plus argmax identity.
// axpy and bias_add use lane-parallel mul+add only and remain bit-exact;
// softmax and argmax reuse the scalar reference outright.
//
// Workspace arena slices carry no alignment guarantee, so every vector
// memory access is unaligned (loadu/storeu).
#include "tensor/kernels/internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace desmine::tensor::kernels {

namespace {

inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// ---------------------------------------------------------------------------
// Vector exp: Cephes-style degree-5 polynomial on the reduced range, exact
// power-of-two scaling via the exponent field. ~1 ulp of relative error on
// the gate-activation range, clamped so σ/tanh saturate cleanly.
inline __m256 exp256_ps(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647950f);
  const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);          // ln2 high part
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);       // ln2 low part
  const __m256 p0 = _mm256_set1_ps(1.9875691500e-4f);
  const __m256 p1 = _mm256_set1_ps(1.3981999507e-3f);
  const __m256 p2 = _mm256_set1_ps(8.3334519073e-3f);
  const __m256 p3 = _mm256_set1_ps(4.1665795894e-2f);
  const __m256 p4 = _mm256_set1_ps(1.6666665459e-1f);
  const __m256 p5 = _mm256_set1_ps(5.0000001201e-1f);
  const __m256 one = _mm256_set1_ps(1.0f);

  x = _mm256_min_ps(x, hi);
  x = _mm256_max_ps(x, lo);

  // n = round(x / ln2); r = x - n * ln2 (split constant for precision).
  __m256 n = _mm256_round_ps(_mm256_mul_ps(x, log2e),
                             _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(n, c1, x);
  r = _mm256_fnmadd_ps(n, c2, r);

  __m256 r2 = _mm256_mul_ps(r, r);
  __m256 poly = p0;
  poly = _mm256_fmadd_ps(poly, r, p1);
  poly = _mm256_fmadd_ps(poly, r, p2);
  poly = _mm256_fmadd_ps(poly, r, p3);
  poly = _mm256_fmadd_ps(poly, r, p4);
  poly = _mm256_fmadd_ps(poly, r, p5);
  poly = _mm256_fmadd_ps(poly, r2, _mm256_add_ps(r, one));

  // 2^n via the exponent field.
  __m256i ni = _mm256_cvtps_epi32(n);
  ni = _mm256_add_epi32(ni, _mm256_set1_epi32(127));
  ni = _mm256_slli_epi32(ni, 23);
  return _mm256_mul_ps(poly, _mm256_castsi256_ps(ni));
}

inline __m256 sigmoid256_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = exp256_ps(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

inline __m256 tanh256_ps(__m256 x) {
  // tanh(x) = 2 σ(2x) - 1; exp's clamp saturates the far tails to ±1.
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 s = sigmoid256_ps(_mm256_mul_ps(two, x));
  return _mm256_fmsub_ps(two, s, one);
}

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
void gemm_nn_avx2(float alpha, ConstMatrixView a, ConstMatrixView b,
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
void gemm_tn_avx2(float alpha, ConstMatrixView a, ConstMatrixView b,
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
void gemm_nt_avx2(float alpha, ConstMatrixView a, ConstMatrixView b,
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

// Lane-parallel mul+add (no FMA): bit-exact vs the scalar reference.
void axpy_avx2(float alpha, ConstMatrixView x, MatrixView y) {
  const float* xs = x.data();
  float* ys = y.data();
  const std::size_t size = x.size();
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(xs + i));
    _mm256_storeu_ps(ys + i, _mm256_add_ps(_mm256_loadu_ps(ys + i), prod));
  }
  for (; i < size; ++i) ys[i] += alpha * xs[i];
}

// Lane-parallel add: bit-exact vs the scalar reference.
void bias_add_avx2(MatrixView m, ConstMatrixView bias) {
  const float* b = bias.row(0);
  const std::size_t n = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    std::size_t c = 0;
    for (; c + 8 <= n; c += 8) {
      _mm256_storeu_ps(
          row + c, _mm256_add_ps(_mm256_loadu_ps(row + c),
                                 _mm256_loadu_ps(b + c)));
    }
    for (; c < n; ++c) row[c] += b[c];
  }
}

void lstm_gates_avx2(ConstMatrixView z, ConstMatrixView c_prev,
                     const LstmGateViews& out) {
  const std::size_t B = c_prev.rows();
  const std::size_t H = c_prev.cols();
  const std::size_t h8 = H - H % 8;
  for (std::size_t r = 0; r < B; ++r) {
    const float* zr = z.row(r);
    const float* cp = c_prev.row(r);
    float* ir = out.i.row(r);
    float* fr = out.f.row(r);
    float* gr = out.g.row(r);
    float* orow = out.o.row(r);
    float* cr = out.c.row(r);
    float* tcr = out.tanh_c.row(r);
    float* hr = out.h.row(r);
    std::size_t k = 0;
    for (; k < h8; k += 8) {
      const __m256 iv = sigmoid256_ps(_mm256_loadu_ps(zr + k));
      const __m256 fv = sigmoid256_ps(_mm256_loadu_ps(zr + H + k));
      const __m256 gv = tanh256_ps(_mm256_loadu_ps(zr + 2 * H + k));
      const __m256 ov = sigmoid256_ps(_mm256_loadu_ps(zr + 3 * H + k));
      const __m256 cpv = _mm256_loadu_ps(cp + k);  // before storing c: alias
      const __m256 cv =
          _mm256_fmadd_ps(fv, cpv, _mm256_mul_ps(iv, gv));
      const __m256 tcv = tanh256_ps(cv);
      const __m256 hv = _mm256_mul_ps(ov, tcv);
      _mm256_storeu_ps(ir + k, iv);
      _mm256_storeu_ps(fr + k, fv);
      _mm256_storeu_ps(gr + k, gv);
      _mm256_storeu_ps(orow + k, ov);
      _mm256_storeu_ps(cr + k, cv);
      _mm256_storeu_ps(tcr + k, tcv);
      _mm256_storeu_ps(hr + k, hv);
    }
    for (; k < H; ++k) {  // libm tail (rarely taken: H % 8 != 0)
      ir[k] = sigmoidf(zr[k]);
      fr[k] = sigmoidf(zr[H + k]);
      gr[k] = std::tanh(zr[2 * H + k]);
      orow[k] = sigmoidf(zr[3 * H + k]);
      const float cv = fr[k] * cp[k] + ir[k] * gr[k];
      cr[k] = cv;
      tcr[k] = std::tanh(cv);
      hr[k] = orow[k] * tcr[k];
    }
  }
}

}  // namespace

const Ops* avx2_ops() {
  static const Ops ops = [] {
    Ops ops = scalar_ops();  // softmax + argmax: scalar reference, bit-exact
    ops.gemm_nn = &gemm_nn_avx2;
    ops.gemm_tn = &gemm_tn_avx2;
    ops.gemm_nt = &gemm_nt_avx2;
    // gemm_tt stays scalar: the fourth variant backs no hot path.
    ops.axpy = &axpy_avx2;
    ops.bias_add = &bias_add_avx2;
    ops.lstm_gates = &lstm_gates_avx2;
    return ops;
  }();
  return &ops;
}

}  // namespace desmine::tensor::kernels

#else  // !(__AVX2__ && __FMA__)

namespace desmine::tensor::kernels {

const Ops* avx2_ops() { return nullptr; }

}  // namespace desmine::tensor::kernels

#endif
