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
// Their own bits are pinned as well (tests/golden/train_pair_avx2.golden,
// the bench/e2e digests, and test_kernels' comparison against a frozen copy
// of these GEMMs): a change may re-tile, but every output element must keep
// its FMA lane chain, horizontal-sum tree and scalar tail order.
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

// Four horizontal sums at once: lane c of the result is hsum256_ps(v_c),
// bit for bit. Each step is the same add on the same operands, with the
// four vectors transposed so one instruction serves all of them:
// lo+hi halves, then (l0+l4)+(l2+l6) and (l1+l5)+(l3+l7), then their sum.
inline __m128 hsum4x256_ps(__m256 v0, __m256 v1, __m256 v2, __m256 v3) {
  // x = [s0 | s1], y = [s2 | s3] with s_c = lo(v_c) + hi(v_c) = (a b c d).
  const __m256 x = _mm256_add_ps(_mm256_permute2f128_ps(v0, v1, 0x20),
                                 _mm256_permute2f128_ps(v0, v1, 0x31));
  const __m256 y = _mm256_add_ps(_mm256_permute2f128_ps(v2, v3, 0x20),
                                 _mm256_permute2f128_ps(v2, v3, 0x31));
  // (a0 b0 a2 b2 | a1 b1 a3 b3) + (c0 d0 c2 d2 | c1 d1 c3 d3).
  const __m256 z = _mm256_add_ps(
      _mm256_shuffle_ps(x, y, _MM_SHUFFLE(1, 0, 1, 0)),
      _mm256_shuffle_ps(x, y, _MM_SHUFFLE(3, 2, 3, 2)));
  // (h0 h2 h0 h2 | h1 h3 h1 h3) -> (h0 h1 h2 h3).
  const __m256 h = _mm256_hadd_ps(z, z);
  return _mm_unpacklo_ps(_mm256_castps256_ps128(h),
                         _mm256_extractf128_ps(h, 1));
}

// ---------------------------------------------------------------------------
// out += alpha * op(A) B with op(A) = A (gemm_nn) or A^T (gemm_tn, A stored
// k x m). Every vector output element is one FMA chain over p, started
// from zero, of broadcast(alpha * op(A)(i, p)) * B(p, j), added to out once
// at the end; the last n % 8 columns are a mul-then-add scalar dot scaled
// by alpha. The tiling only decides how many of those chains run at once:
// R rows x NB 8-column blocks, all live in registers across the p loop
// (the unroll pragmas let the compiler keep acc[][] out of memory).
template <bool kTransA, int R, int NB>
[[gnu::always_inline]] inline void gemm_xn_tile(
    float alpha, ConstMatrixView a, ConstMatrixView b, MatrixView out,
    std::size_t k, std::size_t i, std::size_t j) {
  __m256 acc[R][NB];
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 8
    for (int c = 0; c < NB; ++c) acc[r][c] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* brow = b.row(p) + j;
    __m256 bv[NB];
    #pragma GCC unroll 8
    for (int c = 0; c < NB; ++c) bv[c] = _mm256_loadu_ps(brow + 8 * c);
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const float av = kTransA ? a(p, i + r) : a(i + r, p);
      const __m256 avv = _mm256_set1_ps(alpha * av);
      #pragma GCC unroll 8
      for (int c = 0; c < NB; ++c) {
        acc[r][c] = _mm256_fmadd_ps(avv, bv[c], acc[r][c]);
      }
    }
  }
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* o = out.row(i + r) + j;
    #pragma GCC unroll 8
    for (int c = 0; c < NB; ++c) {
      _mm256_storeu_ps(o + 8 * c,
                       _mm256_add_ps(_mm256_loadu_ps(o + 8 * c), acc[r][c]));
    }
  }
}

// R rows starting at i: 32-column tiles, then every remaining 8-column
// block in one tile, then the scalar columns.
template <bool kTransA, int R>
inline void gemm_xn_rows(float alpha, ConstMatrixView a, ConstMatrixView b,
                         MatrixView out, std::size_t k, std::size_t i) {
  const std::size_t n = b.cols();
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    gemm_xn_tile<kTransA, R, 4>(alpha, a, b, out, k, i, j);
  }
  switch ((n - j) / 8) {
    case 3:
      gemm_xn_tile<kTransA, R, 3>(alpha, a, b, out, k, i, j);
      break;
    case 2:
      gemm_xn_tile<kTransA, R, 2>(alpha, a, b, out, k, i, j);
      break;
    case 1:
      gemm_xn_tile<kTransA, R, 1>(alpha, a, b, out, k, i, j);
      break;
    default:
      break;
  }
  for (j = n - n % 8; j < n; ++j) {
    float d[R] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const float bv = b(p, j);
      for (int r = 0; r < R; ++r) {
        d[r] += (kTransA ? a(p, i + r) : a(i + r, p)) * bv;
      }
    }
    for (int r = 0; r < R; ++r) out(i + r, j) += alpha * d[r];
  }
}

template <bool kTransA>
void gemm_xn_avx2(float alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView out) {
  const std::size_t m = kTransA ? a.cols() : a.rows();
  const std::size_t k = kTransA ? a.rows() : a.cols();
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) gemm_xn_rows<kTransA, 2>(alpha, a, b, out, k, i);
  if (i < m) gemm_xn_rows<kTransA, 1>(alpha, a, b, out, k, i);
}

// out += alpha * A B^T: contiguous-row dot products. Each output element is
// an 8-lane FMA chain over the first k - k % 8 columns, reduced by the
// hsum256_ps tree, then the scalar mul-then-add tail, then out += alpha *
// dot. R rows x 4 columns of chains run at once, and hsum4x256_ps reduces
// each row's four in one pass.
template <int R>
inline void gemm_nt_rows(float alpha, ConstMatrixView a, ConstMatrixView b,
                         MatrixView out, std::size_t i) {
  const std::size_t k = a.cols(), n = b.rows();
  const std::size_t k8 = k - k % 8;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const float* bj[4] = {b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3)};
    __m256 acc[R][4];
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      #pragma GCC unroll 8
      for (int c = 0; c < 4; ++c) acc[r][c] = _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k8; p += 8) {
      __m256 bv[4];
      #pragma GCC unroll 8
      for (int c = 0; c < 4; ++c) bv[c] = _mm256_loadu_ps(bj[c] + p);
      #pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        const __m256 av = _mm256_loadu_ps(a.row(i + r) + p);
        #pragma GCC unroll 8
        for (int c = 0; c < 4; ++c) {
          acc[r][c] = _mm256_fmadd_ps(av, bv[c], acc[r][c]);
        }
      }
    }
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      // Lane c: dot_c, then dot_c += a[p] * b_c[p] (mul, then add), then
      // out += alpha * dot_c — the scalar tail's operations, four at once.
      const float* arow = a.row(i + r);
      __m128 d = hsum4x256_ps(acc[r][0], acc[r][1], acc[r][2], acc[r][3]);
      for (std::size_t p = k8; p < k; ++p) {
        const __m128 bp = _mm_setr_ps(bj[0][p], bj[1][p], bj[2][p], bj[3][p]);
        d = _mm_add_ps(d, _mm_mul_ps(_mm_set1_ps(arow[p]), bp));
      }
      float* o = out.row(i + r) + j;
      _mm_storeu_ps(o, _mm_add_ps(_mm_loadu_ps(o),
                                  _mm_mul_ps(_mm_set1_ps(alpha), d)));
    }
  }
  for (; j < n; ++j) {
    const float* brow = b.row(j);
    for (int r = 0; r < R; ++r) {
      const float* arow = a.row(i + r);
      __m256 acc = _mm256_setzero_ps();
      for (std::size_t p = 0; p < k8; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      }
      float dot = hsum256_ps(acc);
      for (std::size_t p = k8; p < k; ++p) dot += arow[p] * brow[p];
      out(i + r, j) += alpha * dot;
    }
  }
}

void gemm_nt_avx2(float alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView out) {
  const std::size_t m = a.rows();
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) gemm_nt_rows<2>(alpha, a, b, out, i);
  if (i < m) gemm_nt_rows<1>(alpha, a, b, out, i);
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
    ops.gemm_nn = &gemm_xn_avx2<false>;
    ops.gemm_tn = &gemm_xn_avx2<true>;
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
