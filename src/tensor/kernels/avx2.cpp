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
// axpy, bias_add, dot_rows_t and weighted_rows use lane-parallel mul+add
// only and remain bit-exact; exp and tanh are exact ports of glibc's expf
// (its FMA variant) and tanhf, so they are bit-exact too. softmax keeps the
// scalar row max and row sum around the exp port; argmax keeps the scalar
// first-maximum answer (a row holding a NaN runs the scalar scan).
//
// Workspace arena slices carry no alignment guarantee, so every vector
// memory access is unaligned (loadu/storeu).
#include "tensor/kernels/internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

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

// ---------------------------------------------------------------------------
// tanhf, bit-exact: a lane-for-lane transcription of fdlibm's s_tanhf.c and
// s_expm1f.c as glibc ships them (plain single-precision SSE code, no FMA
// variant). Only IEEE single mul/add/sub/div appear, in the C sources'
// order (this TU is -ffp-contract=off); the float -> int conversion
// truncates like C's (cvttps); 2^k scaling adds k to the exponent field;
// each `if` of the C code becomes a blend. Checked equal to glibc 2.36's
// tanhf on all 2^32 inputs (DESIGN.md §16); test_kernels re-checks a
// sweep against std::tanh on every run.
inline __m256i set1_epi32(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<int>(v));
}

inline __m256 blend_ps(__m256 if_false, __m256 if_true, __m256i mask) {
  return _mm256_blendv_ps(if_false, if_true, _mm256_castsi256_ps(mask));
}

// expm1f(a) for the arguments tanhf passes it: a = 2|x| >= 2 or
// a = -2|x| with 2^-54 <= |a| < 2 (other lanes are overwritten by the
// caller), so expm1f's huge/non-finite filter never fires and its k == 1
// branch (0.5 ln2 < a < 1.5 ln2) is unreachable. `ha` holds |a|'s bits,
// `neg` is all-ones in lanes where a < 0.
inline __m256 expm1f_tanh_ps(__m256 a, __m256i ha, __m256i neg) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  // Argument reduction: a = k ln2 + r, r = hi - lo with correction c.
  //   |a| <= 0.5 ln2:          k = 0 (and hi = a, lo = c = 0 below)
  //   0.5 ln2 < |a| < 1.5 ln2: k = ±1
  //   otherwise:               k = (int)(invln2 * a ± 0.5)
  const __m256 sign_half =
      _mm256_or_ps(half, _mm256_castsi256_ps(_mm256_slli_epi32(neg, 31)));
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(
      _mm256_mul_ps(_mm256_set1_ps(1.4426950216e+00f), a), sign_half));
  k = _mm256_blendv_epi8(k, _mm256_or_si256(neg, _mm256_set1_epi32(1)),
                         _mm256_cmpgt_epi32(set1_epi32(0x3f851592), ha));
  k = _mm256_and_si256(k, _mm256_cmpgt_epi32(ha, set1_epi32(0x3eb17218)));
  // t * ln2_hi is exact, and t = ±1 / 0 reproduce the k = ±1 / k = 0
  // branches' hi and lo bit for bit.
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(
      a, _mm256_mul_ps(t, _mm256_set1_ps(6.9313812256e-01f)));
  const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(9.0580006145e-06f));
  const __m256 x = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);

  // x is now in the primary range.
  const __m256 hfx = _mm256_mul_ps(half, x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  // r1 = one+hxs*(Q1+hxs*(Q2+hxs*(Q3+hxs*(Q4+hxs*Q5)))), innermost first.
  const float q[] = {-3.3333335072e-02f, 1.5873016091e-03f,
                     -7.9365076090e-05f, 4.0082177293e-06f};
  __m256 r1 = _mm256_mul_ps(hxs, _mm256_set1_ps(-2.0109921195e-07f));
  for (int i = 3; i >= 0; --i) {
    r1 = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(q[i]), r1));
  }
  r1 = _mm256_add_ps(one, r1);
  const __m256 tt = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, tt),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(x, tt))));
  // k == 0: x - (x*e - hxs).
  const __m256 r_k0 =
      _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  e = _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c);
  e = _mm256_sub_ps(e, hxs);
  // k == -1: 0.5*(x-e) - 0.5.
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(x, e)), half);
  const __m256i kexp = _mm256_slli_epi32(k, 23);
  const __m256 emx = _mm256_sub_ps(e, x);
  // k <= -2 or k > 56: y = one-(e-x) scaled by 2^k, minus one.
  const __m256 r_far = _mm256_sub_ps(
      _mm256_castsi256_ps(_mm256_add_epi32(
          _mm256_castps_si256(_mm256_sub_ps(one, emx)), kexp)),
      one);
  // 2 <= k <= 22: t = 1 - 2^-k; y = t-(e-x) scaled by 2^k.
  const __m256 t_lo = _mm256_castsi256_ps(_mm256_sub_epi32(
      set1_epi32(0x3f800000), _mm256_srlv_epi32(set1_epi32(0x1000000), k)));
  const __m256 r_lo = _mm256_castsi256_ps(_mm256_add_epi32(
      _mm256_castps_si256(_mm256_sub_ps(t_lo, emx)), kexp));
  // 23 <= k <= 56: t = 2^-k; y = (x-(e+t)) + one scaled by 2^k.
  const __m256 t_hi = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(set1_epi32(0x7f), k), 23));
  const __m256 r_hi = _mm256_castsi256_ps(_mm256_add_epi32(
      _mm256_castps_si256(
          _mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t_hi)), one)),
      kexp));

  __m256 y = blend_ps(r_hi, r_lo, _mm256_cmpgt_epi32(set1_epi32(23), k));
  y = blend_ps(y, r_far,
               _mm256_or_si256(_mm256_cmpgt_epi32(set1_epi32(0xffffffff), k),
                               _mm256_cmpgt_epi32(k, set1_epi32(56))));
  y = blend_ps(y, r_km1, _mm256_cmpeq_epi32(k, set1_epi32(0xffffffff)));
  y = blend_ps(y, r_k0, _mm256_cmpeq_epi32(k, _mm256_setzero_si256()));
  // |a| < 2^-25: expm1f returns a.
  return blend_ps(y, a, _mm256_cmpgt_epi32(set1_epi32(0x33000000), ha));
}

inline __m256 tanhf256_ps(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256i jx = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(jx, set1_epi32(0x7fffffff));
  // |x| >= 1: t = expm1f(2|x|), z = one - two/(t+two).
  // |x| <  1: t = expm1f(-2|x|), z = -t/(t+two).
  const __m256i ge1 = _mm256_cmpgt_epi32(ix, set1_epi32(0x3f7fffff));
  const __m256 two_ax = _mm256_mul_ps(two, _mm256_castsi256_ps(ix));
  const __m256i neg = _mm256_xor_si256(ge1, set1_epi32(0xffffffff));
  const __m256 a = _mm256_xor_ps(
      two_ax, _mm256_castsi256_ps(_mm256_slli_epi32(neg, 31)));
  const __m256 t =
      expm1f_tanh_ps(a, _mm256_castps_si256(two_ax), neg);
  const __m256 den = _mm256_add_ps(t, two);
  __m256 z = blend_ps(
      _mm256_div_ps(_mm256_xor_ps(t, _mm256_set1_ps(-0.0f)), den),
      _mm256_sub_ps(one, _mm256_div_ps(two, den)), ge1);
  // |x| >= 22: z = one - tiny, which rounds to 1.
  z = blend_ps(z, one, _mm256_cmpgt_epi32(ix, set1_epi32(0x41afffff)));
  // tanh is odd: the sign of x onto z.
  __m256 r = _mm256_xor_ps(
      z, _mm256_castsi256_ps(_mm256_and_si256(jx, set1_epi32(0x80000000))));
  // |x| < 2^-55 (±0 included): x*(one+x).
  r = blend_ps(r, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
               _mm256_cmpgt_epi32(set1_epi32(0x24000000), ix));
  // inf / NaN: one/x ± one.
  const __m256i nonfinite = _mm256_cmpgt_epi32(ix, set1_epi32(0x7f7fffff));
  if (_mm256_movemask_ps(_mm256_castsi256_ps(nonfinite)) != 0) {
    const __m256 inv = _mm256_div_ps(one, x);
    const __m256 special =
        blend_ps(_mm256_add_ps(inv, one), _mm256_sub_ps(inv, one),
                 _mm256_cmpgt_epi32(_mm256_setzero_si256(), jx));
    r = blend_ps(r, special, nonfinite);
  }
  return r;
}

// ---------------------------------------------------------------------------
// expf, bit-exact: a lane-for-lane port of glibc's __expf_fma, the variant
// its ifunc selects on every CPU this backend accepts (AVX2+FMA). The C
// source (sysdeps/ieee754/flt-32/e_expf.c) computes in double; built with
// -mfma its expressions contract as objdump of libm.so.6 shows:
//   kd = fma(InvLn2N, xd, Shift)            ki = bits(kd)
//   r  = fma(InvLn2N, xd, -(kd - Shift))    s  = T[ki & 31] + (ki << 47)
//   y  = fma(fma(C0, r, C1), r * r, fma(C2, r, 1)) * s, rounded to float.
// The constants are __exp2f_data's (invln2_scaled, shift, poly_scaled and
// tab), read from that same binary. Lanes with |x| >= 88, inf or NaN take
// glibc's special-case branches, so they call std::exp. Checked equal to
// glibc 2.36's expf on all 2^32 inputs (DESIGN.md §16); test_kernels
// re-checks a sweep against std::exp on every run.
alignas(32) constexpr std::int64_t kExp2fTab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

// The main path on four lanes, in double.
inline __m128 expf_main_ps(__m128 x) {
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d inv_ln2_n = _mm256_set1_pd(0x1.71547652b82fep+5);
  const __m256d shift = _mm256_set1_pd(0x1.8p+52);
  const __m256d kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  const __m256d r =
      _mm256_fmsub_pd(inv_ln2_n, xd, _mm256_sub_pd(kd, shift));
  const __m256i t = _mm256_add_epi64(
      _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExp2fTab),
                             _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8),
      _mm256_slli_epi64(ki, 47));
  const __m256d z = _mm256_fmadd_pd(
      _mm256_set1_pd(0x1.c6af84b912394p-20), r,
      _mm256_set1_pd(0x1.ebfce50fac4f3p-13));
  const __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(0x1.62e42ff0c52d6p-6), r,
                                    _mm256_set1_pd(1.0));
  return _mm256_cvtpd_ps(_mm256_mul_pd(
      _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y), _mm256_castsi256_pd(t)));
}

inline __m256 expf256_ps(__m256 x) {
  __m256 r = _mm256_set_m128(expf_main_ps(_mm256_extractf128_ps(x, 1)),
                             expf_main_ps(_mm256_castps256_ps128(x)));
  // top12(|x|) >= top12(88.0f): glibc's special-case branches.
  const __m256i special = _mm256_cmpgt_epi32(
      _mm256_and_si256(_mm256_castps_si256(x), set1_epi32(0x7fffffff)),
      set1_epi32(0x42afffff));
  const int lanes = _mm256_movemask_ps(_mm256_castsi256_ps(special));
  if (lanes != 0) {
    alignas(32) float xs[8], rs[8];
    _mm256_store_ps(xs, x);
    _mm256_store_ps(rs, r);
    for (int i = 0; i < 8; ++i) {
      if ((lanes >> i) & 1) rs[i] = std::exp(xs[i]);
    }
    r = _mm256_load_ps(rs);
  }
  return r;
}

// p[i] = f(p[i]) for a lane-parallel f; the tail runs through the same f,
// zero padded.
template <typename F>
inline void map_inplace(float* p, std::size_t n, F f) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(p + i, f(_mm256_loadu_ps(p + i)));
  if (i < n) {
    float tail[8] = {};
    std::copy(p + i, p + n, tail);
    _mm256_storeu_ps(tail, f(_mm256_loadu_ps(tail)));
    std::copy(tail, tail + (n - i), p + i);
  }
}

void tanh_avx2(MatrixView m) {
  map_inplace(m.data(), m.size(), [](__m256 v) { return tanhf256_ps(v); });
}

void exp_avx2(MatrixView m) {
  map_inplace(m.data(), m.size(), [](__m256 v) { return expf256_ps(v); });
}

// The scalar reference's row max, exps and row sum, in its order; only the
// exps (x - max, then the expf port) and the final scaling run in lanes.
void softmax_rows_avx2(MatrixView m) {
  const std::size_t n = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    float mx = row[0];
    for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, row[c]);
    const __m256 mxv = _mm256_set1_ps(mx);
    map_inplace(row, n, [mxv](__m256 v) {
      return expf256_ps(_mm256_sub_ps(v, mxv));
    });
    float sum = 0.0f;
    for (std::size_t c = 0; c < n; ++c) sum += row[c];
    const float inv = 1.0f / sum;
    const __m256 invv = _mm256_set1_ps(inv);
    std::size_t c = 0;
    for (; c + 8 <= n; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_mul_ps(_mm256_loadu_ps(row + c), invv));
    }
    for (; c < n; ++c) row[c] *= inv;
  }
}

// The scalar reference's scan: strict `>`, the first maximum wins.
inline std::size_t argmax_scan(const float* row, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < n; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

// The scan's answer for a row of n >= 8 columns. Strict `>` per lane keeps
// each lane's first maximum (lane l sees the columns l, l + 8, ...); the
// smallest column among the lanes equal to the overall maximum is then the
// row's first maximum, and the scalar tail columns come after every lane's.
// A NaN anywhere defeats that argument, so such a row runs the scan.
inline std::size_t argmax_lanes(const float* row, std::size_t n) {
  const std::size_t n8 = n - n % 8;
  __m256 bv = _mm256_loadu_ps(row);
  __m256i bi = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i ci = bi;
  __m256 nan = _mm256_cmp_ps(bv, bv, _CMP_UNORD_Q);
  for (std::size_t c = 8; c < n8; c += 8) {
    const __m256 v = _mm256_loadu_ps(row + c);
    ci = _mm256_add_epi32(ci, _mm256_set1_epi32(8));
    const __m256 gt = _mm256_cmp_ps(v, bv, _CMP_GT_OQ);
    bv = _mm256_blendv_ps(bv, v, gt);
    bi = _mm256_blendv_epi8(bi, ci, _mm256_castps_si256(gt));
    nan = _mm256_or_ps(nan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  }
  bool has_nan = _mm256_movemask_ps(nan) != 0;
  for (std::size_t c = n8; c < n; ++c) has_nan = has_nan || std::isnan(row[c]);
  if (has_nan) return argmax_scan(row, n);

  // The maximum in every lane, then the smallest column holding it.
  __m256 mx = _mm256_max_ps(bv, _mm256_permute2f128_ps(bv, bv, 1));
  mx = _mm256_max_ps(mx, _mm256_permute_ps(mx, _MM_SHUFFLE(1, 0, 3, 2)));
  mx = _mm256_max_ps(mx, _mm256_permute_ps(mx, _MM_SHUFFLE(2, 3, 0, 1)));
  __m256i idx = _mm256_blendv_epi8(
      set1_epi32(0x7fffffff), bi,
      _mm256_castps_si256(_mm256_cmp_ps(bv, mx, _CMP_EQ_OQ)));
  idx = _mm256_min_epi32(idx, _mm256_permute2x128_si256(idx, idx, 1));
  idx = _mm256_min_epi32(idx, _mm256_shuffle_epi32(idx, 0x4e));  // (1,0,3,2)
  idx = _mm256_min_epi32(idx, _mm256_shuffle_epi32(idx, 0xb1));  // (2,3,0,1)
  std::size_t best = static_cast<std::size_t>(_mm256_cvtsi256_si32(idx));
  for (std::size_t c = n8; c < n; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

void argmax_rows_avx2(ConstMatrixView m, std::int32_t* out) {
  const std::size_t n = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    out[r] = static_cast<std::int32_t>(n < 8 ? argmax_scan(row, n)
                                             : argmax_lanes(row, n));
  }
}

// out(b, :) += sum_s w(b, s) y(s B + b, :) with H in the lanes: each lane's
// chain is the scalar reference's (terms in ascending s, mul then add, zero
// weights skipped). R rows run at once per 8-column block; the last block's
// lanes past H are neither loaded nor stored.
template <int R>
inline void weighted_rows_block(ConstMatrixView w, ConstMatrixView y,
                                MatrixView out, std::size_t b, std::size_t j,
                                __m256i live) {
  const std::size_t B = w.rows(), S = w.cols();
  __m256 acc[R];
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    acc[r] = _mm256_maskload_ps(out.row(b + r) + j, live);
  }
  for (std::size_t s = 0; s < S; ++s) {
    const float* ys = y.row(s * B + b) + j;
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const float ws = w(b + r, s);
      if (ws == 0.0f) continue;
      const __m256 yv = _mm256_maskload_ps(ys + r * y.cols(), live);
      acc[r] = _mm256_add_ps(acc[r], _mm256_mul_ps(_mm256_set1_ps(ws), yv));
    }
  }
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    _mm256_maskstore_ps(out.row(b + r) + j, live, acc[r]);
  }
}

template <int R>
inline void weighted_rows_rows(ConstMatrixView w, ConstMatrixView y,
                               MatrixView out, std::size_t b) {
  const std::size_t H = out.cols();
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::size_t j = 0; j < H; j += 8) {
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(std::min<std::size_t>(H - j, 8))),
        lanes);
    weighted_rows_block<R>(w, y, out, b, j, live);
  }
}

void weighted_rows_avx2(ConstMatrixView w, ConstMatrixView y, MatrixView out) {
  const std::size_t m = w.rows();
  std::size_t b = 0;
  for (; b + 4 <= m; b += 4) weighted_rows_rows<4>(w, y, out, b);
  for (; b < m; ++b) weighted_rows_rows<1>(w, y, out, b);
}

// out(b, s) = sum_k x(b, k) yt(b H + k, s) with output columns in the
// lanes: each lane's chain is the scalar reference's (0.0f, then mul and
// add per k ascending). R rows x NB 8-column blocks run at once; the last
// block's lanes past out.cols() (yt's zero padding) are not stored.
template <int R, int NB>
[[gnu::always_inline]] inline void dot_rows_t_tile(ConstMatrixView x,
                                                   ConstMatrixView yt,
                                                   MatrixView out,
                                                   std::size_t b,
                                                   std::size_t s) {
  const std::size_t H = x.cols(), S = out.cols();
  __m256 acc[R][NB];
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    #pragma GCC unroll 8
    for (int c = 0; c < NB; ++c) acc[r][c] = _mm256_setzero_ps();
  }
  for (std::size_t k = 0; k < H; ++k) {
    #pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 xv = _mm256_set1_ps(x(b + r, k));
      const float* y = yt.row((b + r) * H + k) + s;
      #pragma GCC unroll 8
      for (int c = 0; c < NB; ++c) {
        acc[r][c] = _mm256_add_ps(
            acc[r][c], _mm256_mul_ps(xv, _mm256_loadu_ps(y + 8 * c)));
      }
    }
  }
  #pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
    float* o = out.row(b + r) + s;
    #pragma GCC unroll 8
    for (int c = 0; c < NB; ++c) {
      const std::size_t col = s + 8 * c;
      if (col + 8 <= S) {
        _mm256_storeu_ps(o + 8 * c, acc[r][c]);
      } else {
        const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        const __m256i live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(S - col)), lanes);
        _mm256_maskstore_ps(o + 8 * c, live, acc[r][c]);
      }
    }
  }
}

template <int R>
inline void dot_rows_t_rows(ConstMatrixView x, ConstMatrixView yt,
                            MatrixView out, std::size_t b) {
  const std::size_t padded = yt.cols();
  std::size_t s = 0;
  for (; s + 32 <= padded; s += 32) dot_rows_t_tile<R, 4>(x, yt, out, b, s);
  switch ((padded - s) / 8) {
    case 3:
      dot_rows_t_tile<R, 3>(x, yt, out, b, s);
      break;
    case 2:
      dot_rows_t_tile<R, 2>(x, yt, out, b, s);
      break;
    case 1:
      dot_rows_t_tile<R, 1>(x, yt, out, b, s);
      break;
    default:
      break;
  }
}

void dot_rows_t_avx2(ConstMatrixView x, ConstMatrixView yt, MatrixView out) {
  const std::size_t m = x.rows();
  std::size_t b = 0;
  for (; b + 2 <= m; b += 2) dot_rows_t_rows<2>(x, yt, out, b);
  if (b < m) dot_rows_t_rows<1>(x, yt, out, b);
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
    Ops ops = scalar_ops();
    ops.gemm_nn = &gemm_xn_avx2<false>;
    ops.gemm_tn = &gemm_xn_avx2<true>;
    ops.gemm_nt = &gemm_nt_avx2;
    // gemm_tt stays scalar: the fourth variant backs no hot path.
    ops.axpy = &axpy_avx2;
    ops.bias_add = &bias_add_avx2;
    ops.lstm_gates = &lstm_gates_avx2;
    ops.tanh = &tanh_avx2;
    ops.dot_rows_t = &dot_rows_t_avx2;
    ops.exp = &exp_avx2;
    ops.softmax_rows = &softmax_rows_avx2;
    ops.argmax_rows = &argmax_rows_avx2;
    ops.weighted_rows = &weighted_rows_avx2;
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
