// Scalar reference backend: the historical matrix.cpp loop bodies, moved
// here verbatim. This backend defines the numerics the avx2 backend is
// measured against — the golden-regression tests pin its bit patterns, so
// the loop order, the av == 0 skips, and the libm calls must not change.
// With alpha == 1 the folded `alpha * arow[p]` multiplies are exact
// (1.0f * x == x), so the gemm kernels reproduce the original per-variant
// matrix products bit for bit.
#include <algorithm>
#include <cmath>

#include "tensor/kernels/internal.h"

namespace desmine::tensor::kernels {

namespace {

inline float sigmoidf(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// i-k-j loop order keeps B and out accesses sequential, which the compiler
// auto-vectorizes well; good enough for the hidden sizes desmine uses
// (<=256).
void gemm_nn_scalar(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.row(p);
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void gemm_tn_scalar(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* orow = out.row(i);
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void gemm_nt_scalar(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* orow = out.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b.row(j);
      float dot = 0.0f;
      for (std::size_t p = 0; p < k; ++p) dot += arow[p] * brow[p];
      orow[j] += alpha * dot;
    }
  }
}

// out += alpha * A^T B^T: op(A) (m x k) with A stored (k x m), op(B)
// (k x n) with B stored (n x k). p-i-j with the same av == 0 skip as the
// other accumulating variants; B^T's column access is the price of the
// fourth variant, which no hot path uses.
void gemm_tt_scalar(float alpha, ConstMatrixView a, ConstMatrixView b,
                    MatrixView out) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.rows();
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* orow = out.row(i);
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * b(j, p);
    }
  }
}

void axpy_scalar(float alpha, ConstMatrixView x, MatrixView y) {
  const float* xs = x.data();
  float* ys = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) ys[i] += alpha * xs[i];
}

void bias_add_scalar(MatrixView m, ConstMatrixView bias) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    const float* b = bias.row(0);
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += b[c];
  }
}

void softmax_rows_scalar(MatrixView m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.row(r);
    float mx = row[0];
    for (std::size_t c = 1; c < m.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const float inv = 1.0f / sum;
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] *= inv;
  }
}

void lstm_gates_scalar(ConstMatrixView z, ConstMatrixView c_prev,
                       const LstmGateViews& out) {
  const std::size_t B = c_prev.rows();
  const std::size_t H = c_prev.cols();
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
    for (std::size_t k = 0; k < H; ++k) {
      ir[k] = sigmoidf(zr[k]);
      fr[k] = sigmoidf(zr[H + k]);
      gr[k] = std::tanh(zr[2 * H + k]);
      orow[k] = sigmoidf(zr[3 * H + k]);
      cr[k] = fr[k] * cp[k] + ir[k] * gr[k];
      tcr[k] = std::tanh(cr[k]);
      hr[k] = orow[k] * tcr[k];
    }
  }
}

void argmax_rows_scalar(ConstMatrixView m, std::int32_t* out) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < m.cols(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<std::int32_t>(best);
  }
}

void exp_scalar(MatrixView m) {
  float* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) p[i] = std::exp(p[i]);
}

void tanh_scalar(MatrixView m) {
  float* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) p[i] = std::tanh(p[i]);
}

// out's row is the accumulator of every column's chain: 0.0f, then one
// multiply-then-add per k, ascending.
void dot_rows_t_scalar(ConstMatrixView x, ConstMatrixView yt,
                       MatrixView out) {
  const std::size_t H = x.cols(), S = out.cols();
  for (std::size_t b = 0; b < x.rows(); ++b) {
    float* o = out.row(b);
    for (std::size_t s = 0; s < S; ++s) o[s] = 0.0f;
    for (std::size_t k = 0; k < H; ++k) {
      const float xv = x(b, k);
      const float* y = yt.row(b * H + k);
      for (std::size_t s = 0; s < S; ++s) o[s] += xv * y[s];
    }
  }
}

// Attention's context loop: per (b, k), the terms in ascending s, each a
// multiply then an add, zero weights skipped.
void weighted_rows_scalar(ConstMatrixView w, ConstMatrixView y,
                          MatrixView out) {
  const std::size_t B = w.rows(), S = w.cols(), H = out.cols();
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t b = 0; b < B; ++b) {
      const float ws = w(b, s);
      if (ws == 0.0f) continue;
      float* o = out.row(b);
      const float* yr = y.row(s * B + b);
      for (std::size_t k = 0; k < H; ++k) o[k] += ws * yr[k];
    }
  }
}

}  // namespace

const Ops& scalar_ops() {
  static const Ops ops = {
      &gemm_nn_scalar,      &gemm_tn_scalar,    &gemm_nt_scalar,
      &gemm_tt_scalar,      &axpy_scalar,       &bias_add_scalar,
      &softmax_rows_scalar, &lstm_gates_scalar, &argmax_rows_scalar,
      &tanh_scalar,         &dot_rows_t_scalar, &exp_scalar,
      &weighted_rows_scalar,
  };
  return ops;
}

}  // namespace desmine::tensor::kernels
