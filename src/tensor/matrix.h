// Row-major single-precision matrix kernel.
//
// This is the numeric substrate for desmine::nn. It deliberately stays small:
// dense f32 storage, one dispatched GEMM with transpose variants, and the
// elementwise helpers the LSTM/attention layers need. Vectors are 1xN or Nx1
// matrices; there is no broadcasting beyond the row-bias helper.
//
// Two storage flavours share one kernel path (ISSUE 4):
//  * Matrix            — owning, heap-backed (parameters, long-lived state);
//  * MatrixView /      — non-owning windows over any row-major float block,
//    ConstMatrixView     typically a Workspace arena slice (activations,
//                        per-timestep caches, gradients in the hot path).
// All kernels (gemm variants, axpy, softmax, row bias) take views; an owned
// Matrix converts implicitly, so call sites are agnostic to where the bytes
// live. Views never allocate and never outlive their backing storage — see
// DESIGN.md §10 for the aliasing and lifetime rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace desmine::tensor {

class MatrixView;
class ConstMatrixView;

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, float value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Deep copy of a view (implicit so view-returning hot paths interoperate
  /// with owned storage at call sites that need to keep the values). The
  /// MatrixView overload exists because two user conversions
  /// (MatrixView -> ConstMatrixView -> Matrix) would not chain implicitly.
  Matrix(ConstMatrixView view);  // NOLINT(google-explicit-constructor)
  Matrix(MatrixView view);       // NOLINT(google-explicit-constructor)

  /// Build from nested initializer data (row major). Rows must be equal
  /// length.
  static Matrix from_rows(const std::vector<std::vector<float>>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    DESMINE_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    DESMINE_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Unchecked element access for hot loops.
  float& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Non-owning views of this matrix (valid while the matrix lives and is
  /// not resized).
  MatrixView view();
  ConstMatrixView view() const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Uniform init in [-scale, scale] (classic NMT init).
  void init_uniform(util::Rng& rng, float scale);

  Matrix& operator+=(ConstMatrixView other);
  Matrix& operator-=(ConstMatrixView other);
  Matrix& operator*=(float scalar);

  /// Elementwise (Hadamard) product into this.
  Matrix& hadamard(ConstMatrixView other);

  /// Sum of all elements.
  float sum() const;
  /// Sum of squared elements (for gradient-norm clipping).
  double squared_norm() const;

  /// Transposed copy.
  Matrix transposed() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string shape_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Mutable non-owning window over a contiguous row-major float block. A
/// default-constructed view is empty (rows == cols == 0, null data) and is
/// how the nn layers mark "no value here" (e.g. steps without a loss term).
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(float* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  MatrixView(Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ * cols_ == 0; }

  float& at(std::size_t r, std::size_t c) const {
    DESMINE_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  float& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  float* data() const { return data_; }
  float* row(std::size_t r) const { return data_ + r * cols_; }

  void fill(float value) const;
  void zero() const { fill(0.0f); }

  /// Copy the values of an equal-shaped source into this view.
  void copy_from(ConstMatrixView src) const;

  const MatrixView& operator+=(ConstMatrixView other) const;
  const MatrixView& hadamard(ConstMatrixView other) const;

  bool same_shape(ConstMatrixView other) const;

 private:
  float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Read-only counterpart of MatrixView.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const float* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  ConstMatrixView(const Matrix& m)  // NOLINT(google-explicit-constructor)
      : data_(m.data()), rows_(m.rows()), cols_(m.cols()) {}
  ConstMatrixView(MatrixView v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return rows_ * cols_ == 0; }

  float at(std::size_t r, std::size_t c) const {
    DESMINE_EXPECTS(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  const float* data() const { return data_; }
  const float* row(std::size_t r) const { return data_ + r * cols_; }

  bool same_shape(ConstMatrixView other) const {
    return rows_ == other.rows() && cols_ == other.cols();
  }

 private:
  const float* data_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

inline bool MatrixView::same_shape(ConstMatrixView other) const {
  return rows_ == other.rows() && cols_ == other.cols();
}

/// Transpose selector for tensor::gemm (BLAS-style, applied logically — the
/// storage is never shuffled).
enum class Transpose : std::uint8_t { kNo, kTrans };

/// The single GEMM entry point (ISSUE 10): out = alpha * op(A) op(B) +
/// beta * out, where op(X) is X or X^T per the Transpose selectors.
///
/// Shapes: op(A) is (m x k), op(B) is (k x n), out is (m x n); the inner
/// dimensions must agree. `out` may not alias A or B. beta == 0 overwrites
/// out (it is zeroed first, so prior NaN/Inf never leak through); beta == 1
/// accumulates. The call dispatches to the kernel backend selected at
/// startup (tensor/kernels.h): the scalar backend is the bit-exact golden
/// reference, and the AVX2+FMA backend is deterministic but may differ in
/// final-bit rounding (see DESIGN.md §16 for the per-backend
/// bit-compatibility contract).
void gemm(Transpose trans_a, Transpose trans_b, float alpha, ConstMatrixView a,
          ConstMatrixView b, float beta, MatrixView out);

/// Add a 1 x cols bias row to every row of m. Backend-dispatched; bit-exact
/// across every backend.
void add_row_bias(MatrixView m, ConstMatrixView bias);

/// y += alpha * x (flat AXPY over equal-shaped matrices). Backend-
/// dispatched; bit-exact across every backend.
void axpy(float alpha, ConstMatrixView x, MatrixView y);

/// Row-wise softmax in place. Backend-dispatched; bit-exact across every
/// backend (exp and the row sum always run in scalar reference order).
void softmax_rows(MatrixView m);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace desmine::tensor
