#include "tensor/matrix.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace desmine::tensor {

Matrix::Matrix(ConstMatrixView view)
    : rows_(view.rows()),
      cols_(view.cols()),
      data_(view.data(), view.data() + view.size()) {}

Matrix::Matrix(MatrixView view) : Matrix(ConstMatrixView(view)) {}

Matrix Matrix::from_rows(const std::vector<std::vector<float>>& rows) {
  DESMINE_EXPECTS(!rows.empty(), "from_rows needs at least one row");
  Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    DESMINE_EXPECTS(rows[r].size() == m.cols_, "ragged rows in from_rows");
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

MatrixView Matrix::view() { return MatrixView(data(), rows_, cols_); }
ConstMatrixView Matrix::view() const {
  return ConstMatrixView(data(), rows_, cols_);
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::init_uniform(util::Rng& rng, float scale) {
  for (float& v : data_) {
    v = static_cast<float>(rng.uniform(-scale, scale));
  }
}

Matrix& Matrix::operator+=(ConstMatrixView other) {
  MatrixView(*this) += other;
  return *this;
}

Matrix& Matrix::operator-=(ConstMatrixView other) {
  DESMINE_EXPECTS(view().same_shape(other), "shape mismatch in -=");
  const float* os = other.data();
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= os[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Matrix& Matrix::hadamard(ConstMatrixView other) {
  MatrixView(*this).hadamard(other);
  return *this;
}

float Matrix::sum() const {
  float s = 0.0f;
  for (float v : data_) s += v;
  return s;
}

double Matrix::squared_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t(c, r) = (*this)(r, c);
    }
  }
  return t;
}

std::string Matrix::shape_string() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

void MatrixView::fill(float value) const {
  std::fill(data_, data_ + size(), value);
}

void MatrixView::copy_from(ConstMatrixView src) const {
  DESMINE_EXPECTS(same_shape(src), "shape mismatch in copy_from");
  std::copy(src.data(), src.data() + src.size(), data_);
}

const MatrixView& MatrixView::operator+=(ConstMatrixView other) const {
  DESMINE_EXPECTS(same_shape(other), "shape mismatch in +=");
  const float* os = other.data();
  for (std::size_t i = 0; i < size(); ++i) data_[i] += os[i];
  return *this;
}

const MatrixView& MatrixView::hadamard(ConstMatrixView other) const {
  DESMINE_EXPECTS(same_shape(other), "shape mismatch in hadamard");
  const float* os = other.data();
  for (std::size_t i = 0; i < size(); ++i) data_[i] *= os[i];
  return *this;
}

// The dense kernels (gemm, add_row_bias, axpy, softmax_rows) live in
// tensor/kernels/dispatch.cpp behind the runtime backend dispatch.

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << "Matrix(" << m.rows() << "x" << m.cols() << ")[";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : ", [");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) os << ", ";
      os << m(r, c);
    }
    os << "]";
  }
  return os << "]";
}

}  // namespace desmine::tensor
