// Unit tests for the matrix kernel, including property tests that check the
// transpose-variant GEMMs against the naive definition.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/matrix.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/rng.h"

namespace dt = desmine::tensor;
using desmine::util::Rng;

namespace {

dt::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  dt::Matrix m(r, c);
  m.init_uniform(rng, 1.0f);
  return m;
}

dt::Matrix naive_matmul(const dt::Matrix& a, const dt::Matrix& b) {
  dt::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float s = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      out(i, j) = s;
    }
  }
  return out;
}

void expect_near(const dt::Matrix& a, const dt::Matrix& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b)) << a.shape_string() << " vs "
                               << b.shape_string();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "at flat index " << i;
  }
}

}  // namespace

TEST(Matrix, ConstructionAndAccess) {
  dt::Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
  EXPECT_THROW(m.at(2, 0), desmine::PreconditionError);
  EXPECT_THROW(m.at(0, 3), desmine::PreconditionError);
}

TEST(Matrix, FromRowsAndRagged) {
  const auto m = dt::Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_FLOAT_EQ(m(2, 1), 6.0f);
  EXPECT_THROW(dt::Matrix::from_rows({{1, 2}, {3}}),
               desmine::PreconditionError);
}

TEST(Matrix, ArithmeticOps) {
  auto a = dt::Matrix::from_rows({{1, 2}, {3, 4}});
  auto b = dt::Matrix::from_rows({{10, 20}, {30, 40}});
  a += b;
  EXPECT_FLOAT_EQ(a(1, 1), 44.0f);
  a -= b;
  EXPECT_FLOAT_EQ(a(0, 0), 1.0f);
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a(1, 0), 6.0f);
  a.hadamard(b);
  EXPECT_FLOAT_EQ(a(0, 1), 80.0f);
  EXPECT_THROW(a += dt::Matrix(1, 2), desmine::PreconditionError);
}

TEST(Matrix, SumNorm) {
  const auto m = dt::Matrix::from_rows({{1, -2}, {3, -4}});
  EXPECT_FLOAT_EQ(m.sum(), -2.0f);
  EXPECT_DOUBLE_EQ(m.squared_norm(), 1 + 4 + 9 + 16);
}

TEST(Matrix, Transposed) {
  const auto m = dt::Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t(2, 1), 6.0f);
}

TEST(Matrix, MatmulMatchesNaive) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t m = 1 + rng.index(8), k = 1 + rng.index(8),
                      n = 1 + rng.index(8);
    const auto a = random_matrix(m, k, rng);
    const auto b = random_matrix(k, n, rng);
    dt::Matrix out(m, n);
    dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b, 0.0f, out);
    expect_near(out, naive_matmul(a, b));
  }
}

TEST(Matrix, MatmulTransAMatchesNaive) {
  Rng rng(2);
  const auto a = random_matrix(5, 3, rng);  // (k x m)
  const auto b = random_matrix(5, 4, rng);  // (k x n)
  dt::Matrix out(3, 4);
  dt::gemm(dt::Transpose::kTrans, dt::Transpose::kNo, 1.0f, a, b, 1.0f, out);
  expect_near(out, naive_matmul(a.transposed(), b));
}

TEST(Matrix, MatmulTransBMatchesNaive) {
  Rng rng(3);
  const auto a = random_matrix(4, 6, rng);  // (m x k)
  const auto b = random_matrix(5, 6, rng);  // (n x k)
  dt::Matrix out(4, 5);
  dt::gemm(dt::Transpose::kNo, dt::Transpose::kTrans, 1.0f, a, b, 1.0f, out);
  expect_near(out, naive_matmul(a, b.transposed()));
}

TEST(Matrix, MatmulAccumAddsToExisting) {
  Rng rng(4);
  const auto a = random_matrix(3, 3, rng);
  const auto b = random_matrix(3, 3, rng);
  dt::Matrix out(3, 3, 1.0f);
  dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b, 1.0f, out);
  auto expected = naive_matmul(a, b);
  expected += dt::Matrix(3, 3, 1.0f);
  expect_near(out, expected);
}

TEST(Matrix, MatmulShapeChecks) {
  dt::Matrix a(2, 3), b(4, 5), out(2, 5);
  EXPECT_THROW(dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b,
                        0.0f, out),
               desmine::PreconditionError);
  dt::Matrix b2(3, 5), out_bad(3, 5);
  EXPECT_THROW(dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b2,
                        0.0f, out_bad),
               desmine::PreconditionError);
}

TEST(Matrix, AddRowBias) {
  auto m = dt::Matrix::from_rows({{1, 2}, {3, 4}});
  const auto bias = dt::Matrix::from_rows({{10, 20}});
  dt::add_row_bias(m, bias);
  EXPECT_FLOAT_EQ(m(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(m(1, 1), 24.0f);
  EXPECT_THROW(dt::add_row_bias(m, dt::Matrix(1, 3)),
               desmine::PreconditionError);
}

TEST(Matrix, Axpy) {
  auto y = dt::Matrix::from_rows({{1, 1}});
  const auto x = dt::Matrix::from_rows({{2, 3}});
  dt::axpy(0.5f, x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 2.5f);
}

TEST(Matrix, SoftmaxRowsSumToOne) {
  Rng rng(5);
  auto m = random_matrix(4, 7, rng);
  m *= 10.0f;  // exercise the max-subtraction stability path
  dt::softmax_rows(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_GE(m(r, c), 0.0f);
      sum += m(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Matrix, SoftmaxOrderPreserved) {
  auto m = dt::Matrix::from_rows({{1.0f, 3.0f, 2.0f}});
  dt::softmax_rows(m);
  EXPECT_GT(m(0, 1), m(0, 2));
  EXPECT_GT(m(0, 2), m(0, 0));
}

TEST(Matrix, InitUniformWithinScale) {
  Rng rng(6);
  dt::Matrix m(10, 10);
  m.init_uniform(rng, 0.25f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), 0.25f);
  }
  // Not all zero.
  EXPECT_GT(m.squared_norm(), 0.0);
}

// ---- views ------------------------------------------------------------------

TEST(MatrixView, AliasesOwningMatrix) {
  auto m = dt::Matrix::from_rows({{1, 2}, {3, 4}});
  dt::MatrixView v = m;  // implicit: views alias, never copy
  EXPECT_EQ(v.data(), m.data());
  v.at(0, 1) = 20.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 20.0f);
  m(1, 0) = 30.0f;
  EXPECT_FLOAT_EQ(v.at(1, 0), 30.0f);

  dt::ConstMatrixView cv = m;
  EXPECT_EQ(cv.data(), m.data());
  EXPECT_FLOAT_EQ(cv.at(1, 0), 30.0f);

  // Materializing a Matrix from a view copies.
  dt::Matrix copy = cv;
  EXPECT_NE(copy.data(), m.data());
  m(0, 0) = -1.0f;
  EXPECT_FLOAT_EQ(copy(0, 0), 1.0f);
}

TEST(MatrixView, BoundsAndShapeChecks) {
  dt::Matrix m(2, 3);
  dt::MatrixView v = m;
  EXPECT_THROW(v.at(2, 0), desmine::PreconditionError);
  EXPECT_THROW(v.at(0, 3), desmine::PreconditionError);
  dt::Matrix other(2, 2);
  EXPECT_THROW(v.copy_from(other), desmine::PreconditionError);
  EXPECT_THROW(v += dt::ConstMatrixView(other), desmine::PreconditionError);
}

TEST(MatrixView, KernelsMatchOwnedPath) {
  // The same GEMM through views over arena storage must produce exactly
  // what the owned-Matrix call does (one shared kernel path).
  Rng rng(7);
  const auto a = random_matrix(4, 6, rng);
  const auto b = random_matrix(6, 5, rng);
  dt::Matrix owned(4, 5);
  dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b, 0.0f, owned);

  dt::Workspace ws;
  dt::MatrixView out = ws.alloc(4, 5);
  dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a, b, 0.0f, out);
  for (std::size_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(out.data()[i], owned.data()[i]) << "at flat index " << i;
  }
}

// ---- workspace --------------------------------------------------------------

TEST(Workspace, AllocIsZeroedAndShaped) {
  dt::Workspace ws;
  dt::MatrixView v = ws.alloc(3, 4);
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 4u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(v.data()[i], 0.0f);
  v.fill(9.0f);
  dt::MatrixView w = ws.alloc(2, 2);
  EXPECT_NE(w.data(), v.data());
  EXPECT_FLOAT_EQ(v.at(2, 3), 9.0f);  // earlier slice untouched
}

TEST(Workspace, CheckpointRewindReusesAndRezeroes) {
  dt::Workspace ws;
  dt::MatrixView persistent = ws.alloc(2, 2);
  persistent.fill(1.0f);
  const auto cp = ws.checkpoint();
  const std::size_t used_at_cp = ws.bytes_used();

  dt::MatrixView scratch = ws.alloc(8, 8);
  scratch.fill(7.0f);
  float* scratch_ptr = scratch.data();
  EXPECT_GT(ws.bytes_used(), used_at_cp);

  ws.rewind(cp);
  EXPECT_EQ(ws.bytes_used(), used_at_cp);
  EXPECT_FLOAT_EQ(persistent.at(1, 1), 1.0f);  // survives the rewind

  // Same-size realloc lands on the same storage, zeroed again.
  dt::MatrixView again = ws.alloc(8, 8);
  EXPECT_EQ(again.data(), scratch_ptr);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(again.data()[i], 0.0f);
}

TEST(Workspace, SteadyStateDoesNotGrow) {
  dt::Workspace ws;
  // Warm-up pass: force multiple chunks.
  for (int i = 0; i < 4; ++i) ws.alloc(300, 300);
  const auto warm = ws.stats();
  EXPECT_GE(warm.grows, 1u);
  EXPECT_GE(warm.bytes_reserved, warm.bytes_peak);

  // Steady state: identical passes after reset must never allocate.
  for (int pass = 0; pass < 3; ++pass) {
    ws.reset();
    for (int i = 0; i < 4; ++i) ws.alloc(300, 300);
    const auto s = ws.stats();
    EXPECT_EQ(s.grows, warm.grows);
    EXPECT_EQ(s.bytes_reserved, warm.bytes_reserved);
    EXPECT_EQ(s.bytes_peak, warm.bytes_peak);
  }
  EXPECT_EQ(ws.stats().rewinds, warm.rewinds + 3);
}

TEST(Workspace, ReservePreventsGrowthInLoop) {
  dt::Workspace ws;
  ws.reserve(4 * 100 * 100 * sizeof(float) + 4096);
  const auto before = ws.stats();
  for (int i = 0; i < 4; ++i) ws.alloc(100, 100);
  EXPECT_EQ(ws.stats().grows, before.grows);  // capacity was enough
  EXPECT_GE(before.bytes_reserved, 4 * 100 * 100 * sizeof(float));
}

TEST(Workspace, RewindForeignOrForwardCheckpointRejected) {
  dt::Workspace ws;
  ws.alloc(4, 4);
  const auto cp = ws.checkpoint();
  ws.reset();
  // cp is now ahead of the cursor: rewinding "forward" must be refused.
  EXPECT_THROW(ws.rewind(cp), desmine::PreconditionError);
}
