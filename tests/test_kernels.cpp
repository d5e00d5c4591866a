// Conformance suite for the dispatched compute-kernel backends (DESIGN.md
// §16). AVX2 is checked against the scalar reference: it satisfies the
// documented tolerance contract for GEMM and the LSTM gate fusion while
// staying bit-exact for axpy / row bias / softmax / argmax / exp / tanh /
// the attention dots and context sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "avx2_reference_kernels.h"
#include "nn/gradcheck.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "util/error.h"
#include "util/rng.h"

namespace dt = desmine::tensor;
namespace dk = desmine::tensor::kernels;
namespace dn = desmine::nn;
using desmine::PreconditionError;
using desmine::util::Rng;

namespace {

/// Pin `b` for a test body and restore the startup default on scope exit so
/// tests cannot leak a backend choice into each other.
class BackendGuard {
 public:
  explicit BackendGuard(dk::Backend b) { dk::set_backend(b); }
  ~BackendGuard() { dk::select_backend("auto"); }
};

/// Set (or, given null, unset) an environment variable for a scope and
/// restore its previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) prev_ = prev;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (prev_.has_value()) {
      ::setenv(name_, prev_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> prev_;
};

dt::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                         float scale = 1.0f) {
  dt::Matrix m(rows, cols);
  m.init_uniform(rng, scale);
  return m;
}

/// Double-precision naive GEMM: the order-independent ground truth the
/// scalar reference is compared against (within f32 rounding).
dt::Matrix naive_gemm(dt::Transpose ta, dt::Transpose tb, float alpha,
                      const dt::Matrix& a, const dt::Matrix& b, float beta,
                      const dt::Matrix& out_prev) {
  const std::size_t m =
      ta == dt::Transpose::kNo ? a.rows() : a.cols();
  const std::size_t k =
      ta == dt::Transpose::kNo ? a.cols() : a.rows();
  const std::size_t n =
      tb == dt::Transpose::kNo ? b.cols() : b.rows();
  dt::Matrix out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta == dt::Transpose::kNo ? a(i, kk) : a(kk, i);
        const float bv = tb == dt::Transpose::kNo ? b(kk, j) : b(j, kk);
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      const double prev = beta == 0.0f ? 0.0 : out_prev(i, j);
      out(i, j) = static_cast<float>(static_cast<double>(alpha) * acc +
                                     static_cast<double>(beta) * prev);
    }
  }
  return out;
}

void expect_close(const dt::Matrix& got, const dt::Matrix& want, double rel,
                  double abs, const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double g = got(i, j);
      const double w = want(i, j);
      const double tol = abs + rel * std::abs(w);
      ASSERT_NEAR(g, w, tol) << what << " at (" << i << "," << j << ")";
    }
  }
}

void expect_bitwise_equal(const dt::Matrix& got, const dt::Matrix& want,
                          const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  ASSERT_EQ(std::memcmp(got.data(), want.data(),
                        got.size() * sizeof(float)),
            0)
      << what << " is not bit-identical";
}

struct GemmCase {
  dt::Transpose ta, tb;
  std::size_t m, k, n;
  float alpha, beta;
};

/// Ragged shapes (no multiple-of-vector-width dimensions) plus square and
/// degenerate cases; exercises the AVX2 tail loops.
const std::vector<GemmCase> kGemmCases = {
    {dt::Transpose::kNo, dt::Transpose::kNo, 1, 1, 1, 1.0f, 0.0f},
    {dt::Transpose::kNo, dt::Transpose::kNo, 3, 7, 5, 1.0f, 0.0f},
    {dt::Transpose::kNo, dt::Transpose::kNo, 8, 17, 9, 0.5f, 1.0f},
    {dt::Transpose::kNo, dt::Transpose::kNo, 33, 33, 33, -2.0f, 0.7f},
    {dt::Transpose::kTrans, dt::Transpose::kNo, 5, 11, 4, 1.0f, 0.0f},
    {dt::Transpose::kTrans, dt::Transpose::kNo, 16, 24, 13, 1.0f, 1.0f},
    {dt::Transpose::kNo, dt::Transpose::kTrans, 6, 13, 7, 1.0f, 1.0f},
    {dt::Transpose::kNo, dt::Transpose::kTrans, 24, 9, 24, 0.25f, 0.0f},
    {dt::Transpose::kTrans, dt::Transpose::kTrans, 7, 5, 9, 1.0f, 0.0f},
    {dt::Transpose::kTrans, dt::Transpose::kTrans, 12, 31, 10, -1.0f, 1.0f},
};

/// Storage shapes for operand matrices given the logical (m x k) x (k x n).
void operand_shapes(const GemmCase& c, std::size_t* ar, std::size_t* ac,
                    std::size_t* br, std::size_t* bc) {
  *ar = c.ta == dt::Transpose::kNo ? c.m : c.k;
  *ac = c.ta == dt::Transpose::kNo ? c.k : c.m;
  *br = c.tb == dt::Transpose::kNo ? c.k : c.n;
  *bc = c.tb == dt::Transpose::kNo ? c.n : c.k;
}

dt::Matrix run_gemm_case(const GemmCase& c, const dt::Matrix& a,
                         const dt::Matrix& b, const dt::Matrix& out_prev,
                         dk::Backend backend) {
  const BackendGuard guard(backend);
  dt::Matrix out = out_prev;
  dt::gemm(c.ta, c.tb, c.alpha, a.view(), b.view(), c.beta, out.view());
  return out;
}

}  // namespace

TEST(Gemm, ScalarMatchesNaiveReference) {
  Rng rng(101);
  for (const GemmCase& c : kGemmCases) {
    std::size_t ar, ac, br, bc;
    operand_shapes(c, &ar, &ac, &br, &bc);
    const dt::Matrix a = random_matrix(ar, ac, rng);
    const dt::Matrix b = random_matrix(br, bc, rng);
    const dt::Matrix prev = random_matrix(c.m, c.n, rng);
    const dt::Matrix want = naive_gemm(c.ta, c.tb, c.alpha, a, b, c.beta, prev);
    const dt::Matrix got = run_gemm_case(c, a, b, prev, dk::Backend::kScalar);
    expect_close(got, want, 1e-5, 1e-6,
                 "scalar gemm m=" + std::to_string(c.m) +
                     " k=" + std::to_string(c.k) + " n=" + std::to_string(c.n));
  }
}

TEST(Gemm, Avx2WithinToleranceOfScalar) {
  if (!dk::backend_available(dk::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 backend unavailable on this CPU/build";
  }
  Rng rng(103);
  for (const GemmCase& c : kGemmCases) {
    std::size_t ar, ac, br, bc;
    operand_shapes(c, &ar, &ac, &br, &bc);
    const dt::Matrix a = random_matrix(ar, ac, rng);
    const dt::Matrix b = random_matrix(br, bc, rng);
    const dt::Matrix prev = random_matrix(c.m, c.n, rng);
    const dt::Matrix want = run_gemm_case(c, a, b, prev, dk::Backend::kScalar);
    const dt::Matrix got = run_gemm_case(c, a, b, prev, dk::Backend::kAvx2);
    expect_close(got, want, 1e-5, 1e-5,
                 "avx2 gemm m=" + std::to_string(c.m) +
                     " k=" + std::to_string(c.k) + " n=" + std::to_string(c.n));
  }
}

TEST(Gemm, Avx2BitIdenticalToFrozenKernels) {
  // The avx2 backend's bits are pinned (tests/golden/train_pair_avx2.golden,
  // the bench/e2e digests): re-tiling may only change how many accumulator
  // chains are in flight. Every output element must match the frozen
  // pre-re-tiling kernels bit for bit, across every vector tail in m, n, k.
  if (!dk::backend_available(dk::Backend::kAvx2)) {
    GTEST_SKIP() << "AVX2 backend unavailable on this CPU/build";
  }
  const std::size_t ms[] = {1, 2, 3, 15, 16, 17, 320};
  const std::size_t ns[] = {1, 7, 8, 9, 16, 23, 24, 31, 32, 33, 52, 96};
  const std::size_t ks[] = {1, 7, 8, 16, 24, 25, 48, 96};
  // 0.3 is not a power of two, so moving where alpha is applied shows.
  const float alphas[] = {1.0f, 0.5f, 0.3f};
  const float betas[] = {0.0f, 1.0f, 0.25f};
  const std::pair<dt::Transpose, dt::Transpose> variants[] = {
      {dt::Transpose::kNo, dt::Transpose::kNo},
      {dt::Transpose::kTrans, dt::Transpose::kNo},
      {dt::Transpose::kNo, dt::Transpose::kTrans}};
  const BackendGuard guard(dk::Backend::kAvx2);
  Rng rng(111);
  for (const auto& [ta, tb] : variants) {
    for (const std::size_t m : ms) {
      for (const std::size_t n : ns) {
        for (const std::size_t k : ks) {
          GemmCase c{ta, tb, m, k, n, 1.0f, 0.0f};
          std::size_t ar, ac, br, bc;
          operand_shapes(c, &ar, &ac, &br, &bc);
          const dt::Matrix a = random_matrix(ar, ac, rng);
          const dt::Matrix b = random_matrix(br, bc, rng);
          const dt::Matrix prev = random_matrix(m, n, rng);
          for (const float alpha : alphas) {
            for (const float beta : betas) {
              dt::Matrix got = prev;
              dt::gemm(ta, tb, alpha, a.view(), b.view(), beta, got.view());
              // The dispatcher's beta handling, then the frozen kernel.
              dt::Matrix want = prev;
              if (beta == 0.0f) {
                want.fill(0.0f);
              } else if (beta != 1.0f) {
                for (std::size_t i = 0; i < want.size(); ++i) {
                  want.data()[i] *= beta;
                }
              }
              ASSERT_TRUE(desmine::reference::frozen_avx2_gemm(
                  ta, tb, alpha, a.view(), b.view(), want.view()));
              const std::string what =
                  std::string(ta == dt::Transpose::kNo ? "n" : "t") +
                  (tb == dt::Transpose::kNo ? "n" : "t") +
                  " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(k) +
                  " alpha=" + std::to_string(alpha) +
                  " beta=" + std::to_string(beta);
              expect_bitwise_equal(got, want, what);
              if (::testing::Test::HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, TallRowsEqualOneRowCalls) {
  // Rows of op(A) are independent in gemm_nn and gemm_nt: a row computed
  // inside a tall GEMM must equal, bitwise, the same row computed by a
  // one-row call, whatever the row's position relative to the kernels' M
  // tiles. translate_batch's B=1 bit-identity relies on this, and so would
  // stacking per-step GEMMs over time.
  Rng rng(112);
  const std::size_t ms[] = {2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};
  const std::size_t ns[] = {7, 24, 33, 96};
  const std::size_t ks[] = {7, 24};
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    for (const dt::Transpose tb : {dt::Transpose::kNo, dt::Transpose::kTrans}) {
      for (const std::size_t m : ms) {
        for (const std::size_t n : ns) {
          for (const std::size_t k : ks) {
            const dt::Matrix a = random_matrix(m, k, rng);
            const dt::Matrix b = tb == dt::Transpose::kNo
                                     ? random_matrix(k, n, rng)
                                     : random_matrix(n, k, rng);
            dt::Matrix tall(m, n);
            dt::gemm(dt::Transpose::kNo, tb, 1.0f, a.view(), b.view(), 0.0f,
                     tall.view());
            for (std::size_t i = 0; i < m; ++i) {
              dt::Matrix one(1, n);
              dt::gemm(dt::Transpose::kNo, tb, 1.0f,
                       dt::ConstMatrixView(a.row(i), 1, k), b.view(), 0.0f,
                       one.view());
              ASSERT_EQ(std::memcmp(one.data(), tall.row(i),
                                    n * sizeof(float)),
                        0)
                  << dk::backend_name(backend)
                  << (tb == dt::Transpose::kNo ? " nn" : " nt") << " row " << i
                  << " of m=" << m << " n=" << n << " k=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, OffsetViewsIntoSharedBuffer) {
  // Views carved out of one arena-like buffer at odd (vector-misaligned)
  // offsets — the Workspace usage pattern — must agree with owned matrices.
  Rng rng(104);
  const std::size_t m = 9, k = 13, n = 11;
  std::vector<float> arena(3 + m * k + 5 + k * n + 7 + m * n, 0.0f);
  float* a_ptr = arena.data() + 3;
  float* b_ptr = a_ptr + m * k + 5;
  float* c_ptr = b_ptr + k * n + 7;
  dt::Matrix a_owned = random_matrix(m, k, rng);
  dt::Matrix b_owned = random_matrix(k, n, rng);
  std::memcpy(a_ptr, a_owned.data(), m * k * sizeof(float));
  std::memcpy(b_ptr, b_owned.data(), k * n * sizeof(float));

  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    dt::Matrix want(m, n);
    dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a_owned.view(),
             b_owned.view(), 0.0f, want.view());
    const dt::MatrixView out_view(c_ptr, m, n);
    out_view.zero();
    dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f,
             dt::ConstMatrixView(a_ptr, m, k), dt::ConstMatrixView(b_ptr, k, n),
             0.0f, out_view);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(out_view(i, j), want(i, j))
            << dk::backend_name(backend) << " offset-view mismatch at (" << i
            << "," << j << ")";
      }
    }
  }
}

TEST(Gemm, BetaZeroOverwritesNanAndInf) {
  // Documented semantic: beta == 0 zeroes the output first, so prior
  // NaN/Inf never leak through 0 * NaN.
  Rng rng(105);
  const dt::Matrix a = random_matrix(4, 6, rng);
  const dt::Matrix b = random_matrix(6, 5, rng);
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    dt::Matrix out(4, 5);
    out.fill(std::numeric_limits<float>::quiet_NaN());
    out(1, 1) = std::numeric_limits<float>::infinity();
    dt::gemm(dt::Transpose::kNo, dt::Transpose::kNo, 1.0f, a.view(), b.view(),
             0.0f, out.view());
    for (std::size_t i = 0; i < out.rows(); ++i) {
      for (std::size_t j = 0; j < out.cols(); ++j) {
        ASSERT_TRUE(std::isfinite(out(i, j)))
            << dk::backend_name(backend) << " leaked non-finite at (" << i
            << "," << j << ")";
      }
    }
  }
}

TEST(Elementwise, BitExactAcrossAllBackends) {
  // axpy, row bias, and softmax carry a bit-exact contract in EVERY
  // backend, including AVX2.
  Rng rng(107);
  const dt::Matrix x = random_matrix(7, 19, rng);
  const dt::Matrix y0 = random_matrix(7, 19, rng);
  const dt::Matrix bias = random_matrix(1, 19, rng);
  const dt::Matrix logits = random_matrix(7, 19, rng, 4.0f);

  dt::Matrix axpy_ref, bias_ref, soft_ref;
  bool first = true;
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    dt::Matrix y = y0;
    dt::axpy(0.37f, x.view(), y.view());
    dt::Matrix biased = x;
    dt::add_row_bias(biased.view(), bias.view());
    dt::Matrix soft = logits;
    dt::softmax_rows(soft.view());
    if (first) {
      axpy_ref = y;
      bias_ref = biased;
      soft_ref = soft;
      first = false;
      // Softmax rows must sum to 1.
      for (std::size_t i = 0; i < soft.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t j = 0; j < soft.cols(); ++j) sum += soft(i, j);
        EXPECT_NEAR(sum, 1.0, 1e-5);
      }
    } else {
      const std::string name = dk::backend_name(backend);
      expect_bitwise_equal(y, axpy_ref, name + " axpy");
      expect_bitwise_equal(biased, bias_ref, name + " add_row_bias");
      expect_bitwise_equal(soft, soft_ref, name + " softmax_rows");
    }
  }
}

TEST(Elementwise, ArgmaxRowsIdenticalTieBreaking) {
  // Strict `>`: the first maximum wins in every backend, including exact
  // ties placed across vector-lane boundaries.
  dt::Matrix m(3, 17);
  m.fill(-1.0f);
  m(0, 4) = 2.0f;
  m(0, 12) = 2.0f;  // tie: index 4 must win
  m(1, 0) = 5.0f;   // max in lane 0
  m(2, 16) = 0.5f;  // max in the ragged tail
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    std::vector<std::int32_t> out(3, -1);
    dt::argmax_rows(m.view(), out.data());
    EXPECT_EQ(out[0], 4) << dk::backend_name(backend);
    EXPECT_EQ(out[1], 0) << dk::backend_name(backend);
    EXPECT_EQ(out[2], 16) << dk::backend_name(backend);
  }

  // Randomized agreement with a reference scan.
  Rng rng(108);
  const dt::Matrix r = random_matrix(32, 37, rng);
  std::vector<std::int32_t> ref(32, -1);
  for (std::size_t i = 0; i < r.rows(); ++i) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < r.cols(); ++j) {
      if (r(i, j) > r(i, best)) best = j;
    }
    ref[i] = static_cast<std::int32_t>(best);
  }
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    std::vector<std::int32_t> out(32, -1);
    dt::argmax_rows(r.view(), out.data());
    EXPECT_EQ(out, ref) << dk::backend_name(backend);
  }
}

TEST(Elementwise, ArgmaxRowsNanAndTiesMatchScalarScan) {
  // The avx2 argmax keeps a first maximum per lane; a row holding a NaN
  // must still get the scalar scan's answer (NaN never compares greater,
  // and a NaN in column 0 pins the result there), and so must ties of
  // +0/-0, all -inf rows and equal maxima in different lanes and the tail.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::nanf("");
  auto scan = [](const dt::Matrix& m, std::size_t r) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < m.cols(); ++c) {
      if (m(r, c) > m(r, best)) best = c;
    }
    return static_cast<std::int32_t>(best);
  };
  Rng rng(118);
  for (std::size_t n = 1; n <= 41; ++n) {
    dt::Matrix m = random_matrix(10, n, rng);
    m(0, 0) = nan;                          // NaN first
    m(1, n / 2) = nan;                      // NaN inside
    m(2, n - 1) = nan;                      // NaN in the tail
    for (std::size_t c = 0; c < n; ++c) {
      m(3, c) = -inf;                       // all -inf
      m(4, c) = c % 2 == 0 ? -0.0f : 0.0f;  // signed-zero ties
      m(5, c) = 1.0f;                       // all equal
    }
    m(6, n - 1) = 3.0f;                     // maximum in the last column
    m(6, n / 3) = 3.0f;                     // ... tied earlier
    m(7, n / 2) = inf;
    m(8, 0) = -inf;
    m(9, n - 1) = nan;
    m(9, 0) = 5.0f;
    for (const dk::Backend backend : dk::available_backends()) {
      const BackendGuard guard(backend);
      std::vector<std::int32_t> out(m.rows(), -1);
      dt::argmax_rows(m.view(), out.data());
      for (std::size_t r = 0; r < m.rows(); ++r) {
        EXPECT_EQ(out[r], scan(m, r)) << dk::backend_name(backend)
                                      << " n=" << n << " row " << r;
      }
    }
  }
}

namespace {

float bits_to_float(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

std::uint32_t float_to_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

/// Run the dispatched tanh over `xs` on the active backend and compare every
/// element bitwise with std::tanh. Returns the number of mismatches (the
/// first few are reported).
std::size_t tanh_mismatches(const std::vector<float>& xs,
                            const std::string& what) {
  dt::Matrix m(1, xs.size());
  std::copy(xs.begin(), xs.end(), m.data());
  dt::tanh_inplace(m.view());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t want = float_to_bits(std::tanh(xs[i]));
    const std::uint32_t got = float_to_bits(m(0, i));
    if (got != want && ++bad <= 5) {
      ADD_FAILURE() << what << ": tanh(0x" << std::hex << float_to_bits(xs[i])
                    << ") = 0x" << got << ", std::tanh gives 0x" << want;
    }
  }
  return bad;
}

}  // namespace

TEST(Tanh, BitIdenticalToLibmOnEveryBackend) {
  // tanh_inplace is std::tanh on scalar and a port of glibc's fdlibm tanhf
  // on avx2 (h~ in attention runs through it). Sweep every 4093rd bit
  // pattern, then +-64 ulps around each branch threshold of the port, then
  // the special values. If a libm update changes tanhf, this names it.
  std::vector<float> xs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4093) {
    xs.push_back(bits_to_float(static_cast<std::uint32_t>(u)));
  }
  const double ln2 = std::log(2.0);
  // tanhf's own cut-offs, then expm1f's seen through its argument 2|x|
  // (2|x| < 2^-25, <= 0.5 ln2, < 1.5 ln2 — where k >= 2 starts — and
  // < 27 ln2), then where its reduction's k reaches 23 and 57 (branch
  // starts): 2|x| = (k - 1/2) ln2.
  const float thresholds[] = {
      0x1p-55f,
      1.0f,
      22.0f,
      0x1p-26f,
      static_cast<float>(0.25 * ln2),
      static_cast<float>(0.75 * ln2),
      static_cast<float>(13.5 * ln2),
      static_cast<float>(11.25 * ln2),
      static_cast<float>(28.25 * ln2),
  };
  for (const float t : thresholds) {
    const std::uint32_t c = float_to_bits(t);
    for (std::uint32_t d = c - 64; d <= c + 64; ++d) {
      xs.push_back(bits_to_float(d));
      xs.push_back(-bits_to_float(d));
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v :
       {0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        bits_to_float(0x007fffffu), bits_to_float(0x807fffffu),
        bits_to_float(0x00400000u), bits_to_float(0x7fc12345u),
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest()}) {
    xs.push_back(v);
  }
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    EXPECT_EQ(tanh_mismatches(xs, dk::backend_name(backend)), 0u)
        << dk::backend_name(backend) << " over " << xs.size() << " inputs";
  }
}

TEST(Tanh, DISABLED_BitIdenticalToLibmOnAllFloats) {
  // Exhaustive form of the test above: all 2^32 bit patterns, in slices
  // whose length is not a multiple of 8 so the kernel's tail runs too.
  // A few minutes single-threaded; run with --gtest_also_run_disabled_tests.
  constexpr std::uint64_t kSlice = (std::uint64_t{1} << 20) + 3;
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    std::size_t bad = 0;
    std::vector<float> xs;
    for (std::uint64_t lo = 0; lo < (std::uint64_t{1} << 32); lo += kSlice) {
      const std::uint64_t hi =
          std::min(lo + kSlice, std::uint64_t{1} << 32);
      xs.clear();
      for (std::uint64_t u = lo; u < hi; ++u) {
        xs.push_back(bits_to_float(static_cast<std::uint32_t>(u)));
      }
      bad += tanh_mismatches(xs, dk::backend_name(backend));
    }
    EXPECT_EQ(bad, 0u) << dk::backend_name(backend);
  }
}

namespace {

/// Run the dispatched exp over `xs` on the active backend and compare every
/// element bitwise with std::exp. With `tails`, the kernel runs on slices
/// of 1, 2, ..., 17 elements so every tail length of the vector loop runs;
/// otherwise on all of `xs` at once. Returns the number of mismatches (the
/// first few are reported).
std::size_t exp_mismatches(const std::vector<float>& xs, bool tails,
                           const std::string& what) {
  dt::Matrix m(1, xs.size());
  std::copy(xs.begin(), xs.end(), m.data());
  if (tails) {
    std::size_t len = 1;
    for (std::size_t i = 0; i < xs.size(); i += len, len = len % 17 + 1) {
      const std::size_t n = std::min(len, xs.size() - i);
      dt::exp_inplace(dt::MatrixView(m.data() + i, 1, n));
    }
  } else {
    dt::exp_inplace(m.view());
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t want = float_to_bits(std::exp(xs[i]));
    const std::uint32_t got = float_to_bits(m(0, i));
    if (got != want && ++bad <= 5) {
      ADD_FAILURE() << what << ": exp(0x" << std::hex << float_to_bits(xs[i])
                    << ") = 0x" << got << ", std::exp gives 0x" << want;
    }
  }
  return bad;
}

}  // namespace

TEST(Exp, BitIdenticalToLibmOnEveryBackend) {
  // exp_inplace is std::exp on scalar and a port of glibc's FMA expf on
  // avx2 (the softmaxes run through it). Sweep every 4093rd bit pattern,
  // then +-64 ulps around the cut-offs (|x| = 88, where the special-case
  // branch starts; -87.34, where results turn subnormal; -103.28 and
  // -103.97, where they round to the smallest subnormal and to zero), then
  // the special values. If a libm update changes expf, this names it.
  std::vector<float> xs;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4093) {
    xs.push_back(bits_to_float(static_cast<std::uint32_t>(u)));
  }
  for (const float t : {88.0f, -88.0f, -87.34f, -0x1.9d1d9ep6f,
                        -0x1.9fe368p6f, 0x1.62e42ep6f}) {
    const std::uint32_t c = float_to_bits(t);
    for (std::uint32_t d = c - 64; d <= c + 64; ++d) {
      xs.push_back(bits_to_float(d));
    }
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (const float v :
       {0.0f, -0.0f, inf, -inf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        bits_to_float(0x007fffffu), bits_to_float(0x807fffffu),
        bits_to_float(0x7fc12345u), std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest()}) {
    xs.push_back(v);
  }
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    EXPECT_EQ(exp_mismatches(xs, /*tails=*/true, dk::backend_name(backend)),
              0u)
        << dk::backend_name(backend) << " over " << xs.size() << " inputs";
  }
}

TEST(Exp, DISABLED_BitIdenticalToLibmOnAllFloats) {
  // Exhaustive form of the test above: all 2^32 bit patterns, in slices
  // whose length is not a multiple of 8 so the kernel's tail runs too.
  // Run with --gtest_also_run_disabled_tests.
  constexpr std::uint64_t kSlice = (std::uint64_t{1} << 20) + 3;
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    std::size_t bad = 0;
    std::vector<float> xs;
    for (std::uint64_t lo = 0; lo < (std::uint64_t{1} << 32); lo += kSlice) {
      const std::uint64_t hi =
          std::min(lo + kSlice, std::uint64_t{1} << 32);
      xs.clear();
      for (std::uint64_t u = lo; u < hi; ++u) {
        xs.push_back(bits_to_float(static_cast<std::uint32_t>(u)));
      }
      bad += exp_mismatches(xs, /*tails=*/false, dk::backend_name(backend));
    }
    EXPECT_EQ(bad, 0u) << dk::backend_name(backend);
  }
}

TEST(Softmax, BitIdenticalToScalarLoopOnEveryBackend) {
  // Row max and row sum in column order, std::exp per element, then one
  // multiply by 1/sum: every backend must give the scalar loop's bits,
  // across lane tails, masked (-inf) columns and scores far below the max.
  Rng rng(117);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t S = 1; S <= 41; ++S) {
    dt::Matrix x = random_matrix(3, S, rng, 8.0f);
    for (std::size_t s = S / 2 + 1; s < S; ++s) x(1, s) = -inf;
    if (S > 2) x(2, S - 1) = -120.0f;
    dt::Matrix want = x;
    for (std::size_t r = 0; r < want.rows(); ++r) {
      float* row = want.row(r);
      float mx = row[0];
      for (std::size_t c = 1; c < S; ++c) mx = std::max(mx, row[c]);
      float sum = 0.0f;
      for (std::size_t c = 0; c < S; ++c) {
        row[c] = std::exp(row[c] - mx);
        sum += row[c];
      }
      const float inv = 1.0f / sum;
      for (std::size_t c = 0; c < S; ++c) row[c] *= inv;
    }
    for (const dk::Backend backend : dk::available_backends()) {
      const BackendGuard guard(backend);
      dt::Matrix got = x;
      dt::softmax_rows(got.view());
      expect_bitwise_equal(got, want,
                           std::string(dk::backend_name(backend)) +
                               " S=" + std::to_string(S));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(WeightedRows, SequentialChainOnEveryBackend) {
  // out(b, :) += sum_s w(b, s) y(s B + b, :): per element the terms in
  // ascending s, each a multiply then an add, zero weights (either sign)
  // skipped, on every backend, across H lane tails and B row tails. The
  // skip is visible: a skipped term's y is inf or NaN here.
  Rng rng(119);
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::size_t H : {1u, 7u, 8u, 24u, 25u}) {
    for (std::size_t B = 1; B <= 9; ++B) {
      for (const std::size_t S : {1u, 3u, 20u}) {
        dt::Matrix w = random_matrix(B, S, rng);
        dt::Matrix y = random_matrix(S * B, H, rng);
        for (std::size_t b = 0; b < B; ++b) {
          const std::size_t s = (b * 7) % S;
          w(b, s) = b % 2 == 0 ? 0.0f : -0.0f;
          y(s * B + b, 0) = b % 3 == 0 ? inf : std::nanf("");
        }
        dt::Matrix out0 = random_matrix(B, H, rng);
        out0(0, 0) = -0.0f;
        dt::Matrix want = out0;
        for (std::size_t s = 0; s < S; ++s) {
          for (std::size_t b = 0; b < B; ++b) {
            if (w(b, s) == 0.0f) continue;
            for (std::size_t k = 0; k < H; ++k) {
              want(b, k) += w(b, s) * y(s * B + b, k);
            }
          }
        }
        for (const dk::Backend backend : dk::available_backends()) {
          const BackendGuard guard(backend);
          dt::Matrix got = out0;
          dt::weighted_rows(w.view(), y.view(), got.view());
          expect_bitwise_equal(got, want,
                               std::string(dk::backend_name(backend)) +
                                   " H=" + std::to_string(H) +
                                   " B=" + std::to_string(B) +
                                   " S=" + std::to_string(S));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  dt::Matrix w(2, 3), short_y(5, 4), out(2, 4);
  EXPECT_THROW(dt::weighted_rows(w.view(), short_y.view(), out.view()),
               PreconditionError);
}

TEST(DotRowsTransposed, SequentialChainOnEveryBackend) {
  // out(b, s) = sum_k x(b, k) yt(b H + k, s), each output one chain from
  // 0.0f in ascending k with a separate multiply and add, on every backend
  // and across every lane tail of the output columns.
  Rng rng(113);
  for (const std::size_t H : {1u, 7u, 24u, 25u}) {
    for (const std::size_t B : {1u, 2u, 3u}) {
      for (std::size_t S = 1; S <= 41; ++S) {
        const dt::Matrix x = random_matrix(B, H, rng);
        dt::Matrix yt(B * H, dt::transposed_cols(S));
        for (std::size_t r = 0; r < yt.rows(); ++r) {
          for (std::size_t s = 0; s < S; ++s) {
            yt(r, s) = static_cast<float>(rng.uniform(-1.0, 1.0));
          }
        }
        dt::Matrix want(B, S);
        for (std::size_t b = 0; b < B; ++b) {
          for (std::size_t s = 0; s < S; ++s) {
            float dot = 0.0f;
            for (std::size_t k = 0; k < H; ++k) {
              dot += x(b, k) * yt(b * H + k, s);
            }
            want(b, s) = dot;
          }
        }
        for (const dk::Backend backend : dk::available_backends()) {
          const BackendGuard guard(backend);
          dt::Matrix got(B, S, 7.0f);
          dt::dot_rows_transposed(x.view(), yt.view(), got.view());
          expect_bitwise_equal(got, want,
                               std::string(dk::backend_name(backend)) +
                                   " H=" + std::to_string(H) +
                                   " B=" + std::to_string(B) +
                                   " S=" + std::to_string(S));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  dt::Matrix out(2, 5);
  const dt::Matrix x(2, 3), short_yt(6, 5);
  EXPECT_THROW(dt::dot_rows_transposed(x.view(), short_yt.view(), out.view()),
               PreconditionError);
}

TEST(LstmGates, FusionContractAcrossBackends) {
  Rng rng(109);
  const std::size_t batch = 5, hidden = 13;  // ragged on purpose
  const dt::Matrix z = random_matrix(batch, 4 * hidden, rng, 3.0f);
  const dt::Matrix c_prev = random_matrix(batch, hidden, rng);

  struct GateResult {
    dt::Matrix i, f, g, o, c, tanh_c, h;
  };
  auto run = [&](dk::Backend backend) {
    const BackendGuard guard(backend);
    GateResult r{dt::Matrix(batch, hidden), dt::Matrix(batch, hidden),
                 dt::Matrix(batch, hidden), dt::Matrix(batch, hidden),
                 dt::Matrix(batch, hidden), dt::Matrix(batch, hidden),
                 dt::Matrix(batch, hidden)};
    const dt::LstmGateViews out{r.i.view(), r.f.view(), r.g.view(),
                                r.o.view(), r.c.view(), r.tanh_c.view(),
                                r.h.view()};
    dt::lstm_gate_fusion(z.view(), c_prev.view(), out);
    return r;
  };

  const GateResult scalar = run(dk::Backend::kScalar);
  // Scalar output obeys the gate equations.
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t j = 0; j < hidden; ++j) {
      const auto sigmoid = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
      const double i = sigmoid(z(b, j));
      const double f = sigmoid(z(b, hidden + j));
      const double g = std::tanh(z(b, 2 * hidden + j));
      const double o = sigmoid(z(b, 3 * hidden + j));
      const double c = f * c_prev(b, j) + i * g;
      ASSERT_NEAR(scalar.i(b, j), i, 1e-6);
      ASSERT_NEAR(scalar.c(b, j), c, 1e-5);
      ASSERT_NEAR(scalar.h(b, j), o * std::tanh(c), 1e-5);
    }
  }

  if (dk::backend_available(dk::Backend::kAvx2)) {
    const GateResult avx2 = run(dk::Backend::kAvx2);
    expect_close(avx2.i, scalar.i, 1e-5, 1e-6, "avx2 gate i");
    expect_close(avx2.f, scalar.f, 1e-5, 1e-6, "avx2 gate f");
    expect_close(avx2.g, scalar.g, 1e-5, 1e-6, "avx2 gate g");
    expect_close(avx2.o, scalar.o, 1e-5, 1e-6, "avx2 gate o");
    expect_close(avx2.c, scalar.c, 1e-5, 1e-6, "avx2 gate c");
    expect_close(avx2.h, scalar.h, 1e-5, 1e-6, "avx2 gate h");
  }
}

TEST(LstmGates, CellMayAliasCPrev) {
  // `out.c` aliasing `c_prev` (in-place inference stepping) must produce
  // the same values as the non-aliased call.
  Rng rng(110);
  const std::size_t batch = 4, hidden = 9;
  const dt::Matrix z = random_matrix(batch, 4 * hidden, rng, 2.0f);
  const dt::Matrix c0 = random_matrix(batch, hidden, rng);
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    dt::Matrix i(batch, hidden), f(batch, hidden), g(batch, hidden),
        o(batch, hidden), c_sep(batch, hidden), tc(batch, hidden),
        h_sep(batch, hidden);
    dt::lstm_gate_fusion(z.view(), c0.view(),
                         {i.view(), f.view(), g.view(), o.view(), c_sep.view(),
                          tc.view(), h_sep.view()});

    dt::Matrix c_alias = c0;
    dt::Matrix h_alias(batch, hidden);
    dt::lstm_gate_fusion(z.view(), c_alias.view(),
                         {i.view(), f.view(), g.view(), o.view(),
                          c_alias.view(), tc.view(), h_alias.view()});
    expect_bitwise_equal(c_alias, c_sep,
                         std::string(dk::backend_name(backend)) + " aliased c");
    expect_bitwise_equal(h_alias, h_sep,
                         std::string(dk::backend_name(backend)) + " aliased h");
  }
}

TEST(GradCheck, LstmBpttUnderEveryBackend) {
  // The analytic backprop must stay correct whichever backend computed the
  // forward caches — catches any backend whose forward drifts far enough to
  // break the gradient contract.
  for (const dk::Backend backend : dk::available_backends()) {
    const BackendGuard guard(backend);
    Rng rng(3);
    dn::LstmStack lstm("l", 3, 4, 1, rng, 0.0f, 0.5f);
    dn::Linear head("head", 4, 3, rng, true, 0.5f);
    dn::ParamRegistry reg;
    lstm.register_params(reg);
    head.register_params(reg);

    const std::size_t T = 4, B = 2;
    std::vector<dt::Matrix> xs;
    for (std::size_t t = 0; t < T; ++t) {
      dt::Matrix x(B, 3);
      x.init_uniform(rng, 1.0f);
      xs.push_back(x);
    }
    const std::vector<std::vector<std::int32_t>> targets = {
        {0, 1}, {2, 0}, {1, 1}, {0, 2}};

    auto loss_fn = [&](bool accumulate) {
      lstm.begin(B);
      double loss = 0.0;
      std::vector<dt::Matrix> hs(T), dlogits(T);
      for (std::size_t t = 0; t < T; ++t) {
        hs[t] = lstm.step(xs[t]);
        const dt::Matrix logits = head.forward(hs[t]);
        const auto res = dn::softmax_xent(logits, targets[t], dlogits[t], 1.0f);
        loss += res.loss_sum;
      }
      if (accumulate) {
        std::vector<dt::Matrix> dh(T);
        for (std::size_t t = 0; t < T; ++t) {
          dh[t] = head.backward(hs[t], dlogits[t]);
        }
        lstm.backward(dh);
      }
      return loss;
    };

    const auto report = dn::gradient_check(reg, loss_fn, 6, 1e-2);
    EXPECT_GT(report.checked, 0u);
    EXPECT_LT(report.max_rel_error, 3e-2)
        << dk::backend_name(backend) << ": " << report.worst_param;
  }
}

TEST(KernelConfig, NamesParseAndApply) {
  dk::Backend b = dk::Backend::kAvx2;
  EXPECT_TRUE(dk::parse_backend("scalar", &b));
  EXPECT_EQ(b, dk::Backend::kScalar);
  EXPECT_TRUE(dk::parse_backend("avx2", &b));
  EXPECT_EQ(b, dk::Backend::kAvx2);
  for (const char* unknown : {"sse9", "blocked"}) {
    b = dk::Backend::kScalar;
    EXPECT_FALSE(dk::parse_backend(unknown, &b)) << unknown;
    EXPECT_EQ(b, dk::Backend::kScalar);  // left alone on unknown
  }

  EXPECT_STREQ(dk::backend_name(dk::Backend::kScalar), "scalar");
  EXPECT_STREQ(dk::backend_name(dk::Backend::kAvx2), "avx2");

  // Scalar is always available and listed first; avx2 is the only other.
  const std::vector<dk::Backend> avail = dk::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), dk::Backend::kScalar);
  EXPECT_LE(avail.size(), 2u);
  EXPECT_TRUE(dk::backend_available(dk::Backend::kScalar));

  // select_backend applies a name; "auto" restores the startup choice.
  const dk::Backend before = dk::active_backend();
  dk::select_backend("scalar");
  EXPECT_EQ(dk::active_backend(), dk::Backend::kScalar);
  dk::select_backend("auto");
  EXPECT_EQ(dk::active_backend(), before);

  // Unknown names (the retired "blocked" included) fail naming the value
  // and leave the selection alone.
  for (const char* unknown : {"not-a-backend", "blocked"}) {
    try {
      dk::select_backend(unknown);
      ADD_FAILURE() << "select_backend accepted '" << unknown << "'";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + unknown + "'"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(dk::active_backend(), before);
  }

  // set_backend round-trips through every available backend.
  for (const dk::Backend avail_b : dk::available_backends()) {
    dk::set_backend(avail_b);
    EXPECT_EQ(dk::active_backend(), avail_b);
  }
  dk::select_backend("auto");
  EXPECT_EQ(dk::active_backend(), before);
}

TEST(KernelConfig, AutoPicksTheFastestAvailableBackend) {
  // With DESMINE_KERNELS unset, auto selects avx2 when CPUID reports
  // AVX2+FMA and scalar otherwise.
  const dk::Backend before = dk::active_backend();
  {
    const EnvGuard env("DESMINE_KERNELS", nullptr);
    dk::select_backend("auto");
    EXPECT_EQ(dk::active_backend(), dk::available_backends().back());
    EXPECT_EQ(dk::active_backend(), dk::backend_available(dk::Backend::kAvx2)
                                        ? dk::Backend::kAvx2
                                        : dk::Backend::kScalar);
  }
  dk::select_backend("auto");
  EXPECT_EQ(dk::active_backend(), before);
}

TEST(KernelConfig, EnvironmentRejectsRetiredBlockedBackend) {
  const dk::Backend before = dk::active_backend();
  {
    const EnvGuard env("DESMINE_KERNELS", "blocked");
    try {
      dk::select_backend("auto");
      ADD_FAILURE() << "DESMINE_KERNELS=blocked was accepted";
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DESMINE_KERNELS"), std::string::npos) << what;
      EXPECT_NE(what.find("'blocked'"), std::string::npos) << what;
    }
    EXPECT_EQ(dk::active_backend(), before);
  }
  dk::select_backend("auto");
  EXPECT_EQ(dk::active_backend(), before);
}
