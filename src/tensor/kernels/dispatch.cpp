// Kernel dispatch: backend selection state and the public, shape-checked
// entry points declared in tensor/matrix.h and tensor/kernels.h. Backends
// (scalar.cpp / avx2.cpp) receive pre-validated views and only accumulate;
// alpha folding and beta handling live here so every backend sees identical
// semantics.
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "tensor/kernels/internal.h"
#include "util/error.h"

namespace desmine::tensor {

namespace kernels {

namespace {

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Ops* ops_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &scalar_ops();
    case Backend::kAvx2:
      return avx2_ops();
  }
  return nullptr;
}

// Best available backend ignoring the environment override.
Backend best_backend() {
  return backend_available(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

// Startup selection: DESMINE_KERNELS when set, else best available.
Backend detect_backend() {
  const char* env = std::getenv("DESMINE_KERNELS");
  if (env != nullptr && *env != '\0') {
    Backend b{};
    DESMINE_EXPECTS(parse_backend(env, &b),
                    std::string("DESMINE_KERNELS: unknown backend '") + env +
                        "' (expected scalar|avx2)");
    DESMINE_EXPECTS(backend_available(b),
                    std::string("DESMINE_KERNELS: backend '") + env +
                        "' is not available on this build/CPU");
    return b;
  }
  return best_backend();
}

// The active dispatch table. Relaxed loads are fine: selection is documented
// as startup/between-batches only, and the pointer is always valid.
std::atomic<const Ops*> g_ops{nullptr};
std::atomic<Backend> g_backend{Backend::kScalar};
std::mutex g_init_mutex;

const Ops& active_ops() {
  const Ops* ops = g_ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    std::lock_guard<std::mutex> lock(g_init_mutex);
    ops = g_ops.load(std::memory_order_acquire);
    if (ops == nullptr) {
      const Backend b = detect_backend();
      ops = ops_for(b);
      g_backend.store(b, std::memory_order_release);
      g_ops.store(ops, std::memory_order_release);
    }
  }
  return *ops;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool parse_backend(std::string_view name, Backend* out) {
  if (name == "scalar") {
    *out = Backend::kScalar;
  } else if (name == "avx2") {
    *out = Backend::kAvx2;
  } else {
    return false;
  }
  return true;
}

bool backend_available(Backend b) {
  if (b == Backend::kAvx2) {
    return avx2_ops() != nullptr && cpu_has_avx2_fma();
  }
  return true;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::kScalar};
  if (backend_available(Backend::kAvx2)) out.push_back(Backend::kAvx2);
  return out;
}

Backend active_backend() {
  active_ops();  // force startup detection
  return g_backend.load(std::memory_order_acquire);
}

void set_backend(Backend b) {
  DESMINE_EXPECTS(backend_available(b),
                  std::string("kernel backend '") + backend_name(b) +
                      "' is not available on this build/CPU");
  std::lock_guard<std::mutex> lock(g_init_mutex);
  g_backend.store(b, std::memory_order_release);
  g_ops.store(ops_for(b), std::memory_order_release);
}

void select_backend(std::string_view choice) {
  if (choice == "auto") {
    std::lock_guard<std::mutex> lock(g_init_mutex);
    const Backend b = detect_backend();
    g_backend.store(b, std::memory_order_release);
    g_ops.store(ops_for(b), std::memory_order_release);
    return;
  }
  Backend b{};
  DESMINE_EXPECTS(parse_backend(choice, &b),
                  std::string("unknown kernel backend '") +
                      std::string(choice) +
                      "' (expected auto|scalar|avx2)");
  set_backend(b);
}

}  // namespace kernels

// ---------------------------------------------------------------------------
// Public entry points. Validation happens once here; backends assume valid
// shapes.

void gemm(Transpose trans_a, Transpose trans_b, float alpha, ConstMatrixView a,
          ConstMatrixView b, float beta, MatrixView out) {
  const bool ta = trans_a == Transpose::kTrans;
  const bool tb = trans_b == Transpose::kTrans;
  const std::size_t am = ta ? a.cols() : a.rows();
  const std::size_t ak = ta ? a.rows() : a.cols();
  const std::size_t bk = tb ? b.cols() : b.rows();
  const std::size_t bn = tb ? b.rows() : b.cols();
  DESMINE_EXPECTS(ak == bk, "inner dimensions must agree");
  DESMINE_EXPECTS(out.rows() == am && out.cols() == bn,
                  "output shape mismatch");

  if (beta == 0.0f) {
    out.zero();  // overwrite semantics: prior NaN/Inf never leak through
  } else if (beta != 1.0f) {
    float* os = out.data();
    for (std::size_t i = 0; i < out.size(); ++i) os[i] *= beta;
  }
  if (alpha == 0.0f || ak == 0) return;

  const kernels::Ops& ops = kernels::active_ops();
  if (!ta && !tb) {
    ops.gemm_nn(alpha, a, b, out);
  } else if (ta && !tb) {
    ops.gemm_tn(alpha, a, b, out);
  } else if (!ta && tb) {
    ops.gemm_nt(alpha, a, b, out);
  } else {
    ops.gemm_tt(alpha, a, b, out);
  }
}

void add_row_bias(MatrixView m, ConstMatrixView bias) {
  DESMINE_EXPECTS(bias.rows() == 1 && bias.cols() == m.cols(),
                  "bias must be 1 x cols");
  kernels::active_ops().bias_add(m, bias);
}

void axpy(float alpha, ConstMatrixView x, MatrixView y) {
  DESMINE_EXPECTS(x.same_shape(y), "axpy shape mismatch");
  kernels::active_ops().axpy(alpha, x, y);
}

void softmax_rows(MatrixView m) {
  kernels::active_ops().softmax_rows(m);
}

void lstm_gate_fusion(ConstMatrixView z, ConstMatrixView c_prev,
                      const LstmGateViews& out) {
  const std::size_t B = c_prev.rows();
  const std::size_t H = c_prev.cols();
  DESMINE_EXPECTS(z.rows() == B && z.cols() == 4 * H,
                  "gate pre-activation must be batch x 4H");
  DESMINE_EXPECTS(out.i.rows() == B && out.i.cols() == H &&
                      out.i.same_shape(out.f) && out.i.same_shape(out.g) &&
                      out.i.same_shape(out.o) && out.i.same_shape(out.c) &&
                      out.i.same_shape(out.tanh_c) && out.i.same_shape(out.h),
                  "gate outputs must all be batch x H");
  kernels::active_ops().lstm_gates(z, c_prev, out);
}

void argmax_rows(ConstMatrixView m, std::int32_t* out) {
  DESMINE_EXPECTS(m.cols() > 0, "argmax over empty rows");
  kernels::active_ops().argmax_rows(m, out);
}

void exp_inplace(MatrixView m) { kernels::active_ops().exp(m); }

void tanh_inplace(MatrixView m) { kernels::active_ops().tanh(m); }

void dot_rows_transposed(ConstMatrixView x, ConstMatrixView yt,
                         MatrixView out) {
  DESMINE_EXPECTS(out.rows() == x.rows() &&
                      yt.rows() == x.rows() * x.cols() &&
                      yt.cols() == transposed_cols(out.cols()),
                  "dot_rows_transposed: yt must be (B*H) x padded(out cols)");
  kernels::active_ops().dot_rows_t(x, yt, out);
}

void weighted_rows(ConstMatrixView w, ConstMatrixView y, MatrixView out) {
  DESMINE_EXPECTS(out.rows() == w.rows() && y.cols() == out.cols() &&
                      y.rows() == w.rows() * w.cols(),
                  "weighted_rows: y must be (S*B) x H for w (B x S), "
                  "out B x H");
  kernels::active_ops().weighted_rows(w, y, out);
}

}  // namespace desmine::tensor
