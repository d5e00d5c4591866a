// Runtime-dispatched compute-kernel backend (DESIGN.md §16).
//
// Every dense kernel in the numeric stack — GEMM in all four transpose
// variants (tensor::gemm in matrix.h), axpy, row bias, row softmax, the
// fused LSTM gate activation, greedy argmax, elementwise exp and tanh, and
// attention's transposed score dots and context sums — routes through one
// dispatch table selected at process startup from two backends:
//
//  * kScalar — the reference loops, bit-exact and pinned by the golden-
//              regression tests. Always available, and the `auto` choice
//              on a CPU without AVX2+FMA.
//  * kAvx2   — AVX2+FMA intrinsics (vectorized GEMM, polynomial exp/tanh
//              in the gate fusion). Built with per-file -mavx2 -mfma on
//              every x86-64 toolchain, selected only when CPUID reports
//              AVX2+FMA. Deterministic, but FMA contraction and vector
//              reductions change final-bit rounding vs the scalar
//              reference in GEMM and the gate fusion; axpy, bias, softmax,
//              argmax, exp_inplace, tanh_inplace, dot_rows_transposed and
//              weighted_rows remain bit-exact even here (exp and tanh are
//              exact ports of the glibc routines std::exp/std::tanh call).
//
// Selection precedence: explicit set_backend()/select_backend() (config key
// `tensor.kernels`, `--kernels` flag) > the DESMINE_KERNELS environment
// variable (scalar|avx2) > CPUID auto-detection (best available).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/matrix.h"

namespace desmine::tensor {

/// Output views of the fused LSTM gate activation, all (batch x H).
struct LstmGateViews {
  MatrixView i, f, g, o;  ///< post-activation gates
  MatrixView c;           ///< new cell state (may alias c_prev)
  MatrixView tanh_c;      ///< tanh(c)
  MatrixView h;           ///< new hidden state
};

/// Fused LSTM gate activation over a (batch x 4H) pre-activation z in
/// [i f g o] layout: i = σ(z₀), f = σ(z₁), g = tanh(z₂), o = σ(z₃),
/// c = f ⊙ c_prev + i ⊙ g, tanh_c = tanh(c), h = o ⊙ tanh_c.
/// `out.c` may alias `c_prev` (an in-place cell update). Scalar uses libm
/// exp/tanh (bit-exact); AVX2 uses polynomial vector transcendentals
/// (≈1e-7 relative, tolerance contract).
void lstm_gate_fusion(ConstMatrixView z, ConstMatrixView c_prev,
                      const LstmGateViews& out);

/// Row-wise argmax (greedy decode step): strict `>` comparison, first
/// maximum wins; a row holding a NaN gets the scalar scan's answer. `out`
/// must hold m.rows() slots. Bit-exact (identical tie breaking) across
/// every backend.
void argmax_rows(ConstMatrixView m, std::int32_t* out);

/// m = exp(m), elementwise. Bit-exact across every backend: kScalar calls
/// std::exp (libm expf); kAvx2 runs a lane-for-lane port of glibc's FMA
/// expf (the variant glibc itself selects on every CPU kAvx2 accepts),
/// checked equal to it on all 2^32 inputs (DESIGN.md §16).
void exp_inplace(MatrixView m);

/// m = tanh(m), elementwise. Bit-exact across every backend: kScalar calls
/// std::tanh; kAvx2 runs a lane-for-lane port of the fdlibm tanhf/expm1f
/// that glibc ships, checked equal to it on all 2^32 inputs (DESIGN.md §16).
void tanh_inplace(MatrixView m);

/// Column count of a transposed operand of dot_rows_transposed for `n`
/// output columns: n rounded up to a multiple of 8.
constexpr std::size_t transposed_cols(std::size_t n) {
  return (n + 7) / 8 * 8;
}

/// out(b, s) = Σ_k x(b, k) · yt(b·H + k, s) with H = x.cols(): per row b,
/// the dot products of x's row with H-long columns of yt. yt is (B·H) x
/// transposed_cols(out.cols()); its padding columns are read but never
/// reach `out`. Every output is one chain started from 0.0f over k
/// ascending, each term a multiply then an add, so the result is bit-exact
/// across every backend (kAvx2 puts output columns in the lanes).
void dot_rows_transposed(ConstMatrixView x, ConstMatrixView yt,
                         MatrixView out);

/// out(b, :) += Σ_s w(b, s) · y(s·B + b, :) with B = w.rows(): per row b,
/// the w-weighted sum of row b of each of S = w.cols() stacked (B x H)
/// blocks of y ((S·B) x H, out B x H). Per element the terms are added in
/// ascending s, each a multiply then an add, and a term whose weight is
/// 0.0f (either sign) is skipped, so the result is bit-exact across every
/// backend (kAvx2 puts H in the lanes).
void weighted_rows(ConstMatrixView w, ConstMatrixView y, MatrixView out);

namespace kernels {

/// The two compute backends, in increasing order of speed.
enum class Backend : std::uint8_t { kScalar, kAvx2 };

/// "scalar" / "avx2".
const char* backend_name(Backend b);
/// Parse a backend name; returns false (and leaves *out alone) on an
/// unknown name.
bool parse_backend(std::string_view name, Backend* out);

/// True when `b` can run on this build + CPU (kScalar always;
/// kAvx2 only when compiled in and CPUID reports AVX2+FMA).
bool backend_available(Backend b);

/// Every available backend, scalar first.
std::vector<Backend> available_backends();

/// The backend all dispatched kernels currently use. Initialized on first
/// use: DESMINE_KERNELS when set (an unavailable or unknown value throws),
/// else the best available backend.
Backend active_backend();

/// Select `b` for all subsequent dispatched kernels. Throws
/// PreconditionError when `b` is unavailable. Not synchronized with
/// in-flight kernels: select at startup or between batches, not mid-decode.
void set_backend(Backend b);

/// Apply a config/CLI choice: "auto" re-runs the startup detection (env
/// override, then best available); "scalar" | "avx2" select that backend.
/// Throws PreconditionError naming the value when it is unknown or
/// unavailable.
void select_backend(std::string_view choice);

/// Operator-facing kernel settings as carried by io::RunConfig's `tensor`
/// section and the --kernels flag; applied with select_backend(kernels).
struct KernelConfig {
  std::string kernels = "auto";  ///< auto | scalar | avx2
};

}  // namespace kernels

}  // namespace desmine::tensor
