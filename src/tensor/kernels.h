// Runtime-dispatched compute-kernel backend (ISSUE 10, DESIGN.md §16).
//
// Every dense kernel in the numeric stack — GEMM in all four transpose
// variants (tensor::gemm in matrix.h), axpy, row bias, row softmax, the
// fused LSTM gate activation, greedy argmax — routes through one dispatch
// table selected at process startup from three backends:
//
//  * kScalar  — the reference loops, bit-exact and pinned by the golden-
//               regression tests. Always available.
//  * kBlocked — cache-blocked reorderings of the same loops. Preserves the
//               per-element accumulation order, so it is bit-identical to
//               kScalar. Always available.
//  * kAvx2    — AVX2+FMA intrinsics (vectorized GEMM, polynomial exp/tanh
//               in the gate fusion). Compiled in only when the toolchain
//               targets x86-64, selected only when CPUID reports AVX2+FMA.
//               Deterministic, but FMA contraction and vector reductions
//               change final-bit rounding vs the scalar reference; axpy,
//               bias, softmax, and argmax remain bit-exact even here.
//
// Selection precedence: explicit set_backend()/select_backend() (config key
// `tensor.kernels`, `--kernels` flag) > the DESMINE_KERNELS environment
// variable (scalar|blocked|avx2) > CPUID auto-detection (best available).
//
// On top of the f32 seam sits the int8 inference path: per-tensor absmax
// quantization (QuantizedTensor, materialized lazily by nn::Param) and a
// dynamic-activation int8 GEMM for serve-side greedy decode, accepted by
// score tolerance + argmax-decode identity against the f32 reference.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/matrix.h"

namespace desmine::tensor {

/// Numeric mode of an inference decode: full-precision f32 kernels or the
/// int8 quantized-weight path (weights per-tensor absmax, activations
/// quantized per row on the fly, int32 accumulation). Training is always
/// f32; kInt8 applies only to forward/decode weight GEMMs.
enum class Precision : std::uint8_t { kF32, kInt8 };

/// "f32" / "int8".
const char* precision_name(Precision p);
/// Parse a precision name; returns false (and leaves *out alone) on an
/// unknown name.
bool parse_precision(std::string_view name, Precision* out);

/// A per-tensor absmax int8 quantization of a row-major f32 matrix:
/// x ≈ data[r * cols + c] * scale, scale = absmax / 127 (scale == 1 for an
/// all-zero tensor). Values are symmetric in [-127, 127].
struct QuantizedTensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  float scale = 1.0f;
  std::vector<std::int8_t> data;
};

/// Quantize m with the per-tensor absmax scheme above.
QuantizedTensor quantize_absmax(ConstMatrixView m);

/// out += A * dequant(Wq), the int8 decode GEMM: each row of A is quantized
/// on the fly with its own absmax scale, products accumulate in int32, and
/// the result is dequantized by (row_scale * w.scale). Shapes as gemm_nn:
/// (m x k) * (k x n) -> (m x n). Backend-dispatched (the AVX2 backend
/// vectorizes the integer inner loop); every backend computes the identical
/// int32 accumulation, so results differ only in the final dequantizing
/// multiply-accumulate order — in practice bit-identical across backends.
void gemm_i8_accum(ConstMatrixView a, const QuantizedTensor& w,
                   MatrixView out);

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
/// `out.c` may alias `c_prev` (an in-place cell update). Scalar and blocked use libm exp/tanh (bit-exact); AVX2 uses
/// polynomial vector transcendentals (≈1e-7 relative, tolerance contract).
void lstm_gate_fusion(ConstMatrixView z, ConstMatrixView c_prev,
                      const LstmGateViews& out);

/// Row-wise argmax (greedy decode step): strict `>` comparison, first
/// maximum wins. `out` must hold m.rows() slots. Bit-exact (identical tie
/// breaking) across every backend.
void argmax_rows(ConstMatrixView m, std::int32_t* out);

namespace kernels {

/// The three compute backends, in increasing order of speed.
enum class Backend : std::uint8_t { kScalar, kBlocked, kAvx2 };

/// "scalar" / "blocked" / "avx2".
const char* backend_name(Backend b);
/// Parse a backend name; returns false (and leaves *out alone) on an
/// unknown name.
bool parse_backend(std::string_view name, Backend* out);

/// True when `b` can run on this build + CPU (kScalar/kBlocked always;
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
/// override, then best available); "scalar" | "blocked" | "avx2" select
/// that backend. Throws PreconditionError on unknown or unavailable names.
void select_backend(std::string_view choice);

/// Operator-facing kernel settings as carried by io::RunConfig's `tensor`
/// section and the --kernels/--precision flags.
struct KernelConfig {
  std::string kernels = "auto";   ///< auto | scalar | blocked | avx2
  std::string precision = "f32";  ///< f32 | int8
};

/// Validate and apply `config.kernels` (select_backend) and return the
/// parsed decode precision. Throws PreconditionError naming the offending
/// value on an unknown or unavailable setting.
Precision apply_kernel_config(const KernelConfig& config);

}  // namespace kernels

}  // namespace desmine::tensor
