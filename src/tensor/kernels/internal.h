// Backend dispatch table shared by the kernel TUs. Not part of the public
// surface — include tensor/kernels.h instead.
//
// Contract for every entry (shape/alias checks happen once in dispatch.cpp,
// backends may assume valid inputs):
//  * gemm_**: out += alpha * op(A) op(B). beta was already applied by the
//    dispatcher (zeroing for beta == 0), so backends only accumulate. With
//    alpha == 1 the scalar backend must reproduce the historical loop
//    bodies bit for bit, including the av == 0 skip and loop order.
//  * axpy / bias_add / softmax / argmax / dot_rows_t / weighted_rows:
//    bit-exact across all backends (lane-parallel vectorization only; row
//    maxima, row sums, dot and context chains in scalar order; softmax's
//    exp is the `exp` entry's).
//  * exp / tanh: bit-exact across all backends — kScalar is std::exp /
//    std::tanh, kAvx2 lane-for-lane ports of glibc's FMA expf and fdlibm
//    tanhf (avx2.cpp).
//  * lstm_gates: out.c may alias c_prev; kScalar must use libm
//    transcendentals (bit-exact); kAvx2 may use vector polynomials.
#pragma once

#include "tensor/kernels.h"

namespace desmine::tensor::kernels {

struct Ops {
  // out += alpha * A B | A^T B | A B^T | A^T B^T. Effective shapes:
  // op(A) (m x k), op(B) (k x n), out (m x n).
  void (*gemm_nn)(float alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView out);
  void (*gemm_tn)(float alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView out);
  void (*gemm_nt)(float alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView out);
  void (*gemm_tt)(float alpha, ConstMatrixView a, ConstMatrixView b,
                  MatrixView out);
  void (*axpy)(float alpha, ConstMatrixView x, MatrixView y);
  void (*bias_add)(MatrixView m, ConstMatrixView bias);
  void (*softmax_rows)(MatrixView m);
  void (*lstm_gates)(ConstMatrixView z, ConstMatrixView c_prev,
                     const LstmGateViews& out);
  void (*argmax_rows)(ConstMatrixView m, std::int32_t* out);
  void (*tanh)(MatrixView m);
  // out(b, s) = sum_k x(b, k) yt(b H + k, s); yt's columns are out's padded
  // to a multiple of 8.
  void (*dot_rows_t)(ConstMatrixView x, ConstMatrixView yt, MatrixView out);
  void (*exp)(MatrixView m);
  // out(b, :) += sum_s w(b, s) y(s B + b, :), s ascending, w == 0 skipped.
  void (*weighted_rows)(ConstMatrixView w, ConstMatrixView y, MatrixView out);
};

const Ops& scalar_ops();
/// Null when this build carries no AVX2 TU (non-x86 toolchain); runtime
/// CPUID gating happens in dispatch.cpp on top of this.
const Ops* avx2_ops();

}  // namespace desmine::tensor::kernels
