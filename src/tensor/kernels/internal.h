// Backend dispatch table shared by the kernel TUs. Not part of the public
// surface — include tensor/kernels.h instead.
//
// Contract for every entry (shape/alias checks happen once in dispatch.cpp,
// backends may assume valid inputs):
//  * gemm_**: out += alpha * op(A) op(B). beta was already applied by the
//    dispatcher (zeroing for beta == 0), so backends only accumulate. With
//    alpha == 1 the scalar backend must reproduce the historical loop
//    bodies bit for bit, including the av == 0 skip and loop order.
//  * axpy / bias_add / softmax / argmax: bit-exact across all backends
//    (lane-parallel vectorization only; exp and row sums in scalar order).
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
};

const Ops& scalar_ops();
/// Null when this build carries no AVX2 TU (non-x86 toolchain); runtime
/// CPUID gating happens in dispatch.cpp on top of this.
const Ops* avx2_ops();

}  // namespace desmine::tensor::kernels
