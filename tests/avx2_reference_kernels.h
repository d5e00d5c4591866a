// Test-only frozen avx2 GEMM reference (see avx2_reference_kernels.cpp).
#pragma once

#include "tensor/matrix.h"

namespace desmine::reference {

/// out += alpha * op(A) op(B) with the pre-re-tiling avx2 kernel for
/// (ta, tb) in {nn, tn, nt}; beta is the caller's business, as in the
/// backend table. Returns false, leaving `out` alone, for tt or when this
/// build carries no avx2 code.
bool frozen_avx2_gemm(tensor::Transpose ta, tensor::Transpose tb, float alpha,
                      tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                      tensor::MatrixView out);

}  // namespace desmine::reference
