// Fused softmax + cross-entropy loss.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace desmine::nn {

/// Computes mean-per-token softmax cross-entropy and its gradient in one
/// pass (the fused form is numerically stable: grad = softmax(logits) - 1hot).
///
/// `logits` is (batch x vocab); `targets` holds one class id per row; a
/// target of -1 marks a padded position that contributes neither loss nor
/// gradient. `grad_scale` multiplies the gradient (use 1/total_tokens when
/// summing losses across timesteps so the final gradient matches the mean
/// loss that is reported).
struct XentResult {
  double loss_sum = 0.0;       ///< summed negative log-likelihood
  std::size_t token_count = 0;  ///< rows with target != -1
};

XentResult softmax_xent(const tensor::Matrix& logits,
                        const std::vector<std::int32_t>& targets,
                        tensor::Matrix& dlogits, float grad_scale);

/// View variant: `dlogits` must be pre-shaped like `logits`; it is fully
/// overwritten (padded rows are zeroed).
XentResult softmax_xent(tensor::ConstMatrixView logits,
                        const std::vector<std::int32_t>& targets,
                        tensor::MatrixView dlogits, float grad_scale);

}  // namespace desmine::nn
