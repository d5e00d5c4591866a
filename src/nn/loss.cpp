#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "util/error.h"

namespace desmine::nn {

XentResult softmax_xent(const tensor::Matrix& logits,
                        const std::vector<std::int32_t>& targets,
                        tensor::Matrix& dlogits, float grad_scale) {
  if (!dlogits.same_shape(logits)) {
    dlogits = tensor::Matrix(logits.rows(), logits.cols());
  }
  return softmax_xent(tensor::ConstMatrixView(logits), targets,
                      tensor::MatrixView(dlogits), grad_scale);
}

XentResult softmax_xent(tensor::ConstMatrixView logits,
                        const std::vector<std::int32_t>& targets,
                        tensor::MatrixView dlogits, float grad_scale) {
  DESMINE_EXPECTS(targets.size() == logits.rows(),
                  "one target per logits row");
  DESMINE_EXPECTS(dlogits.same_shape(logits), "dlogits shape mismatch");
  const std::size_t V = logits.cols();
  dlogits.zero();

  XentResult result;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const std::int32_t target = targets[r];
    if (target < 0) continue;  // padded position
    DESMINE_EXPECTS(static_cast<std::size_t>(target) < V, "target id range");

    const float* row = logits.row(r);
    float mx = row[0];
    for (std::size_t c = 1; c < V; ++c) mx = std::max(mx, row[c]);
    // The float exps run through the dispatched kernel on drow (scratch
    // until the gradient overwrites it), then sum in double in order.
    float* drow = dlogits.row(r);
    for (std::size_t c = 0; c < V; ++c) drow[c] = row[c] - mx;
    tensor::exp_inplace(tensor::MatrixView(drow, 1, V));
    double denom = 0.0;
    for (std::size_t c = 0; c < V; ++c) denom += drow[c];
    const double log_denom = std::log(denom);

    result.loss_sum += -(row[static_cast<std::size_t>(target)] - mx - log_denom);
    ++result.token_count;

    for (std::size_t c = 0; c < V; ++c) {
      const auto p =
          static_cast<float>(std::exp(row[c] - mx - log_denom));
      drow[c] = grad_scale * p;
    }
    drow[static_cast<std::size_t>(target)] -= grad_scale;
  }
  return result;
}

}  // namespace desmine::nn
