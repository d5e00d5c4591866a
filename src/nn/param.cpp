#include "nn/param.h"

#include <cmath>

namespace desmine::nn {

double ParamRegistry::grad_norm() const {
  double total = 0.0;
  for (const Param* p : params_) total += p->grad.squared_norm();
  return std::sqrt(total);
}

void ParamRegistry::clip_grad_norm(double max_norm) {
  const double norm = grad_norm();
  if (norm <= max_norm || norm == 0.0) return;
  const auto scale = static_cast<float>(max_norm / norm);
  for (Param* p : params_) p->grad *= scale;
}

}  // namespace desmine::nn
