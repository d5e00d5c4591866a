// Adam optimizer (Kingma & Ba 2015) over a ParamRegistry.
#pragma once

#include <vector>

#include "nn/param.h"

namespace desmine::nn {

struct AdamConfig {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
};

/// One bias-corrected Adam update over equal-shaped buffers: updates the
/// moment estimates `m`/`v` in place and applies the step to `value`.
/// `lr_t` is the bias-corrected rate lr * sqrt(1-beta2^t) / (1-beta1^t).
/// View-based so values/moments can live in owned matrices or arena slices.
void adam_apply(tensor::MatrixView value, tensor::ConstMatrixView grad,
                tensor::MatrixView m, tensor::MatrixView v,
                const AdamConfig& config, float lr_t);

/// Owns first/second-moment slots matching the registry's parameter order.
/// The registry must not change after construction.
class Adam {
 public:
  explicit Adam(ParamRegistry& registry, AdamConfig config = {});

  /// Apply one update using the gradients currently stored in the params,
  /// then leave the gradients untouched (caller decides when to zero them).
  void step();

  std::size_t steps_taken() const { return t_; }
  const AdamConfig& config() const { return config_; }

 private:
  ParamRegistry& registry_;
  AdamConfig config_;
  std::size_t t_ = 0;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
};

}  // namespace desmine::nn
