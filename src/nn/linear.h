// Fully connected layer with manual backward.
#pragma once

#include "nn/param.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace desmine::nn {

/// y = x W + b, with x: (batch x in), W: (in x out), b: (1 x out).
///
/// The layer is stateless across calls: backward takes the saved input, so a
/// single Linear can be applied at many timesteps and back-propagated per
/// step (gradients accumulate into the shared parameters). The *_into
/// variants write into caller-provided (typically workspace-backed) buffers;
/// the owning variants wrap them.
class Linear {
 public:
  Linear(std::string name, std::size_t in, std::size_t out, util::Rng& rng,
         bool with_bias = true, float init_scale = 0.1f,
         WeightStorage storage = WeightStorage::kOwned);

  tensor::Matrix forward(const tensor::Matrix& x) const;

  /// y = x W + b into a pre-shaped (batch x out) buffer (overwritten).
  void forward_into(tensor::ConstMatrixView x, tensor::MatrixView y) const;

  /// Given dL/dy and the forward input, accumulate parameter gradients and
  /// return dL/dx.
  tensor::Matrix backward(const tensor::Matrix& x,
                          const tensor::Matrix& grad_out);

  /// Same, writing dL/dx into a pre-shaped (batch x in) buffer
  /// (overwritten).
  void backward_into(tensor::ConstMatrixView x, tensor::ConstMatrixView grad_out,
                     tensor::MatrixView grad_in);

  void register_params(ParamRegistry& reg) {
    reg.add(&weight_);
    if (with_bias_) reg.add(&bias_);
  }

  std::size_t in_dim() const { return weight_.rows(); }
  std::size_t out_dim() const { return weight_.cols(); }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  Param weight_;
  Param bias_;
  bool with_bias_;
};

}  // namespace desmine::nn
