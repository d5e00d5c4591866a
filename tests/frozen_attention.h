// Test-only frozen copy of LuongAttention's forward and backward loops as
// they stood before the scores, dalign dots and h~ tanh moved into the
// dispatched kernels (see frozen_attention.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/attention.h"
#include "tensor/matrix.h"

namespace desmine::reference {

/// Reads the weights of a live layer (wa may be null for kDot) and keeps its
/// own caches and gradient accumulators in owned matrices.
class FrozenAttention {
 public:
  FrozenAttention(std::size_t hidden, nn::AttentionScore score,
                  tensor::ConstMatrixView wa, tensor::ConstMatrixView wc);

  void begin(const std::vector<tensor::ConstMatrixView>& encoder_outputs,
             std::size_t batch,
             const std::vector<std::size_t>* source_lengths = nullptr);
  tensor::ConstMatrixView step(tensor::ConstMatrixView h_dec);
  tensor::ConstMatrixView alignment(std::size_t t) const {
    return steps_[t].align;
  }
  tensor::Matrix backward_step(tensor::ConstMatrixView d_attn);

  const tensor::Matrix& dwa() const { return dwa_; }
  const tensor::Matrix& dwc() const { return dwc_; }
  const std::vector<tensor::Matrix>& encoder_grads() const {
    return d_encoder_;
  }

 private:
  struct StepCache {
    tensor::Matrix h_dec, align, concat, attn;
  };

  std::size_t hidden_;
  nn::AttentionScore score_;
  tensor::ConstMatrixView wa_, wc_;
  tensor::Matrix dwa_, dwc_;
  std::vector<tensor::ConstMatrixView> enc_;
  std::vector<tensor::Matrix> transformed_;
  std::vector<std::size_t> src_lengths_;
  std::vector<tensor::Matrix> d_encoder_;
  std::vector<StepCache> steps_;
  std::size_t backward_cursor_ = 0;
  std::size_t batch_ = 0;
};

}  // namespace desmine::reference
