// Token embedding lookup with manual backward.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/param.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace desmine::nn {

/// Maps token ids to dense rows of a trainable (vocab x dim) table.
class Embedding {
 public:
  Embedding(std::size_t vocab_size, std::size_t dim, util::Rng& rng,
            float init_scale = 0.1f,
            WeightStorage storage = WeightStorage::kOwned);

  /// Look up a batch of ids; returns (batch x dim). Ids must be < vocab.
  tensor::Matrix forward(const std::vector<std::int32_t>& ids) const;

  /// Accumulate gradient for the ids used in the matching forward call.
  void backward(const std::vector<std::int32_t>& ids,
                tensor::ConstMatrixView grad_out);

  void register_params(ParamRegistry& reg) { reg.add(&table_); }

  std::size_t vocab_size() const { return table_.rows(); }
  std::size_t dim() const { return table_.cols(); }
  Param& table() { return table_; }

 private:
  Param table_;
};

}  // namespace desmine::nn
