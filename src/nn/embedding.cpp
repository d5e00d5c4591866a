#include "nn/embedding.h"

#include <algorithm>

#include "util/error.h"

namespace desmine::nn {

Embedding::Embedding(std::size_t vocab_size, std::size_t dim, util::Rng& rng,
                     float init_scale, WeightStorage storage)
    : table_("embedding", vocab_size, dim, storage) {
  DESMINE_EXPECTS(vocab_size > 0 && dim > 0, "embedding dims must be > 0");
  if (storage == WeightStorage::kOwned) {
    table_.value.init_uniform(rng, init_scale);
  }
}

tensor::Matrix Embedding::forward(const std::vector<std::int32_t>& ids) const {
  tensor::Matrix out(ids.size(), dim());
  const tensor::ConstMatrixView table = table_.view();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto id = static_cast<std::size_t>(ids[i]);
    DESMINE_EXPECTS(ids[i] >= 0 && id < vocab_size(), "embedding id range");
    std::copy(table.row(id), table.row(id) + dim(), out.row(i));
  }
  return out;
}

void Embedding::backward(const std::vector<std::int32_t>& ids,
                         tensor::ConstMatrixView grad_out) {
  DESMINE_EXPECTS(grad_out.rows() == ids.size() && grad_out.cols() == dim(),
                  "embedding backward shape");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto id = static_cast<std::size_t>(ids[i]);
    float* grow = table_.grad.row(id);
    const float* src = grad_out.row(i);
    for (std::size_t c = 0; c < dim(); ++c) grow[c] += src[c];
  }
}

}  // namespace desmine::nn
