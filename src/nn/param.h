// Trainable parameters and the registry optimizers iterate over.
#pragma once

#include <string>
#include <vector>

#include "tensor/matrix.h"
#include "util/error.h"

namespace desmine::nn {

/// Where a model's weights live (ISSUE 9, DESIGN.md §15).
///  * kOwned    — each Param allocates heap value + grad tensors (training
///                and pair-model checkpoint sidecar loads).
///  * kDeferred — no allocation at construction; the weight bytes arrive
///                later via Param::bind(), typically views into an mmap'd
///                v4 artifact. Deferred models are inference-only.
enum class WeightStorage { kOwned, kDeferred };

/// One model tensor: an owned value/gradient pair (training), or a shape
/// plus a bound read-only view over external storage (mapped serving).
///
/// Every forward kernel reads weights through view(), which aliases the
/// bound storage when present and the owned heap matrix otherwise — the
/// same bytes flow through the same kernels either way, so a mapped decode
/// is bit-identical to the heap decode of the same artifact.
struct Param {
  Param() = default;
  Param(std::string name, std::size_t rows, std::size_t cols,
        WeightStorage storage = WeightStorage::kOwned)
      : name(std::move(name)), rows_(rows), cols_(cols) {
    if (storage == WeightStorage::kOwned) {
      value = tensor::Matrix(rows, cols);
      grad = tensor::Matrix(rows, cols);
    }
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return rows_ * cols_; }

  /// Read path for forward/inference kernels.
  tensor::ConstMatrixView view() const {
    return bound_.data() != nullptr ? bound_ : tensor::ConstMatrixView(value);
  }

  /// True when this Param owns mutable storage the optimizer may update.
  bool trainable() const { return !value.empty(); }

  /// Alias external read-only storage (mmap'd artifact pages). The storage
  /// must match this Param's shape and outlive every view() reader; the
  /// owner (io::ArtifactMap) pins it via nmt::TranslationModel.
  void bind(tensor::ConstMatrixView external) {
    DESMINE_EXPECTS(external.rows() == rows_ && external.cols() == cols_,
                    "bound storage shape mismatch for " + name);
    bound_ = external;
  }

  void zero_grad() { grad.zero(); }

  std::string name;
  tensor::Matrix value;
  tensor::Matrix grad;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  tensor::ConstMatrixView bound_;
};

/// Non-owning list of a model's parameters, in a stable order.
///
/// Layers register their Params once at construction; the optimizer and the
/// gradient checker walk the same list, so parameter order is identical
/// between them (required for reproducibility).
class ParamRegistry {
 public:
  void add(Param* p) { params_.push_back(p); }

  std::vector<Param*>& params() { return params_; }
  const std::vector<Param*>& params() const { return params_; }

  void zero_grad() {
    for (Param* p : params_) p->zero_grad();
  }

  /// Total number of scalar parameters.
  std::size_t scalar_count() const {
    std::size_t n = 0;
    for (const Param* p : params_) n += p->size();
    return n;
  }

  /// Global L2 norm of all gradients.
  double grad_norm() const;

  /// Scale all gradients so the global norm is at most `max_norm`.
  void clip_grad_norm(double max_norm);

 private:
  std::vector<Param*> params_;
};

}  // namespace desmine::nn
