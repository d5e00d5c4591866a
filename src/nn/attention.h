// Luong-style "general" attention (Effective Approaches to Attention-based
// NMT, Luong et al. 2015 — reference [23] of the paper).
//
// score(h_dec, h_enc) = h_dec^T (Wa h_enc); alignment = softmax over source
// positions; context = alignment-weighted sum of encoder outputs; the
// attentional hidden state is h~ = tanh(Wc [context; h_dec]).
//
// The module is driven per decoder step (forward) and then in exact reverse
// order (backward_step), mirroring how the decoder interleaves it with the
// LSTM stack. Gradients w.r.t. the encoder outputs accumulate across steps
// and are handed back once at the end.
//
// Per-step caches live in a tensor::Workspace handed to begin() (or an
// internal fallback arena); transient backward scratch is reclaimed via
// checkpoint/rewind inside each backward_step. Views returned by step()/
// backward_step() stay valid until that workspace is next rewound by its
// owner.
#pragma once

#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/matrix.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace desmine::nn {

/// Luong scoring function variants. kGeneral is the paper's default;
/// kDot drops Wa entirely (score = <h_dec, h_enc>), trading a parameter
/// matrix for speed (ablated in bench_ablation_nmt_settings).
enum class AttentionScore { kGeneral, kDot };

class LuongAttention {
 public:
  LuongAttention(const std::string& name, std::size_t hidden, util::Rng& rng,
                 float init_scale = 0.1f,
                 AttentionScore score = AttentionScore::kGeneral,
                 WeightStorage storage = WeightStorage::kOwned);

  /// Bind the encoder outputs (one (batch x H) view per source position) for
  /// the coming decode. The viewed storage must outlive the sequence.
  /// `workspace`, if given, backs the per-step caches and encoder-gradient
  /// accumulators (never rewound here — the owner rewinds between
  /// sequences); otherwise an internal arena is used and reset here.
  /// `source_lengths`, if given, holds one true source length per batch row
  /// (rows were encoded in lock-step and padded to the longest): step() then
  /// pins align(b, s) to -inf for s >= source_lengths[b] before the softmax,
  /// which makes every padded position's weight exactly 0.0f. Because
  /// max(x, -inf) == x and x + 0.0f == x bitwise, the softmax over the valid
  /// prefix — and hence the context and h~ — is bit-identical to running
  /// that row alone at its compact length. Masked decodes are inference
  /// only: backward_step through a -inf score is undefined.
  void begin(const std::vector<tensor::ConstMatrixView>& encoder_outputs,
             std::size_t batch, tensor::Workspace* workspace = nullptr,
             const std::vector<std::size_t>* source_lengths = nullptr);

  /// Convenience overload over owned encoder outputs. The pointed-to vector
  /// must outlive the sequence.
  void begin(const std::vector<tensor::Matrix>* encoder_outputs,
             std::size_t batch, tensor::Workspace* workspace = nullptr);

  /// One decoder step: consume the decoder top hidden state, return the
  /// attentional hidden state h~ (batch x H).
  tensor::ConstMatrixView step(tensor::ConstMatrixView h_dec);

  /// Alignment weights of forward step t (batch x src_len); for inspection.
  tensor::ConstMatrixView alignment(std::size_t t) const;

  /// Backward for the most recent un-backpropagated step (call in reverse
  /// step order). Takes dL/dh~ and returns dL/dh_dec. Parameter gradients
  /// accumulate; encoder-output gradients accumulate into encoder_grads().
  tensor::MatrixView backward_step(tensor::ConstMatrixView d_attn);

  /// Accumulated dL/d encoder_outputs, valid after all backward_step calls.
  const std::vector<tensor::MatrixView>& encoder_grads() const {
    return d_encoder_;
  }

  void register_params(ParamRegistry& reg) {
    if (score_ == AttentionScore::kGeneral) reg.add(&wa_);
    reg.add(&wc_);
  }

  std::size_t hidden() const { return hidden_; }

 private:
  struct StepCache {
    tensor::MatrixView h_dec;   ///< (batch x H), copied into the workspace
    tensor::MatrixView align;   ///< (batch x S)
    tensor::MatrixView concat;  ///< [context; h_dec] (batch x 2H)
    tensor::MatrixView attn;    ///< h~ (batch x H)
  };

  std::size_t hidden_;
  AttentionScore score_;
  Param wa_;  ///< (H x H) for the "general" score (unused for kDot)
  Param wc_;  ///< (2H x H) combine layer

  tensor::Workspace* ws_ = nullptr;
  tensor::Workspace own_ws_;
  std::vector<tensor::ConstMatrixView> enc_;
  /// enc_ stacked into (S·batch) x H on the workspace, row s·batch + b.
  tensor::MatrixView stacked_;
  /// enc[s] * Wa per position: views into one tall GEMM's result (kDot:
  /// into stacked_).
  std::vector<tensor::ConstMatrixView> transformed_;
  /// transformed_ and enc_ transposed to (batch*H) x transposed_cols(S) for
  /// tensor::dot_rows_transposed, on the workspace. enc_t_ is built by the
  /// first backward_step (empty until then); for kDot both are one buffer.
  tensor::MatrixView transformed_t_;
  tensor::MatrixView enc_t_;
  std::vector<std::size_t> src_lengths_;  ///< per-row mask; empty = no mask
  std::vector<tensor::MatrixView> d_encoder_;
  std::vector<StepCache> steps_;
  std::size_t backward_cursor_ = 0;  ///< steps remaining to backprop
  std::size_t batch_ = 0;
};

}  // namespace desmine::nn
