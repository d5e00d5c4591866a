// Sequence-to-sequence LSTM encoder/decoder with Luong attention.
//
// This is the NMT model of the paper's §II-A3 ([23], [37]): a multi-layer
// LSTM encoder maps the source sensor-language sentence to hidden states, a
// decoder initialized from the encoder's final state emits the target
// sentence token by token, and Luong "general" attention over the encoder
// outputs feeds an attentional hidden state into the output projection.
// Training uses teacher forcing; inference uses greedy decoding.
//
// Training activations, per-timestep caches, and backward scratch live in
// one tensor::Workspace per model (or a caller-provided one, e.g. the
// miner's per-thread arena); greedy decodes run on the decoding thread's
// tensor::thread_workspace(). Each arena is rewound wholesale at the start
// of every batch/decode, so after the first step has grown it to its
// high-water mark, training and greedy decoding perform no steady-state
// heap allocation in the numeric path (see DESIGN.md §10).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/param.h"
#include "tensor/workspace.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace desmine::nmt {

struct Seq2SeqConfig {
  std::size_t embedding_dim = 64;  ///< paper: 64
  std::size_t hidden_dim = 64;     ///< paper: 64
  std::size_t num_layers = 2;      ///< paper: 2
  float dropout = 0.2f;            ///< paper: 0.2
  float init_scale = 0.1f;
  std::size_t max_decode_length = 64;  ///< greedy decode cap
  nn::AttentionScore attention = nn::AttentionScore::kGeneral;
};

/// One encoded sentence pair: source ids and target ids (no specials; the
/// model adds <s>/</s> internally).
struct EncodedPair {
  std::vector<std::int32_t> source;
  std::vector<std::int32_t> target;
};

class Seq2SeqModel {
 public:
  /// All weights are drawn from `rng`, so a (seed, config) pair fully
  /// determines the initial model. `workspace`, if given, backs the model's
  /// training (the model rewinds it per batch and must be its only
  /// concurrent user); otherwise the model owns a private arena.
  /// With `storage == kDeferred` no weight tensors are allocated or
  /// initialized: the caller binds every registry Param to external
  /// read-only storage (io::ArtifactMap) before the first forward pass, and
  /// the model is inference-only (train_batch throws).
  Seq2SeqModel(std::size_t src_vocab, std::size_t tgt_vocab,
               const Seq2SeqConfig& config, util::Rng rng,
               tensor::Workspace* workspace = nullptr,
               nn::WeightStorage storage = nn::WeightStorage::kOwned);

  /// Teacher-forced forward+backward over a batch. All sources must share
  /// one length and all targets another (the trainer buckets accordingly).
  /// Gradients accumulate into the registry; returns mean loss per token.
  double train_batch(const std::vector<const EncodedPair*>& batch);

  /// Mean per-token loss without gradient computation or dropout.
  double evaluate_loss(const std::vector<const EncodedPair*>& batch);

  /// The greedy decoder: decode B ragged-length sources (target ids
  /// without specials) in one lock-step batched pass on the calling
  /// thread's tensor::thread_workspace(). Sources are padded to the
  /// longest; encoder rows past their own length are frozen via
  /// LstmStack::retain_rows and attention masks padded positions to -inf,
  /// so every kernel still sees each row's exact sequential inputs. Every
  /// kernel on this path (gemm, bias, softmax, LSTM gates, attention,
  /// argmax) computes each output row purely from that row's inputs, so the
  /// returned ids — and any score derived from them — are bit-identical to
  /// decoding each sentence alone at B=1.
  std::vector<std::vector<std::int32_t>> translate_batch(
      const std::vector<const std::vector<std::int32_t>*>& sources);

  /// Pre-size the workspace for the largest (source length, target length,
  /// batch) the caller will run, so the hot loop never grows the arena.
  /// A deliberate over-estimate; growing later is still correct.
  void reserve_workspace(std::size_t max_src_len, std::size_t max_tgt_len,
                         std::size_t batch);

  /// The workspace backing this model's training (for stats/bench).
  const tensor::Workspace& workspace() const { return *ws_; }

  /// Detach from a caller-provided workspace and fall back to the model's
  /// own arena. Must be called before the external workspace dies while the
  /// model lives on — e.g. the miner trains against a pool-thread arena,
  /// then detaches the finished model before publishing it to the graph.
  void use_own_workspace() { ws_ = &own_ws_; }

  nn::ParamRegistry& params() { return registry_; }
  const Seq2SeqConfig& config() const { return config_; }
  /// False when the weights are bound views over external (mapped) storage;
  /// such a model can decode and evaluate but never train.
  bool trainable() const { return storage_ == nn::WeightStorage::kOwned; }
  std::size_t src_vocab() const { return src_embed_.vocab_size(); }
  std::size_t tgt_vocab() const { return out_.out_dim(); }

 private:
  /// Shared forward pass; when `train` is true caches are kept for backward
  /// and dropout is active.
  double run_teacher_forced(const std::vector<const EncodedPair*>& batch,
                            bool train);

  Seq2SeqConfig config_;
  util::Rng rng_;
  nn::WeightStorage storage_ = nn::WeightStorage::kOwned;

  nn::Embedding src_embed_;
  nn::Embedding tgt_embed_;
  nn::LstmStack encoder_;
  nn::LstmStack decoder_;
  nn::LuongAttention attention_;
  nn::Linear out_;
  nn::ParamRegistry registry_;

  tensor::Workspace* ws_ = nullptr;
  tensor::Workspace own_ws_;
  // Per-batch scratch lists (capacity reused across batches; the views they
  // hold die at the next workspace rewind).
  std::vector<tensor::ConstMatrixView> enc_outputs_;
  std::vector<tensor::ConstMatrixView> attn_states_;
  std::vector<tensor::MatrixView> dlogits_;
  std::vector<tensor::ConstMatrixView> dh_dec_;
};

}  // namespace desmine::nmt
