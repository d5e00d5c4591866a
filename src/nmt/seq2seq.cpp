#include "nmt/seq2seq.h"

#include <algorithm>

#include "nn/loss.h"
#include "obs/log.h"
#include "tensor/kernels.h"
#include "util/error.h"

namespace desmine::nmt {

namespace {

/// Transpose a batch of equal-length sequences into per-timestep id vectors.
std::vector<std::vector<std::int32_t>> to_timesteps(
    const std::vector<const EncodedPair*>& batch, bool source) {
  const std::size_t len =
      source ? batch.front()->source.size() : batch.front()->target.size();
  std::vector<std::vector<std::int32_t>> steps(
      len, std::vector<std::int32_t>(batch.size()));
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const auto& seq = source ? batch[b]->source : batch[b]->target;
    DESMINE_EXPECTS(seq.size() == len,
                    "all sequences in a batch must share one length");
    for (std::size_t t = 0; t < len; ++t) steps[t][b] = seq[t];
  }
  return steps;
}

}  // namespace

Seq2SeqModel::Seq2SeqModel(std::size_t src_vocab, std::size_t tgt_vocab,
                           const Seq2SeqConfig& config, util::Rng rng,
                           tensor::Workspace* workspace,
                           nn::WeightStorage storage)
    : config_(config),
      rng_(rng),
      storage_(storage),
      src_embed_(src_vocab, config.embedding_dim, rng_, config.init_scale,
                 storage),
      tgt_embed_(tgt_vocab, config.embedding_dim, rng_, config.init_scale,
                 storage),
      encoder_("enc", config.embedding_dim, config.hidden_dim,
               config.num_layers, rng_, config.dropout, config.init_scale,
               storage),
      decoder_("dec", config.embedding_dim, config.hidden_dim,
               config.num_layers, rng_, config.dropout, config.init_scale,
               storage),
      attention_("attn", config.hidden_dim, rng_, config.init_scale,
                 config.attention, storage),
      out_("out", config.hidden_dim, tgt_vocab, rng_, /*with_bias=*/true,
           config.init_scale, storage),
      ws_(workspace != nullptr ? workspace : &own_ws_) {
  DESMINE_EXPECTS(src_vocab > text::Vocabulary::kEos &&
                      tgt_vocab > text::Vocabulary::kEos,
                  "vocabs must include the special tokens");
  src_embed_.register_params(registry_);
  tgt_embed_.register_params(registry_);
  encoder_.register_params(registry_);
  decoder_.register_params(registry_);
  attention_.register_params(registry_);
  out_.register_params(registry_);
}

void Seq2SeqModel::reserve_workspace(std::size_t max_src_len,
                                     std::size_t max_tgt_len,
                                     std::size_t batch) {
  const std::size_t B = batch;
  const std::size_t E = config_.embedding_dim;
  const std::size_t H = config_.hidden_dim;
  const std::size_t L = config_.num_layers;
  const std::size_t V = tgt_vocab();
  const std::size_t S = max_src_len;
  const std::size_t T = max_tgt_len + 1;  // +1 for the </s> step
  // Per-step LSTM footprint: input copy + mask + 7 gate/cell caches per
  // layer, plus the transient 4H pre-activation. Attention adds the stacked
  // encoder rows, transformed and d_encoder (per source position), their
  // two transposed copies (H x S padded to 8 each), and h_dec/align/concat/
  // attn plus the transient context per target step; the output layer adds
  // dlogits per step. Backward adds dx per step plus per-layer running
  // gradients. Independent of the batch: the encoder's and decoder's token
  // tables (each vocabulary's embedding · Wx, V x 4H). Doubled for slack —
  // over-reserving only costs address space in one chunk.
  const std::size_t lstm_step = 2 * (E + (L - 1) * H) + 7 * L * H + 4 * H;
  const std::size_t per_src = lstm_step + 3 * H + E;     // + attention, dx
  const std::size_t per_tgt = lstm_step + 6 * H + 2 * S  // + attention caches
                              + 2 * V + E;               // + dlogits/logits, dx
  const std::size_t transposed = 2 * H * tensor::transposed_cols(S);
  const std::size_t fixed = 8 * L * H + 8 * H;           // running BPTT grads
  const std::size_t tables = (src_vocab() + V) * 4 * H;
  const std::size_t floats =
      B * (S * per_src + T * per_tgt + transposed + fixed) + tables;
  ws_->reserve(2 * floats * sizeof(float));
}

double Seq2SeqModel::run_teacher_forced(
    const std::vector<const EncodedPair*>& batch, bool train) {
  DESMINE_EXPECTS(!batch.empty(), "empty batch");
  const std::size_t B = batch.size();
  const auto src_steps = to_timesteps(batch, /*source=*/true);
  const auto tgt_steps = to_timesteps(batch, /*source=*/false);
  const std::size_t S = src_steps.size();
  const std::size_t T = tgt_steps.size() + 1;  // +1 for the </s> step
  DESMINE_EXPECTS(S > 0 && tgt_steps.size() > 0, "sequences must be non-empty");

  // Everything from the previous batch is dead; reclaim the whole arena.
  ws_->reset();

  // ---- Encoder ----
  encoder_.begin(B, nullptr, train, &rng_, ws_);
  encoder_.bind_input_table(src_embed_.table().view());
  enc_outputs_.clear();
  enc_outputs_.reserve(S);
  for (std::size_t t = 0; t < S; ++t) {
    enc_outputs_.push_back(encoder_.step(src_steps[t]));
  }
  const nn::LstmState enc_final = encoder_.state();

  // ---- Decoder (teacher forcing: input <s>, w1..wm; predict w1..wm, </s>) --
  decoder_.begin(B, &enc_final, train, &rng_, ws_);
  decoder_.bind_input_table(tgt_embed_.table().view());
  attention_.begin(enc_outputs_, B, ws_);

  std::vector<std::vector<std::int32_t>> dec_inputs(T);
  std::vector<std::vector<std::int32_t>> dec_targets(T);
  for (std::size_t t = 0; t < T; ++t) {
    dec_inputs[t] = (t == 0)
                        ? std::vector<std::int32_t>(B, text::Vocabulary::kBos)
                        : tgt_steps[t - 1];
    dec_targets[t] =
        (t + 1 == T) ? std::vector<std::int32_t>(B, text::Vocabulary::kEos)
                     : tgt_steps[t];
  }

  const std::size_t total_tokens = B * T;
  const float grad_scale = 1.0f / static_cast<float>(total_tokens);

  double loss_sum = 0.0;
  attn_states_.assign(T, tensor::ConstMatrixView());
  dlogits_.assign(T, tensor::MatrixView());
  for (std::size_t t = 0; t < T; ++t) {
    const tensor::ConstMatrixView h_dec = decoder_.step(dec_inputs[t]);
    attn_states_[t] = attention_.step(h_dec);
    dlogits_[t] = ws_->alloc(B, tgt_vocab());
    // The logits themselves are transient: only their xent gradient is kept.
    const tensor::Workspace::Checkpoint scratch = ws_->checkpoint();
    tensor::MatrixView logits = ws_->alloc_for_overwrite(B, tgt_vocab());
    out_.forward_into(attn_states_[t], logits);
    const nn::XentResult res =
        nn::softmax_xent(tensor::ConstMatrixView(logits), dec_targets[t],
                         dlogits_[t], grad_scale);
    ws_->rewind(scratch);
    loss_sum += res.loss_sum;
  }
  const double mean_loss = loss_sum / static_cast<double>(total_tokens);
  if (!train) return mean_loss;

  // ---- Backward ----
  dh_dec_.assign(T, tensor::ConstMatrixView());
  for (std::size_t t = T; t-- > 0;) {
    tensor::MatrixView d_attn = ws_->alloc(B, config_.hidden_dim);
    out_.backward_into(attn_states_[t], dlogits_[t], d_attn);
    dh_dec_[t] = attention_.backward_step(d_attn);
  }
  nn::LstmStack::BackwardResult dec_back = decoder_.backward(dh_dec_);
  for (std::size_t t = 0; t < T; ++t) {
    tgt_embed_.backward(dec_inputs[t], dec_back.dx[t]);
  }

  // Encoder receives gradient from attention (per step) and from the
  // decoder's initial state.
  nn::LstmStack::BackwardResult enc_back =
      encoder_.backward(attention_.encoder_grads(), &dec_back.dstate0);
  for (std::size_t t = 0; t < S; ++t) {
    src_embed_.backward(src_steps[t], enc_back.dx[t]);
  }
  return mean_loss;
}

double Seq2SeqModel::train_batch(
    const std::vector<const EncodedPair*>& batch) {
  DESMINE_EXPECTS(trainable(),
                  "cannot train a model serving mapped (read-only) weights");
  return run_teacher_forced(batch, /*train=*/true);
}

double Seq2SeqModel::evaluate_loss(
    const std::vector<const EncodedPair*>& batch) {
  return run_teacher_forced(batch, /*train=*/false);
}

std::vector<std::vector<std::int32_t>> Seq2SeqModel::translate_batch(
    const std::vector<const std::vector<std::int32_t>*>& sources) {
  DESMINE_EXPECTS(!sources.empty(), "cannot translate an empty batch");
  const std::size_t B = sources.size();
  std::vector<std::size_t> lengths(B);
  std::size_t max_len = 0;
  for (std::size_t b = 0; b < B; ++b) {
    DESMINE_EXPECTS(sources[b] != nullptr && !sources[b]->empty(),
                    "cannot translate an empty sentence");
    lengths[b] = sources[b]->size();
    max_len = std::max(max_len, lengths[b]);
  }

  // Decode scratch lives on the calling thread's arena, never on the
  // model's own (training) arena: see tensor::thread_workspace().
  tensor::Workspace* ws = &tensor::thread_workspace();
  ws->reset();

  // Lock-step ragged encode: rows run to the longest source; a row past its
  // own length steps on <pad> and is immediately rolled back, so its final
  // state is exactly the state at its true length.
  encoder_.begin(B, nullptr, /*train=*/false, nullptr, ws);
  encoder_.bind_input_table(src_embed_.table().view());
  enc_outputs_.clear();
  enc_outputs_.reserve(max_len);
  std::vector<std::int32_t> step_ids(B);
  std::vector<std::uint8_t> frozen(B);
  for (std::size_t t = 0; t < max_len; ++t) {
    bool any_frozen = false;
    for (std::size_t b = 0; b < B; ++b) {
      if (t < lengths[b]) {
        step_ids[b] = (*sources[b])[t];
        frozen[b] = 0;
      } else {
        step_ids[b] = text::Vocabulary::kPad;
        frozen[b] = 1;
        any_frozen = true;
      }
    }
    enc_outputs_.push_back(encoder_.step(step_ids));
    if (any_frozen) encoder_.retain_rows(frozen);
  }
  const nn::LstmState enc_final = encoder_.state();

  decoder_.begin(B, &enc_final, /*train=*/false, nullptr, ws);
  decoder_.bind_input_table(tgt_embed_.table().view());
  attention_.begin(enc_outputs_, B, ws, &lengths);

  // Lock-step greedy decode. A finished row keeps stepping (its state no
  // longer feeds anything that is kept), which cannot perturb other rows:
  // every kernel is row-independent.
  std::vector<std::vector<std::int32_t>> outputs(B);
  std::vector<std::int32_t> prev(B, text::Vocabulary::kBos);
  std::vector<std::int32_t> next(B);
  std::vector<std::uint8_t> done(B, 0);
  std::size_t done_count = 0;
  for (std::size_t t = 0;
       t < config_.max_decode_length && done_count < B; ++t) {
    const tensor::ConstMatrixView h_dec = decoder_.step(prev);
    const tensor::ConstMatrixView attn = attention_.step(h_dec);
    const tensor::Workspace::Checkpoint scratch = ws->checkpoint();
    tensor::MatrixView logits = ws->alloc_for_overwrite(B, tgt_vocab());
    out_.forward_into(attn, logits);
    tensor::argmax_rows(logits, next.data());
    ws->rewind(scratch);
    for (std::size_t b = 0; b < B; ++b) {
      if (done[b]) continue;
      if (next[b] == text::Vocabulary::kEos) {
        done[b] = 1;
        ++done_count;
      } else {
        outputs[b].push_back(next[b]);
        prev[b] = next[b];
      }
    }
  }
  if (done_count < B) {
    DESMINE_LOG_DEBUG("batched greedy decode truncated before </s>",
                      {obs::kv("max_decode_length", config_.max_decode_length),
                       obs::kv("unfinished_rows", B - done_count)});
  }
  return outputs;
}

}  // namespace desmine::nmt
