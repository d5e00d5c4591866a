#include "nn/attention.h"

#include <algorithm>
#include <limits>

#include "tensor/kernels.h"
#include "util/error.h"

namespace desmine::nn {

namespace {

// dst(b*H + k, s) = src[s](b, k): the per-position (batch x H) views laid
// out for tensor::dot_rows_transposed, source positions along each row.
void transpose_positions(const std::vector<tensor::ConstMatrixView>& src,
                         tensor::MatrixView dst) {
  for (std::size_t s = 0; s < src.size(); ++s) {
    const tensor::ConstMatrixView v = src[s];
    for (std::size_t b = 0; b < v.rows(); ++b) {
      const float* row = v.row(b);
      for (std::size_t k = 0; k < v.cols(); ++k) {
        dst(b * v.cols() + k, s) = row[k];
      }
    }
  }
}

}  // namespace

LuongAttention::LuongAttention(const std::string& name, std::size_t hidden,
                               util::Rng& rng, float init_scale,
                               AttentionScore score, WeightStorage storage)
    : hidden_(hidden),
      score_(score),
      wa_(name + ".Wa", hidden, hidden, storage),
      wc_(name + ".Wc", 2 * hidden, hidden, storage) {
  DESMINE_EXPECTS(hidden > 0, "attention hidden must be > 0");
  if (storage == WeightStorage::kOwned) {
    wa_.value.init_uniform(rng, init_scale);
    wc_.value.init_uniform(rng, init_scale);
  }
}

void LuongAttention::begin(
    const std::vector<tensor::ConstMatrixView>& encoder_outputs,
    std::size_t batch, tensor::Workspace* workspace,
    const std::vector<std::size_t>* source_lengths) {
  DESMINE_EXPECTS(!encoder_outputs.empty(), "attention needs encoder outputs");
  ws_ = workspace != nullptr ? workspace : &own_ws_;
  if (workspace == nullptr) own_ws_.reset();
  enc_.assign(encoder_outputs.begin(), encoder_outputs.end());
  batch_ = batch;
  if (source_lengths != nullptr) {
    DESMINE_EXPECTS(source_lengths->size() == batch,
                    "one source length per batch row");
    for (const std::size_t len : *source_lengths) {
      DESMINE_EXPECTS(len > 0 && len <= enc_.size(),
                      "source length outside [1, src_len]");
    }
    src_lengths_ = *source_lengths;
  } else {
    src_lengths_.clear();
  }
  // The encoder outputs stacked once into (S·B) x H, row s·B + b = enc[s]
  // row b: the context sum's operand, and for kGeneral the input of one
  // tall GEMM giving every position's enc[s] Wa (a row of a tall GEMM
  // equals a one-row call, so each position's transform is unchanged).
  const std::size_t S = enc_.size();
  stacked_ = ws_->alloc_for_overwrite(S * batch, hidden_);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView e = enc_[s];
    DESMINE_EXPECTS(e.rows() == batch && e.cols() == hidden_,
                    "encoder output shape");
    std::copy(e.data(), e.data() + e.size(), stacked_.row(s * batch));
  }
  tensor::ConstMatrixView transformed = stacked_;
  if (score_ == AttentionScore::kGeneral) {
    tensor::MatrixView t = ws_->alloc_for_overwrite(S * batch, hidden_);
    tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
                 stacked_, wa_.view(), 0.0f, t);
    transformed = t;
  }
  transformed_.clear();
  transformed_.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    transformed_.emplace_back(transformed.row(s * batch), batch, hidden_);
  }
  // The scores read transformed_ transposed (zeroed: the padding columns
  // are read); the backward builds enc_'s transposed copy and the encoder
  // gradients on its first step, so decoding never pays for them.
  transformed_t_ = ws_->alloc(batch * hidden_,
                              tensor::transposed_cols(enc_.size()));
  transpose_positions(transformed_, transformed_t_);
  enc_t_ = score_ == AttentionScore::kDot ? transformed_t_
                                          : tensor::MatrixView();
  d_encoder_.clear();
  steps_.clear();
  backward_cursor_ = 0;
}

void LuongAttention::begin(const std::vector<tensor::Matrix>* encoder_outputs,
                           std::size_t batch, tensor::Workspace* workspace) {
  DESMINE_EXPECTS(encoder_outputs != nullptr, "attention needs encoder outputs");
  std::vector<tensor::ConstMatrixView> views;
  views.reserve(encoder_outputs->size());
  for (const tensor::Matrix& e : *encoder_outputs) views.emplace_back(e);
  begin(views, batch, workspace);
}

tensor::ConstMatrixView LuongAttention::step(tensor::ConstMatrixView h_dec) {
  DESMINE_EXPECTS(!enc_.empty(), "begin() not called");
  DESMINE_EXPECTS(h_dec.rows() == batch_ && h_dec.cols() == hidden_,
                  "h_dec shape");
  const std::size_t S = enc_.size();

  StepCache cache;
  // h_dec is copied so the cache survives transient caller buffers.
  cache.h_dec = ws_->alloc_for_overwrite(batch_, hidden_);
  cache.h_dec.copy_from(h_dec);

  // Scores: score(b, s) = <h_dec[b], (enc[s] Wa)[b]>. Padded positions:
  // -inf survives the row max untouched and its exp() contributes an exact
  // 0.0f to the softmax sum, so the valid prefix's weights match the compact
  // (unpadded) decode bit for bit.
  cache.align = ws_->alloc_for_overwrite(batch_, S);
  tensor::dot_rows_transposed(h_dec, transformed_t_, cache.align);
  if (!src_lengths_.empty()) {
    for (std::size_t b = 0; b < batch_; ++b) {
      float* al = cache.align.row(b);
      for (std::size_t s = src_lengths_[b]; s < S; ++s) {
        al[s] = -std::numeric_limits<float>::infinity();
      }
    }
  }
  tensor::softmax_rows(cache.align);

  // Context vector (summed from zero on a scratch slice) and the
  // [context; h_dec] concat.
  cache.concat = ws_->alloc_for_overwrite(batch_, 2 * hidden_);
  const tensor::Workspace::Checkpoint scratch = ws_->checkpoint();
  tensor::MatrixView ctx = ws_->alloc(batch_, hidden_);
  tensor::weighted_rows(cache.align, stacked_, ctx);
  for (std::size_t b = 0; b < batch_; ++b) {
    float* dst = cache.concat.row(b);
    std::copy(ctx.row(b), ctx.row(b) + hidden_, dst);
    std::copy(h_dec.row(b), h_dec.row(b) + hidden_, dst + hidden_);
  }
  ws_->rewind(scratch);

  cache.attn = ws_->alloc_for_overwrite(batch_, hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
               cache.concat, wc_.view(), 0.0f, cache.attn);
  tensor::tanh_inplace(cache.attn);

  steps_.push_back(cache);
  backward_cursor_ = steps_.size();
  return steps_.back().attn;
}

tensor::ConstMatrixView LuongAttention::alignment(std::size_t t) const {
  DESMINE_EXPECTS(t < steps_.size(), "alignment step out of range");
  return steps_[t].align;
}

tensor::MatrixView LuongAttention::backward_step(
    tensor::ConstMatrixView d_attn) {
  DESMINE_EXPECTS(backward_cursor_ > 0, "no forward step left to backprop");
  const StepCache& cache = steps_[--backward_cursor_];
  const std::size_t S = enc_.size();
  if (d_encoder_.empty()) {  // first backward step of this sequence
    for (std::size_t s = 0; s < S; ++s) {
      d_encoder_.push_back(ws_->alloc(batch_, hidden_));
    }
  }
  if (enc_t_.empty()) {
    enc_t_ = ws_->alloc(batch_ * hidden_, tensor::transposed_cols(S));
    transpose_positions(enc_, enc_t_);
  }

  // dh_dec is the step's output and must outlive the rewind below; the rest
  // is scratch reclaimed when this step's backward is done.
  tensor::MatrixView dh_dec = ws_->alloc(batch_, hidden_);
  const tensor::Workspace::Checkpoint scratch = ws_->checkpoint();

  // Through tanh.
  tensor::MatrixView dpre = ws_->alloc(batch_, hidden_);
  dpre.copy_from(d_attn);
  for (std::size_t idx = 0; idx < dpre.size(); ++idx) {
    const float a = cache.attn.data()[idx];
    dpre.data()[idx] *= (1.0f - a * a);
  }

  // Through the combine layer: attn_pre = concat * Wc.
  tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f,
               cache.concat, dpre, 1.0f, wc_.grad);
  tensor::MatrixView dconcat = ws_->alloc(batch_, 2 * hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f, dpre,
               wc_.view(), 0.0f, dconcat);

  // Split into dcontext (first H) and dh_dec (second H).
  tensor::MatrixView dctx = ws_->alloc(batch_, hidden_);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = dconcat.row(b);
    float* dc = dctx.row(b);
    float* dst = dh_dec.row(b);
    for (std::size_t k = 0; k < hidden_; ++k) {
      dc[k] = src[k];
      dst[k] = src[hidden_ + k];
    }
  }

  // dalign(b,s) = <dcontext[b], enc[s][b]>; denc[s][b] += align(b,s) dcontext[b].
  tensor::MatrixView dalign = ws_->alloc(batch_, S);
  tensor::dot_rows_transposed(dctx, enc_t_, dalign);
  for (std::size_t s = 0; s < S; ++s) {
    for (std::size_t b = 0; b < batch_; ++b) {
      const float w = cache.align(b, s);
      const float* dc = dctx.row(b);
      float* de = d_encoder_[s].row(b);
      for (std::size_t k = 0; k < hidden_; ++k) de[k] += w * dc[k];
    }
  }

  // Softmax backward: dscore = align ⊙ (dalign - <align, dalign>).
  tensor::MatrixView dscore = ws_->alloc(batch_, S);
  for (std::size_t b = 0; b < batch_; ++b) {
    float inner = 0.0f;
    for (std::size_t s = 0; s < S; ++s) {
      inner += cache.align(b, s) * dalign(b, s);
    }
    for (std::size_t s = 0; s < S; ++s) {
      dscore(b, s) = cache.align(b, s) * (dalign(b, s) - inner);
    }
  }

  // Through the score: score(b,s) = <h_dec[b], transformed[s][b]>. dtr is
  // re-zeroed per source position, matching the fresh zero matrix the
  // pre-arena code allocated (zero rows are skipped via ds == 0).
  tensor::MatrixView dtr = ws_->alloc(batch_, hidden_);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView tr = transformed_[s];
    const tensor::ConstMatrixView e = enc_[s];
    tensor::MatrixView de = d_encoder_[s];
    dtr.zero();
    for (std::size_t b = 0; b < batch_; ++b) {
      const float ds = dscore(b, s);
      if (ds == 0.0f) continue;
      const float* hd = cache.h_dec.row(b);
      const float* tv = tr.row(b);
      float* dhd = dh_dec.row(b);
      float* dtv = dtr.row(b);
      for (std::size_t k = 0; k < hidden_; ++k) {
        dhd[k] += ds * tv[k];
        dtv[k] = ds * hd[k];
      }
    }
    if (score_ == AttentionScore::kGeneral) {
      // transformed[s] = enc[s] * Wa:
      //   dWa += enc[s]^T dtr; denc[s] += dtr Wa^T.
      tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f, e,
                   dtr, 1.0f, wa_.grad);
      tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f,
                   dtr, wa_.view(), 1.0f, de);
    } else {
      de += dtr;  // dot score: transformed == enc
    }
  }

  ws_->rewind(scratch);
  return dh_dec;
}

}  // namespace desmine::nn
