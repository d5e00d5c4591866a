#include "nn/attention.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace desmine::nn {

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
  transformed_.clear();
  transformed_.reserve(enc_.size());
  for (const tensor::ConstMatrixView e : enc_) {
    DESMINE_EXPECTS(e.rows() == batch && e.cols() == hidden_,
                    "encoder output shape");
    if (score_ == AttentionScore::kGeneral) {
      tensor::MatrixView t = ws_->alloc(batch, hidden_);
      tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, e,
                   wa_.view(), 0.0f, t);
      transformed_.push_back(t);
    } else {
      transformed_.push_back(e);  // dot score: transformed == encoder output
    }
  }
  d_encoder_.clear();
  d_encoder_.reserve(enc_.size());
  for (std::size_t s = 0; s < enc_.size(); ++s) {
    d_encoder_.push_back(ws_->alloc(batch, hidden_));
  }
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
  cache.h_dec = ws_->alloc(batch_, hidden_);
  cache.h_dec.copy_from(h_dec);

  // Scores: score(b, s) = <h_dec[b], (enc[s] Wa)[b]>. Four source
  // positions' dot chains run interleaved; each keeps its sequential k order.
  cache.align = ws_->alloc(batch_, S);
  const bool masked = !src_lengths_.empty();
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* hd = h_dec.row(b);
    float* al = cache.align.row(b);
    const std::size_t len = masked ? src_lengths_[b] : S;
    std::size_t s = 0;
    for (; s + 4 <= len; s += 4) {
      const float* t0 = transformed_[s].row(b);
      const float* t1 = transformed_[s + 1].row(b);
      const float* t2 = transformed_[s + 2].row(b);
      const float* t3 = transformed_[s + 3].row(b);
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t k = 0; k < hidden_; ++k) {
        d0 += hd[k] * t0[k];
        d1 += hd[k] * t1[k];
        d2 += hd[k] * t2[k];
        d3 += hd[k] * t3[k];
      }
      al[s] = d0;
      al[s + 1] = d1;
      al[s + 2] = d2;
      al[s + 3] = d3;
    }
    for (; s < len; ++s) {
      const float* tv = transformed_[s].row(b);
      float dot = 0.0f;
      for (std::size_t k = 0; k < hidden_; ++k) dot += hd[k] * tv[k];
      al[s] = dot;
    }
    // Padded positions: -inf survives the row max untouched and its exp()
    // contributes an exact 0.0f to the softmax sum, so the valid prefix's
    // weights match the compact (unpadded) decode bit for bit.
    for (; s < S; ++s) al[s] = -std::numeric_limits<float>::infinity();
  }
  tensor::softmax_rows(cache.align);

  // Context vector and [context; h_dec] concat (relies on the zeroed alloc
  // for the skipped zero-weight accumulations).
  cache.concat = ws_->alloc(batch_, 2 * hidden_);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView e = enc_[s];
    for (std::size_t b = 0; b < batch_; ++b) {
      const float w = cache.align(b, s);
      if (w == 0.0f) continue;
      float* ctx = cache.concat.row(b);
      const float* ev = e.row(b);
      for (std::size_t k = 0; k < hidden_; ++k) ctx[k] += w * ev[k];
    }
  }
  for (std::size_t b = 0; b < batch_; ++b) {
    float* dst = cache.concat.row(b) + hidden_;
    const float* hd = h_dec.row(b);
    for (std::size_t k = 0; k < hidden_; ++k) dst[k] = hd[k];
  }

  cache.attn = ws_->alloc(batch_, hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
               cache.concat, wc_.view(), 0.0f, cache.attn);
  float* attn = cache.attn.data();
  for (std::size_t idx = 0; idx < cache.attn.size(); ++idx) {
    attn[idx] = std::tanh(attn[idx]);
  }

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
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = dconcat.row(b) + hidden_;
    float* dst = dh_dec.row(b);
    for (std::size_t k = 0; k < hidden_; ++k) dst[k] = src[k];
  }

  // dalign(b,s) = <dcontext[b], enc[s][b]>; denc[s][b] += align(b,s) dcontext[b].
  // Four source positions' dot chains run interleaved; each keeps its
  // sequential k order.
  tensor::MatrixView dalign = ws_->alloc(batch_, S);
  for (std::size_t b = 0; b < batch_; ++b) {
    const float* dctx = dconcat.row(b);
    const float* al = cache.align.row(b);
    float* da = dalign.row(b);
    std::size_t s = 0;
    for (; s + 4 <= S; s += 4) {
      const float* e0 = enc_[s].row(b);
      const float* e1 = enc_[s + 1].row(b);
      const float* e2 = enc_[s + 2].row(b);
      const float* e3 = enc_[s + 3].row(b);
      float* de0 = d_encoder_[s].row(b);
      float* de1 = d_encoder_[s + 1].row(b);
      float* de2 = d_encoder_[s + 2].row(b);
      float* de3 = d_encoder_[s + 3].row(b);
      const float w0 = al[s], w1 = al[s + 1], w2 = al[s + 2], w3 = al[s + 3];
      float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
      for (std::size_t k = 0; k < hidden_; ++k) {
        const float g = dctx[k];
        d0 += g * e0[k];
        d1 += g * e1[k];
        d2 += g * e2[k];
        d3 += g * e3[k];
        de0[k] += w0 * g;
        de1[k] += w1 * g;
        de2[k] += w2 * g;
        de3[k] += w3 * g;
      }
      da[s] = d0;
      da[s + 1] = d1;
      da[s + 2] = d2;
      da[s + 3] = d3;
    }
    for (; s < S; ++s) {
      const float* ev = enc_[s].row(b);
      float* dev = d_encoder_[s].row(b);
      const float w = al[s];
      float dot = 0.0f;
      for (std::size_t k = 0; k < hidden_; ++k) {
        dot += dctx[k] * ev[k];
        dev[k] += w * dctx[k];
      }
      da[s] = dot;
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
