// Frozen copy of LuongAttention's step()/backward_step() loops before the
// score and dalign dots moved to tensor::dot_rows_transposed and h~'s tanh
// to tensor::tanh_inplace: four (b, s) dot chains interleaved in sequential
// k order, the d_encoder update fused into the dalign loop, and a libm tanh
// loop. GEMMs and the softmax go through the same dispatched kernels as the
// live layer, so on every backend the live layer must match this copy bit
// for bit. Built with the same flags as src/nn/attention.cpp.
#include "frozen_attention.h"

#include <cmath>
#include <limits>
#include <utility>

namespace desmine::reference {

FrozenAttention::FrozenAttention(std::size_t hidden, nn::AttentionScore score,
                                 tensor::ConstMatrixView wa,
                                 tensor::ConstMatrixView wc)
    : hidden_(hidden),
      score_(score),
      wa_(wa),
      wc_(wc),
      dwa_(hidden, hidden),
      dwc_(2 * hidden, hidden) {}

void FrozenAttention::begin(
    const std::vector<tensor::ConstMatrixView>& encoder_outputs,
    std::size_t batch, const std::vector<std::size_t>* source_lengths) {
  enc_ = encoder_outputs;
  batch_ = batch;
  src_lengths_.clear();
  if (source_lengths != nullptr) src_lengths_ = *source_lengths;
  transformed_.clear();
  for (const tensor::ConstMatrixView e : enc_) {
    if (score_ == nn::AttentionScore::kGeneral) {
      tensor::Matrix t(batch, hidden_);
      tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f, e,
                   wa_, 0.0f, t);
      transformed_.push_back(t);
    } else {
      transformed_.emplace_back(e);
    }
  }
  d_encoder_.assign(enc_.size(), tensor::Matrix(batch, hidden_));
  steps_.clear();
  backward_cursor_ = 0;
}

tensor::ConstMatrixView FrozenAttention::step(tensor::ConstMatrixView h_dec) {
  const std::size_t S = enc_.size();
  StepCache cache;
  cache.h_dec = tensor::Matrix(h_dec);

  cache.align = tensor::Matrix(batch_, S);
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
    for (; s < S; ++s) al[s] = -std::numeric_limits<float>::infinity();
  }
  tensor::softmax_rows(cache.align);

  cache.concat = tensor::Matrix(batch_, 2 * hidden_);
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

  cache.attn = tensor::Matrix(batch_, hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kNo, 1.0f,
               cache.concat, wc_, 0.0f, cache.attn);
  float* attn = cache.attn.data();
  for (std::size_t idx = 0; idx < cache.attn.size(); ++idx) {
    attn[idx] = std::tanh(attn[idx]);
  }

  steps_.push_back(std::move(cache));
  backward_cursor_ = steps_.size();
  return steps_.back().attn;
}

tensor::Matrix FrozenAttention::backward_step(tensor::ConstMatrixView d_attn) {
  const StepCache& cache = steps_[--backward_cursor_];
  const std::size_t S = enc_.size();
  tensor::Matrix dh_dec(batch_, hidden_);

  tensor::Matrix dpre(d_attn);
  for (std::size_t idx = 0; idx < dpre.size(); ++idx) {
    const float a = cache.attn.data()[idx];
    dpre.data()[idx] *= (1.0f - a * a);
  }

  tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f,
               cache.concat, dpre, 1.0f, dwc_);
  tensor::Matrix dconcat(batch_, 2 * hidden_);
  tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f, dpre,
               wc_, 0.0f, dconcat);

  for (std::size_t b = 0; b < batch_; ++b) {
    const float* src = dconcat.row(b) + hidden_;
    float* dst = dh_dec.row(b);
    for (std::size_t k = 0; k < hidden_; ++k) dst[k] = src[k];
  }

  tensor::Matrix dalign(batch_, S);
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

  tensor::Matrix dscore(batch_, S);
  for (std::size_t b = 0; b < batch_; ++b) {
    float inner = 0.0f;
    for (std::size_t s = 0; s < S; ++s) {
      inner += cache.align(b, s) * dalign(b, s);
    }
    for (std::size_t s = 0; s < S; ++s) {
      dscore(b, s) = cache.align(b, s) * (dalign(b, s) - inner);
    }
  }

  tensor::Matrix dtr(batch_, hidden_);
  for (std::size_t s = 0; s < S; ++s) {
    const tensor::ConstMatrixView tr = transformed_[s];
    const tensor::ConstMatrixView e = enc_[s];
    tensor::Matrix& de = d_encoder_[s];
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
    if (score_ == nn::AttentionScore::kGeneral) {
      tensor::gemm(tensor::Transpose::kTrans, tensor::Transpose::kNo, 1.0f, e,
                   dtr, 1.0f, dwa_);
      tensor::gemm(tensor::Transpose::kNo, tensor::Transpose::kTrans, 1.0f,
                   dtr, wa_, 1.0f, de);
    } else {
      de += dtr;
    }
  }
  return dh_dec;
}

}  // namespace desmine::reference
