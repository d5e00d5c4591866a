#include "nn/lstm.h"

#include <algorithm>
#include <utility>

#include "tensor/kernels.h"
#include "util/error.h"

namespace desmine::nn {

using tensor::Transpose;

LstmStack::LstmStack(const std::string& name, std::size_t input_dim,
                     std::size_t hidden_dim, std::size_t num_layers,
                     util::Rng& rng, float dropout, float init_scale,
                     WeightStorage storage)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), dropout_(dropout) {
  DESMINE_EXPECTS(input_dim > 0 && hidden_dim > 0 && num_layers > 0,
                  "lstm dims must be > 0");
  DESMINE_EXPECTS(dropout >= 0.0f && dropout < 1.0f, "dropout in [0,1)");
  layers_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    const std::size_t in = (l == 0) ? input_dim : hidden_dim;
    Layer layer{
        Param(name + ".l" + std::to_string(l) + ".Wx", in, 4 * hidden_dim,
              storage),
        Param(name + ".l" + std::to_string(l) + ".Wh", hidden_dim,
              4 * hidden_dim, storage),
        Param(name + ".l" + std::to_string(l) + ".b", 1, 4 * hidden_dim,
              storage)};
    if (storage == WeightStorage::kOwned) {
      layer.wx.value.init_uniform(rng, init_scale);
      layer.wh.value.init_uniform(rng, init_scale);
      // Forget-gate bias starts at 1 so early training does not flush memory.
      for (std::size_t cidx = hidden_dim; cidx < 2 * hidden_dim; ++cidx) {
        layer.b.value(0, cidx) = 1.0f;
      }
    }
    layers_.push_back(std::move(layer));
  }
}

void LstmStack::begin(std::size_t batch, const LstmState* init, bool train,
                      util::Rng* dropout_rng, tensor::Workspace* workspace) {
  DESMINE_EXPECTS(batch > 0, "lstm batch must be > 0");
  batch_ = batch;
  train_ = train;
  dropout_rng_ = dropout_rng;
  if (train_ && dropout_ > 0.0f) {
    DESMINE_EXPECTS(dropout_rng_ != nullptr,
                    "training with dropout needs an rng");
  }
  // A shared workspace is rewound by its owner (it may already hold live
  // sequences, e.g. the encoder's caches while the decoder begins); only the
  // private fallback arena is safe to reset here.
  ws_ = workspace != nullptr ? workspace : &own_ws_;
  if (workspace == nullptr) own_ws_.reset();
  caches_.clear();
  table_ = tensor::ConstMatrixView();
  projected_ = tensor::MatrixView();
  if (state0_.h.size() != layers_.size() || state0_.h.empty() ||
      state0_.h[0].rows() != batch) {
    state0_.h.assign(layers_.size(), tensor::Matrix(batch, hidden_dim_));
    state0_.c.assign(layers_.size(), tensor::Matrix(batch, hidden_dim_));
  } else {
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      state0_.h[l].zero();
      state0_.c[l].zero();
    }
  }
  if (init != nullptr && !init->empty()) {
    DESMINE_EXPECTS(init->h.size() == layers_.size(), "init state layer count");
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      DESMINE_EXPECTS(init->h[l].rows() == batch &&
                          init->h[l].cols() == hidden_dim_,
                      "init state shape");
      state0_.h[l] = init->h[l];
      state0_.c[l] = init->c[l];
    }
  }
}

void LstmStack::bind_input_table(tensor::ConstMatrixView table) {
  DESMINE_EXPECTS(ws_ != nullptr, "bind_input_table() needs begin()");
  DESMINE_EXPECTS(table.rows() > 0 && table.cols() == input_dim_,
                  "input table must be n x input_dim");
  table_ = table;
  projected_ = tensor::MatrixView();
  if (train_ && dropout_ > 0.0f) return;
  projected_ = ws_->alloc_for_overwrite(table.rows(), 4 * hidden_dim_);
  tensor::gemm(Transpose::kNo, Transpose::kNo, 1.0f, table,
               layers_[0].wx.view(), 0.0f, projected_);
}

void LstmStack::step_layer(std::size_t l, tensor::ConstMatrixView input,
                           const std::vector<std::int32_t>* ids,
                           tensor::ConstMatrixView h_prev,
                           tensor::ConstMatrixView c_prev, LayerCache& cache) {
  const std::size_t H = hidden_dim_;
  // lstm_gate_fusion writes every element of the seven caches.
  cache.i = ws_->alloc_for_overwrite(batch_, H);
  cache.f = ws_->alloc_for_overwrite(batch_, H);
  cache.g = ws_->alloc_for_overwrite(batch_, H);
  cache.o = ws_->alloc_for_overwrite(batch_, H);
  cache.c = ws_->alloc_for_overwrite(batch_, H);
  cache.tanh_c = ws_->alloc_for_overwrite(batch_, H);
  cache.h = ws_->alloc_for_overwrite(batch_, H);

  // The fused pre-activation is transient: reclaim it once the gates are out.
  // Fed by id it starts as a copy of projected rows; otherwise the x·Wx GEMM
  // accumulates into it from zero.
  const tensor::Workspace::Checkpoint scratch = ws_->checkpoint();
  tensor::MatrixView z = ids != nullptr
                             ? ws_->alloc_for_overwrite(batch_, 4 * H)
                             : ws_->alloc(batch_, 4 * H);
  if (ids != nullptr) {
    for (std::size_t b = 0; b < batch_; ++b) {
      const float* p = projected_.row(static_cast<std::size_t>((*ids)[b]));
      std::copy(p, p + 4 * H, z.row(b));
    }
  } else {
    tensor::gemm(Transpose::kNo, Transpose::kNo, 1.0f, input,
                 layers_[l].wx.view(), 1.0f, z);
  }
  tensor::gemm(Transpose::kNo, Transpose::kNo, 1.0f, h_prev,
               layers_[l].wh.view(), 1.0f, z);
  tensor::add_row_bias(z, layers_[l].b.view());

  tensor::lstm_gate_fusion(z, c_prev,
                           {cache.i, cache.f, cache.g, cache.o, cache.c,
                            cache.tanh_c, cache.h});
  ws_->rewind(scratch);
}

tensor::ConstMatrixView LstmStack::step(tensor::ConstMatrixView x_t) {
  DESMINE_EXPECTS(x_t.rows() == batch_ && x_t.cols() == input_dim_,
                  "lstm step input shape");
  return advance(x_t, nullptr);
}

tensor::ConstMatrixView LstmStack::step(const std::vector<std::int32_t>& ids) {
  DESMINE_EXPECTS(!table_.empty(), "step(ids) needs bind_input_table()");
  DESMINE_EXPECTS(ids.size() == batch_, "one input id per batch row");
  for (const std::int32_t id : ids) {
    DESMINE_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < table_.rows(),
                    "input table id range");
  }
  return advance(tensor::ConstMatrixView(), &ids);
}

tensor::ConstMatrixView LstmStack::advance(
    tensor::ConstMatrixView x_t, const std::vector<std::int32_t>* ids) {
  const std::size_t L = layers_.size();
  const std::size_t t = caches_.size() / L;
  caches_.resize(caches_.size() + L);

  tensor::ConstMatrixView layer_in = x_t;
  for (std::size_t l = 0; l < L; ++l) {
    LayerCache& lc = cache_at(t, l);
    const std::vector<std::int32_t>* layer_ids = l == 0 ? ids : nullptr;
    // Backward's dWx reads lc.input. An upper layer's unmasked input is the
    // layer below's h, already on the workspace. Otherwise the input is
    // copied into the workspace (it may be a transient caller buffer),
    // where training applies inverted dropout; a decode fed by id reads
    // only the projections and keeps no input. (With dropout there are no
    // projections: the gathered, masked rows take the GEMM path.)
    const bool masked = train_ && dropout_ > 0.0f;
    if (l > 0 && !masked) {
      lc.input = cache_at(t, l - 1).h;
    } else if (layer_ids == nullptr || train_) {
      lc.input =
          ws_->alloc_for_overwrite(batch_, l == 0 ? input_dim_ : hidden_dim_);
      if (layer_ids != nullptr) {
        for (std::size_t b = 0; b < batch_; ++b) {
          const float* src = table_.row(static_cast<std::size_t>((*ids)[b]));
          std::copy(src, src + input_dim_, lc.input.row(b));
        }
      } else {
        lc.input.copy_from(layer_in);
      }
      if (masked) {
        lc.mask = ws_->alloc_for_overwrite(lc.input.rows(), lc.input.cols());
        const float keep = 1.0f - dropout_;
        for (std::size_t idx = 0; idx < lc.mask.size(); ++idx) {
          lc.mask.data()[idx] =
              dropout_rng_->bernoulli(keep) ? 1.0f / keep : 0.0f;
        }
        lc.input.hadamard(lc.mask);
      }
      layer_in = lc.input;
    }
    const tensor::ConstMatrixView h_prev =
        (t == 0) ? tensor::ConstMatrixView(state0_.h[l]) : cache_at(t - 1, l).h;
    const tensor::ConstMatrixView c_prev =
        (t == 0) ? tensor::ConstMatrixView(state0_.c[l]) : cache_at(t - 1, l).c;
    step_layer(l, layer_in, projected_.empty() ? nullptr : layer_ids, h_prev,
               c_prev, lc);
    layer_in = lc.h;
  }
  return cache_at(t, L - 1).h;
}

void LstmStack::retain_rows(const std::vector<std::uint8_t>& frozen) {
  DESMINE_EXPECTS(!caches_.empty(), "retain_rows needs a prior step()");
  DESMINE_EXPECTS(frozen.size() == batch_, "one freeze flag per batch row");
  const std::size_t t = steps() - 1;
  const std::size_t H = hidden_dim_;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const tensor::ConstMatrixView h_prev =
        (t == 0) ? tensor::ConstMatrixView(state0_.h[l]) : cache_at(t - 1, l).h;
    const tensor::ConstMatrixView c_prev =
        (t == 0) ? tensor::ConstMatrixView(state0_.c[l]) : cache_at(t - 1, l).c;
    LayerCache& cur = cache_at(t, l);
    for (std::size_t b = 0; b < batch_; ++b) {
      if (!frozen[b]) continue;
      float* hr = cur.h.row(b);
      float* cr = cur.c.row(b);
      const float* hp = h_prev.row(b);
      const float* cp = c_prev.row(b);
      for (std::size_t k = 0; k < H; ++k) {
        hr[k] = hp[k];
        cr[k] = cp[k];
      }
    }
  }
}

LstmState LstmStack::state() const {
  DESMINE_EXPECTS(!caches_.empty() || !state0_.empty(), "no state yet");
  LstmState s;
  if (caches_.empty()) return state0_;
  const std::size_t t = steps() - 1;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    s.h.emplace_back(cache_at(t, l).h);
    s.c.emplace_back(cache_at(t, l).c);
  }
  return s;
}

tensor::ConstMatrixView LstmStack::output(std::size_t t) const {
  DESMINE_EXPECTS(t < steps(), "output step out of range");
  return cache_at(t, layers_.size() - 1).h;
}

LstmStack::BackwardResult LstmStack::backward(
    const std::vector<tensor::ConstMatrixView>& dh_top,
    const LstmState* dfinal) {
  const std::size_t T = steps();
  const std::size_t L = layers_.size();
  const std::size_t H = hidden_dim_;
  DESMINE_EXPECTS(dh_top.size() == T, "dh_top must cover every step");
  for (std::size_t t = 0; t < T; ++t) {
    DESMINE_EXPECTS(!cache_at(t, 0).input.empty(),
                    "backward() after step(ids) needs a training begin()");
  }

  BackwardResult result;
  result.dx.assign(T, tensor::MatrixView());
  for (std::size_t t = 0; t < T; ++t) {
    result.dx[t] = ws_->alloc(batch_, input_dim_);
  }

  // Running gradients flowing backward through time, per layer. dh ping-pongs
  // between two slots (the new dh_prev must start from zero, exactly like the
  // fresh matrix the pre-arena code allocated); dc is updated in place.
  std::vector<tensor::MatrixView> dh_cur(L), dh_alt(L), dc_next(L);
  for (std::size_t l = 0; l < L; ++l) {
    dh_cur[l] = ws_->alloc(batch_, H);
    dh_alt[l] = ws_->alloc(batch_, H);
    dc_next[l] = ws_->alloc(batch_, H);
  }
  if (dfinal != nullptr && !dfinal->empty()) {
    DESMINE_EXPECTS(dfinal->h.size() == L, "dfinal layer count");
    for (std::size_t l = 0; l < L; ++l) {
      dh_cur[l] += dfinal->h[l];
      dc_next[l] += dfinal->c[l];
    }
  }

  tensor::MatrixView dz = ws_->alloc(batch_, 4 * H);
  // Gradient flowing into lower layers from the layer above at one step;
  // written at layer l, consumed at l-1, so two alternating slots suffice.
  tensor::MatrixView din_a = ws_->alloc(batch_, H);
  tensor::MatrixView din_b = ws_->alloc(batch_, H);

  for (std::size_t ti = T; ti-- > 0;) {
    tensor::MatrixView d_from_above;
    bool use_a = true;
    for (std::size_t l = L; l-- > 0;) {
      const LayerCache& lc = cache_at(ti, l);
      tensor::MatrixView dh = dh_cur[l];
      if (l == L - 1 && dh_top[ti].rows() > 0) dh += dh_top[ti];
      if (l < L - 1 && d_from_above.rows() > 0) dh += d_from_above;
      tensor::MatrixView dc = dc_next[l];

      const tensor::ConstMatrixView c_prev =
          (ti == 0) ? tensor::ConstMatrixView(state0_.c[l])
                    : cache_at(ti - 1, l).c;

      // Gate gradients -> fused dz in [i f g o] layout.
      for (std::size_t r = 0; r < batch_; ++r) {
        const float* dhr = dh.row(r);
        float* dcr = dc.row(r);
        const float* ir = lc.i.row(r);
        const float* fr = lc.f.row(r);
        const float* gr = lc.g.row(r);
        const float* orow = lc.o.row(r);
        const float* tcr = lc.tanh_c.row(r);
        const float* cpr = c_prev.row(r);
        float* dzr = dz.row(r);
        for (std::size_t k = 0; k < H; ++k) {
          const float do_ = dhr[k] * tcr[k];
          dcr[k] += dhr[k] * orow[k] * (1.0f - tcr[k] * tcr[k]);
          const float di = dcr[k] * gr[k];
          const float df = dcr[k] * cpr[k];
          const float dg = dcr[k] * ir[k];
          dzr[k] = di * ir[k] * (1.0f - ir[k]);
          dzr[H + k] = df * fr[k] * (1.0f - fr[k]);
          dzr[2 * H + k] = dg * (1.0f - gr[k] * gr[k]);
          dzr[3 * H + k] = do_ * orow[k] * (1.0f - orow[k]);
          // Cell gradient for the previous timestep.
          dcr[k] *= fr[k];
        }
      }

      // Parameter gradients.
      tensor::gemm(Transpose::kTrans, Transpose::kNo, 1.0f, lc.input, dz, 1.0f,
                   layers_[l].wx.grad);
      const tensor::ConstMatrixView h_prev =
          (ti == 0) ? tensor::ConstMatrixView(state0_.h[l])
                    : cache_at(ti - 1, l).h;
      tensor::gemm(Transpose::kTrans, Transpose::kNo, 1.0f, h_prev, dz, 1.0f,
                   layers_[l].wh.grad);
      {
        float* bg = layers_[l].b.grad.row(0);
        for (std::size_t r = 0; r < batch_; ++r) {
          const float* dzr = dz.row(r);
          for (std::size_t k = 0; k < 4 * H; ++k) bg[k] += dzr[k];
        }
      }

      // Gradient to previous hidden state.
      tensor::MatrixView dh_prev = dh_alt[l];
      tensor::gemm(Transpose::kNo, Transpose::kTrans, 1.0f, dz,
                   layers_[l].wh.view(), 0.0f, dh_prev);
      std::swap(dh_cur[l], dh_alt[l]);

      // Gradient to the layer input (dropout mask re-applied).
      tensor::MatrixView din;
      if (l == 0) {
        din = result.dx[ti];
      } else {
        din = use_a ? din_a : din_b;
        use_a = !use_a;
      }
      // dx[ti] comes from the arena pre-zeroed; the beta == 0 overwrite
      // makes the ping-pong slots equivalent.
      tensor::gemm(Transpose::kNo, Transpose::kTrans, 1.0f, dz,
                   layers_[l].wx.view(), 0.0f, din);
      if (lc.mask.rows() > 0) din.hadamard(lc.mask);
      if (l > 0) d_from_above = din;
    }
  }

  for (std::size_t l = 0; l < L; ++l) {
    result.dstate0.h.emplace_back(dh_cur[l]);
    result.dstate0.c.emplace_back(dc_next[l]);
  }
  return result;
}

LstmStack::BackwardResult LstmStack::backward(
    const std::vector<tensor::MatrixView>& dh_top, const LstmState* dfinal) {
  std::vector<tensor::ConstMatrixView> views(dh_top.begin(), dh_top.end());
  return backward(views, dfinal);
}

LstmStack::BackwardResult LstmStack::backward(
    const std::vector<tensor::Matrix>& dh_top, const LstmState* dfinal) {
  std::vector<tensor::ConstMatrixView> views;
  views.reserve(dh_top.size());
  for (const tensor::Matrix& m : dh_top) views.emplace_back(m);
  return backward(views, dfinal);
}

void LstmStack::register_params(ParamRegistry& reg) {
  for (auto& layer : layers_) {
    reg.add(&layer.wx);
    reg.add(&layer.wh);
    reg.add(&layer.b);
  }
}

}  // namespace desmine::nn
