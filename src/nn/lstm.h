// Multi-layer LSTM with explicit backpropagation through time.
//
// The stack is driven step by step (the seq2seq decoder must interleave
// attention between steps), caching all activations; backward() then runs
// full BPTT given per-step gradients on the top-layer outputs. Gates are
// fused into one (dim x 4H) GEMM per layer per step in [i f g o] order and
// activated through the backend-dispatched tensor::lstm_gate_fusion kernel.
// Dropout (inverted) is applied to each layer's input during training, i.e.
// to the non-recurrent connections, following Luong et al.'s setup.
//
// A stack fed by token id (bind_input_table + step(ids)) computes layer 0's
// x·Wx once per sequence for every row of the input table and copies rows
// of that projection into each step's pre-activation, so a step runs one
// GEMM per layer instead of two — unless dropout masks the input.
//
// Activations and per-timestep caches live in a tensor::Workspace: pass one
// to begin() (shared with attention/seq2seq and rewound by the owner between
// sequences) or let the stack fall back to an internal arena. After warm-up
// the sequence loop performs no heap allocation. Views returned by step()/
// output()/backward() are valid until that workspace is next rewound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/matrix.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace desmine::nn {

/// Hidden/cell state of every layer; each matrix is (batch x hidden).
struct LstmState {
  std::vector<tensor::Matrix> h;
  std::vector<tensor::Matrix> c;

  bool empty() const { return h.empty(); }
};

class LstmStack {
 public:
  LstmStack(const std::string& name, std::size_t input_dim,
            std::size_t hidden_dim, std::size_t num_layers, util::Rng& rng,
            float dropout = 0.0f, float init_scale = 0.1f,
            WeightStorage storage = WeightStorage::kOwned);

  /// Reset caches and set the initial state (zero state if `init` is empty).
  /// `train` enables dropout; `dropout_rng` must outlive the sequence when
  /// training with dropout > 0. `workspace`, if given, backs all caches for
  /// this sequence (the caller rewinds it between sequences; begin() never
  /// rewinds a shared workspace). With no workspace an internal arena is
  /// used and reset here.
  void begin(std::size_t batch, const LstmState* init = nullptr,
             bool train = false, util::Rng* dropout_rng = nullptr,
             tensor::Workspace* workspace = nullptr);

  /// Advance one timestep with input (batch x input_dim); returns the
  /// top-layer hidden output (batch x hidden).
  tensor::ConstMatrixView step(tensor::ConstMatrixView x_t);

  /// Feed layer 0 by id from the rows of `table` (n x input_dim, e.g. an
  /// embedding) for the rest of this sequence; call after begin(), then
  /// step(ids). Unless training with dropout (which masks every step's
  /// input afresh), this computes table · Wx of layer 0 (n x 4H) once, as
  /// one GEMM on the workspace, and each step copies its rows' projections
  /// into the pre-activation instead of running that GEMM. The bits do not
  /// move: a row of a tall GEMM equals a one-row call, and the
  /// pre-activation is (0 + x·Wx) + h·Wh either way. `table` must outlive
  /// the sequence.
  void bind_input_table(tensor::ConstMatrixView table);

  /// step() on rows ids[b] of the bound input table.
  tensor::ConstMatrixView step(const std::vector<std::int32_t>& ids);

  /// Number of steps taken since begin().
  std::size_t steps() const { return caches_.size() / layers_.size(); }

  /// Undo the most recent step() for the flagged batch rows: their h/c (all
  /// layers) are restored to the previous step's values, so a frozen row's
  /// state is exactly what it was when it froze. This is how a ragged batch
  /// is encoded in lock-step — rows past their own source length keep
  /// stepping on padding, then have the step rolled back — keeping each
  /// row's final state bit-identical to encoding it alone. Inference only:
  /// the overwritten caches make a subsequent backward() meaningless.
  void retain_rows(const std::vector<std::uint8_t>& frozen);

  /// Current (last-step) state of all layers (owned copies).
  LstmState state() const;

  /// Top-layer hidden output at step t (valid after step()).
  tensor::ConstMatrixView output(std::size_t t) const;

  struct BackwardResult {
    /// Gradient w.r.t. the input of each step (workspace-backed).
    std::vector<tensor::MatrixView> dx;
    /// Gradient w.r.t. the initial state passed to begin().
    LstmState dstate0;
  };

  /// Run BPTT. `dh_top[t]` is dL/d output(t); pass an empty view/matrix for
  /// steps without a loss term. `dfinal`, if non-null, adds gradient on the
  /// final state (used when the encoder's last state seeds the decoder).
  /// Parameter gradients accumulate into the registry's Params.
  BackwardResult backward(const std::vector<tensor::ConstMatrixView>& dh_top,
                          const LstmState* dfinal = nullptr);
  BackwardResult backward(const std::vector<tensor::MatrixView>& dh_top,
                          const LstmState* dfinal = nullptr);
  BackwardResult backward(const std::vector<tensor::Matrix>& dh_top,
                          const LstmState* dfinal = nullptr);

  void register_params(ParamRegistry& reg);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }
  std::size_t num_layers() const { return layers_.size(); }
  float dropout() const { return dropout_; }

 private:
  struct Layer {
    Param wx;  ///< (layer_input_dim x 4H)
    Param wh;  ///< (H x 4H)
    Param b;   ///< (1 x 4H)
  };

  /// Everything one backward step needs, for one layer at one timestep.
  /// All views point into the sequence workspace.
  struct LayerCache {
    /// Layer input after dropout (batch x in); empty in a decode fed by id.
    tensor::MatrixView input;
    tensor::MatrixView mask;   ///< dropout mask (empty when not training)
    tensor::MatrixView i, f, g, o;  ///< post-activation gates (batch x H)
    tensor::MatrixView c;       ///< new cell state
    tensor::MatrixView tanh_c;  ///< tanh(c)
    tensor::MatrixView h;       ///< new hidden state
  };

  /// Cache of layer l at timestep t (row-major in t).
  LayerCache& cache_at(std::size_t t, std::size_t l) {
    return caches_[t * layers_.size() + l];
  }
  const LayerCache& cache_at(std::size_t t, std::size_t l) const {
    return caches_[t * layers_.size() + l];
  }

  /// One step of every layer. Layer 0's input is `x_t`, or with `ids`
  /// rows of the bound table (x·Wx read from their projections if any).
  tensor::ConstMatrixView advance(tensor::ConstMatrixView x_t,
                                  const std::vector<std::int32_t>* ids);

  /// One layer's gates and state; `ids` (layer 0 only) takes x·Wx from
  /// projected_ instead of multiplying `input`.
  void step_layer(std::size_t l, tensor::ConstMatrixView input,
                  const std::vector<std::int32_t>* ids,
                  tensor::ConstMatrixView h_prev,
                  tensor::ConstMatrixView c_prev, LayerCache& cache);

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  float dropout_;
  std::vector<Layer> layers_;

  // Per-sequence scratch (reset by begin()).
  std::size_t batch_ = 0;
  bool train_ = false;
  util::Rng* dropout_rng_ = nullptr;
  tensor::Workspace* ws_ = nullptr;
  tensor::Workspace own_ws_;
  LstmState state0_;
  std::vector<LayerCache> caches_;  ///< flat [t * L + l]
  tensor::ConstMatrixView table_;   ///< bound input table (n x input_dim)
  /// table_ · Wx of layer 0 (n x 4H) on the workspace; empty when dropout
  /// masks the input.
  tensor::MatrixView projected_;
};

}  // namespace desmine::nn
