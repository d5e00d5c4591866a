// Unit tests for the nn layers: shapes, determinism, loss values, optimizer
// behaviour, and LSTM state handling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "frozen_attention.h"
#include "nn/adam.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/param.h"
#include "tensor/kernels.h"
#include "tensor/workspace.h"
#include "util/error.h"
#include "util/rng.h"

namespace dn = desmine::nn;
namespace dt = desmine::tensor;
using desmine::util::Rng;

// ----------------------------------------------------------- registry ------

TEST(ParamRegistry, CountsAndZeroGrad) {
  dn::Param a("a", 2, 3), b("b", 1, 4);
  a.grad.fill(1.0f);
  b.grad.fill(2.0f);
  dn::ParamRegistry reg;
  reg.add(&a);
  reg.add(&b);
  EXPECT_EQ(reg.scalar_count(), 10u);
  EXPECT_GT(reg.grad_norm(), 0.0);
  reg.zero_grad();
  EXPECT_DOUBLE_EQ(reg.grad_norm(), 0.0);
}

TEST(ParamRegistry, ClipGradNorm) {
  dn::Param a("a", 1, 4);
  a.grad.fill(3.0f);  // norm = 6
  dn::ParamRegistry reg;
  reg.add(&a);
  reg.clip_grad_norm(3.0);
  EXPECT_NEAR(reg.grad_norm(), 3.0, 1e-5);
  // Clipping below the max is a no-op.
  reg.clip_grad_norm(100.0);
  EXPECT_NEAR(reg.grad_norm(), 3.0, 1e-5);
}

// ----------------------------------------------------------- embedding -----

TEST(Embedding, LookupMatchesTable) {
  Rng rng(1);
  dn::Embedding emb(10, 4, rng);
  const auto out = emb.forward({3, 7, 3});
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out(0, c), emb.table().value(3, c));
    EXPECT_FLOAT_EQ(out(2, c), emb.table().value(3, c));
    EXPECT_FLOAT_EQ(out(1, c), emb.table().value(7, c));
  }
}

TEST(Embedding, BackwardAccumulatesPerId) {
  Rng rng(1);
  dn::Embedding emb(5, 2, rng);
  dt::Matrix grad = dt::Matrix::from_rows({{1, 2}, {10, 20}, {100, 200}});
  emb.backward({0, 0, 4}, grad);
  EXPECT_FLOAT_EQ(emb.table().grad(0, 0), 11.0f);  // two rows hit id 0
  EXPECT_FLOAT_EQ(emb.table().grad(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(4, 1), 200.0f);
  EXPECT_FLOAT_EQ(emb.table().grad(2, 0), 0.0f);
}

TEST(Embedding, RejectsOutOfRangeIds) {
  Rng rng(1);
  dn::Embedding emb(5, 2, rng);
  EXPECT_THROW(emb.forward({5}), desmine::PreconditionError);
  EXPECT_THROW(emb.forward({-1}), desmine::PreconditionError);
}

// ----------------------------------------------------------- linear --------

TEST(Linear, ForwardComputesXWPlusB) {
  Rng rng(2);
  dn::Linear lin("lin", 2, 3, rng);
  lin.weight().value = dt::Matrix::from_rows({{1, 0, 2}, {0, 1, 3}});
  lin.bias().value = dt::Matrix::from_rows({{10, 20, 30}});
  const auto y = lin.forward(dt::Matrix::from_rows({{1, 2}}));
  EXPECT_FLOAT_EQ(y(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 38.0f);
}

TEST(Linear, NoBiasOption) {
  Rng rng(2);
  dn::Linear lin("lin", 2, 2, rng, /*with_bias=*/false);
  dn::ParamRegistry reg;
  lin.register_params(reg);
  EXPECT_EQ(reg.params().size(), 1u);
}

TEST(Linear, BackwardShapes) {
  Rng rng(2);
  dn::Linear lin("lin", 3, 4, rng);
  const auto x = dt::Matrix(2, 3, 1.0f);
  const auto dy = dt::Matrix(2, 4, 1.0f);
  const auto dx = lin.backward(x, dy);
  EXPECT_EQ(dx.rows(), 2u);
  EXPECT_EQ(dx.cols(), 3u);
  EXPECT_GT(lin.weight().grad.squared_norm(), 0.0);
  EXPECT_GT(lin.bias().grad.squared_norm(), 0.0);
}

// ----------------------------------------------------------- loss ----------

TEST(Loss, UniformLogitsGiveLogV) {
  dt::Matrix logits(1, 4, 0.0f);
  dt::Matrix dlogits;
  const auto res = dn::softmax_xent(logits, {2}, dlogits, 1.0f);
  EXPECT_NEAR(res.loss_sum, std::log(4.0), 1e-6);
  EXPECT_EQ(res.token_count, 1u);
  // Gradient: p - onehot.
  EXPECT_NEAR(dlogits(0, 2), 0.25 - 1.0, 1e-6);
  EXPECT_NEAR(dlogits(0, 0), 0.25, 1e-6);
}

TEST(Loss, PaddedTargetsSkipped) {
  dt::Matrix logits(3, 4, 0.0f);
  dt::Matrix dlogits;
  const auto res = dn::softmax_xent(logits, {1, -1, 2}, dlogits, 1.0f);
  EXPECT_EQ(res.token_count, 2u);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_FLOAT_EQ(dlogits(1, c), 0.0f);
}

TEST(Loss, GradScaleApplied) {
  dt::Matrix logits(1, 2, 0.0f);
  dt::Matrix dlogits;
  dn::softmax_xent(logits, {0}, dlogits, 0.5f);
  EXPECT_NEAR(dlogits(0, 0), 0.5 * (0.5 - 1.0), 1e-6);
}

// ----------------------------------------------------------- adam ----------

TEST(Adam, DescendsQuadratic) {
  // Minimize f(x) = x^2 via Adam; gradient = 2x.
  dn::Param p("x", 1, 1);
  p.value(0, 0) = 5.0f;
  dn::ParamRegistry reg;
  reg.add(&p);
  dn::AdamConfig cfg;
  cfg.lr = 0.1f;
  dn::Adam adam(reg, cfg);
  for (int i = 0; i < 500; ++i) {
    p.grad(0, 0) = 2.0f * p.value(0, 0);
    adam.step();
  }
  EXPECT_NEAR(p.value(0, 0), 0.0f, 1e-2f);
  EXPECT_EQ(adam.steps_taken(), 500u);
}

TEST(Adam, FirstStepMagnitudeIsLr) {
  // With bias correction, |first step| ~= lr regardless of gradient scale.
  dn::Param p("x", 1, 1);
  dn::ParamRegistry reg;
  reg.add(&p);
  dn::AdamConfig cfg;
  cfg.lr = 0.05f;
  dn::Adam adam(reg, cfg);
  p.grad(0, 0) = 123.0f;
  adam.step();
  EXPECT_NEAR(std::abs(p.value(0, 0)), 0.05f, 1e-3f);
}

// ----------------------------------------------------------- lstm ----------

TEST(Lstm, OutputShapesAndSteps) {
  Rng rng(3);
  dn::LstmStack lstm("l", 4, 8, 2, rng, 0.0f);
  lstm.begin(3);
  for (int t = 0; t < 5; ++t) {
    const auto& h = lstm.step(dt::Matrix(3, 4, 0.1f));
    EXPECT_EQ(h.rows(), 3u);
    EXPECT_EQ(h.cols(), 8u);
  }
  EXPECT_EQ(lstm.steps(), 5u);
  const auto state = lstm.state();
  EXPECT_EQ(state.h.size(), 2u);
  EXPECT_EQ(state.c.size(), 2u);
}

TEST(Lstm, DeterministicForSameSeed) {
  Rng rng1(7), rng2(7);
  dn::LstmStack a("l", 2, 4, 1, rng1, 0.0f);
  dn::LstmStack b("l", 2, 4, 1, rng2, 0.0f);
  a.begin(1);
  b.begin(1);
  const auto& ha = a.step(dt::Matrix(1, 2, 0.5f));
  const auto& hb = b.step(dt::Matrix(1, 2, 0.5f));
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_FLOAT_EQ(ha.data()[i], hb.data()[i]);
  }
}

TEST(Lstm, InitialStateCarriesOver) {
  Rng rng(9);
  dn::LstmStack lstm("l", 2, 4, 1, rng, 0.0f);
  lstm.begin(1);
  lstm.step(dt::Matrix(1, 2, 1.0f));
  const auto mid = lstm.state();

  // Restarting from `mid` must reproduce continuing the sequence.
  Rng rng2(9);
  dn::LstmStack twin("l", 2, 4, 1, rng2, 0.0f);
  twin.begin(1);
  twin.step(dt::Matrix(1, 2, 1.0f));
  const auto& h_cont = twin.step(dt::Matrix(1, 2, -1.0f));

  lstm.begin(1, &mid);
  const auto& h_resume = lstm.step(dt::Matrix(1, 2, -1.0f));
  for (std::size_t i = 0; i < h_cont.size(); ++i) {
    EXPECT_NEAR(h_resume.data()[i], h_cont.data()[i], 1e-6f);
  }
}

TEST(Lstm, HiddenStaysBounded) {
  Rng rng(4);
  dn::LstmStack lstm("l", 3, 6, 2, rng, 0.0f);
  lstm.begin(2);
  for (int t = 0; t < 50; ++t) {
    const auto& h = lstm.step(dt::Matrix(2, 3, 5.0f));
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_LE(std::abs(h.data()[i]), 1.0f);  // |o * tanh(c)| <= 1
    }
  }
}

TEST(Lstm, BackwardRequiresMatchingSteps) {
  Rng rng(4);
  dn::LstmStack lstm("l", 2, 3, 1, rng, 0.0f);
  lstm.begin(1);
  lstm.step(dt::Matrix(1, 2, 0.0f));
  std::vector<dt::Matrix> dh(2);  // wrong: 2 grads for 1 step
  EXPECT_THROW(lstm.backward(dh), desmine::PreconditionError);
}

TEST(Lstm, DropoutRequiresRng) {
  Rng rng(4);
  dn::LstmStack lstm("l", 2, 3, 1, rng, 0.5f);
  EXPECT_THROW(lstm.begin(1, nullptr, /*train=*/true, nullptr),
               desmine::PreconditionError);
}

TEST(Lstm, DropoutOffAtInference) {
  Rng rng(4);
  dn::LstmStack lstm("l", 2, 3, 1, rng, 0.5f);
  // No rng needed when train=false even with dropout configured.
  lstm.begin(1, nullptr, /*train=*/false);
  EXPECT_NO_THROW(lstm.step(dt::Matrix(1, 2, 1.0f)));
}

// ----------------------------------------------------------- attention -----

TEST(Attention, OutputShapeAndAlignmentSimplex) {
  Rng rng(5);
  dn::LuongAttention attn("a", 4, rng);
  std::vector<dt::Matrix> enc;
  for (int s = 0; s < 3; ++s) {
    dt::Matrix e(2, 4);
    e.init_uniform(rng, 1.0f);
    enc.push_back(e);
  }
  attn.begin(&enc, 2);
  const auto out = attn.step(dt::Matrix(2, 4, 0.3f));
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 4u);
  const auto& align = attn.alignment(0);
  for (std::size_t b = 0; b < 2; ++b) {
    float sum = 0.0f;
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_GE(align(b, s), 0.0f);
      sum += align(b, s);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Attention, BackwardStepOrderEnforced) {
  Rng rng(5);
  dn::LuongAttention attn("a", 2, rng);
  std::vector<dt::Matrix> enc = {dt::Matrix(1, 2, 0.1f)};
  attn.begin(&enc, 1);
  attn.step(dt::Matrix(1, 2, 0.2f));
  EXPECT_NO_THROW(attn.backward_step(dt::Matrix(1, 2, 1.0f)));
  EXPECT_THROW(attn.backward_step(dt::Matrix(1, 2, 1.0f)),
               desmine::PreconditionError);
}

TEST(Attention, AttendsToMatchingPosition) {
  // With Wa = I and one encoder position equal to h_dec, that position
  // should get the largest alignment weight.
  Rng rng(6);
  dn::LuongAttention attn("a", 3, rng);
  // Identity Wa.
  dn::ParamRegistry reg;
  attn.register_params(reg);
  dt::Matrix& wa = reg.params()[0]->value;
  wa.zero();
  for (std::size_t i = 0; i < 3; ++i) wa(i, i) = 1.0f;

  std::vector<dt::Matrix> enc = {
      dt::Matrix::from_rows({{-1.0f, -1.0f, -1.0f}}),
      dt::Matrix::from_rows({{2.0f, 2.0f, 2.0f}}),
      dt::Matrix::from_rows({{0.0f, 0.0f, 0.0f}}),
  };
  attn.begin(&enc, 1);
  attn.step(dt::Matrix::from_rows({{2.0f, 2.0f, 2.0f}}));
  const auto& align = attn.alignment(0);
  EXPECT_GT(align(0, 1), align(0, 0));
  EXPECT_GT(align(0, 1), align(0, 2));
}

namespace {

bool bitwise_equal(dt::ConstMatrixView a, dt::ConstMatrixView b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

dt::Matrix uniform_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  dt::Matrix m(rows, cols);
  m.init_uniform(rng, 1.0f);
  return m;
}

/// Drive the live layer and the frozen copy through kSteps forward steps
/// and (unmasked only) the backward, asserting bit identity throughout.
void expect_matches_frozen(dn::AttentionScore score, bool masked,
                           std::size_t H, std::size_t S, std::size_t B,
                           const std::string& what) {
  constexpr std::size_t kSteps = 3;
  Rng rng(1000 + H * 97 + S * 13 + B);
  dn::LuongAttention live("a", H, rng, 0.3f, score);
  dn::ParamRegistry reg;
  live.register_params(reg);
  const dn::Param* wc = reg.params().back();
  const dn::Param* wa =
      score == dn::AttentionScore::kGeneral ? reg.params().front() : nullptr;
  desmine::reference::FrozenAttention frozen(
      H, score, wa != nullptr ? wa->view() : dt::ConstMatrixView(),
      wc->view());

  std::vector<dt::Matrix> enc;
  for (std::size_t s = 0; s < S; ++s) enc.push_back(uniform_matrix(B, H, rng));
  const std::vector<dt::ConstMatrixView> enc_views(enc.begin(), enc.end());
  std::vector<std::size_t> lengths(B, S);
  for (std::size_t b = 0; masked && b < B; ++b) lengths[b] = 1 + (b * 7) % S;
  const std::vector<std::size_t>* mask = masked ? &lengths : nullptr;

  dt::Workspace ws;
  live.begin(enc_views, B, &ws, mask);
  frozen.begin(enc_views, B, mask);
  for (std::size_t t = 0; t < kSteps; ++t) {
    const dt::Matrix h_dec = uniform_matrix(B, H, rng);
    const dt::ConstMatrixView got = live.step(h_dec);
    const dt::ConstMatrixView want = frozen.step(h_dec);
    ASSERT_TRUE(bitwise_equal(live.alignment(t), frozen.alignment(t)))
        << what << " alignment step " << t;
    ASSERT_TRUE(bitwise_equal(got, want)) << what << " h~ step " << t;
  }
  if (masked) return;  // a masked decode is inference only
  for (std::size_t t = kSteps; t-- > 0;) {
    const dt::Matrix d_attn = uniform_matrix(B, H, rng);
    const dt::ConstMatrixView got = live.backward_step(d_attn);
    ASSERT_TRUE(bitwise_equal(got, frozen.backward_step(d_attn)))
        << what << " dh_dec step " << t;
  }
  ASSERT_TRUE(bitwise_equal(wc->grad, frozen.dwc())) << what << " dWc";
  if (wa != nullptr) {
    ASSERT_TRUE(bitwise_equal(wa->grad, frozen.dwa())) << what << " dWa";
  }
  for (std::size_t s = 0; s < S; ++s) {
    ASSERT_TRUE(bitwise_equal(live.encoder_grads()[s],
                              frozen.encoder_grads()[s]))
        << what << " d_encoder[" << s << "]";
  }
}

}  // namespace

TEST(Attention, BitIdenticalToFrozenLoops) {
  // The scores and dalign dots run through tensor::dot_rows_transposed over
  // transposed arena copies, h~'s tanh through tensor::tanh_inplace, and the
  // d_encoder update is its own loop. On every backend the layer must still
  // match the frozen pre-kernel loops (tests/frozen_attention.cpp) bit for
  // bit: alignments and h~ forward; dh_dec, dWa, dWc and the encoder grads
  // backward.
  struct RestoreBackend {
    ~RestoreBackend() { dt::kernels::select_backend("auto"); }
  } restore;
  for (const dt::kernels::Backend backend :
       dt::kernels::available_backends()) {
    dt::kernels::set_backend(backend);
    for (const dn::AttentionScore score :
         {dn::AttentionScore::kGeneral, dn::AttentionScore::kDot}) {
      for (const bool masked : {false, true}) {
        for (const std::size_t H : {7u, 24u, 25u}) {
          for (const std::size_t S : {1u, 5u, 8u, 20u, 33u}) {
            for (const std::size_t B : {1u, 3u, 16u}) {
              const std::string what =
                  std::string(dt::kernels::backend_name(backend)) +
                  (score == dn::AttentionScore::kDot ? " dot" : " general") +
                  (masked ? " masked" : "") + " H=" + std::to_string(H) +
                  " S=" + std::to_string(S) + " B=" + std::to_string(B);
              expect_matches_frozen(score, masked, H, S, B, what);
              if (::testing::Test::HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

namespace {

/// Run two same-seed stacks over the same token sequence, one fed gathered
/// table rows through step(x), the other bound to the table and fed ids,
/// and assert bit identity of every output, the final state and (when
/// training) every gradient.
void expect_projected_matches_gemm(std::size_t B, std::size_t L, bool train,
                                   float dropout, const std::string& what) {
  constexpr std::size_t kE = 6, kH = 5, kV = 11, kT = 4;
  Rng init(500 + B * 10 + L);
  const dt::Matrix table = uniform_matrix(kV, kE, init);
  std::vector<std::vector<std::int32_t>> ids(kT, std::vector<std::int32_t>(B));
  for (std::size_t t = 0; t < kT; ++t) {
    for (std::size_t b = 0; b < B; ++b) {
      ids[t][b] = static_cast<std::int32_t>((t * 5 + b * 3) % kV);
    }
  }
  Rng rng_a(77), rng_b(77), drop_a(78), drop_b(78);
  dn::LstmStack a("l", kE, kH, L, rng_a, dropout);
  dn::LstmStack b("l", kE, kH, L, rng_b, dropout);
  dt::Workspace ws_a, ws_b;
  a.begin(B, nullptr, train, &drop_a, &ws_a);
  b.begin(B, nullptr, train, &drop_b, &ws_b);
  b.bind_input_table(table);
  for (std::size_t t = 0; t < kT; ++t) {
    dt::Matrix x(B, kE);
    for (std::size_t r = 0; r < B; ++r) {
      const auto id = static_cast<std::size_t>(ids[t][r]);
      std::copy(table.row(id), table.row(id) + kE, x.row(r));
    }
    const dt::ConstMatrixView ha = a.step(x);
    const dt::ConstMatrixView hb = b.step(ids[t]);
    ASSERT_TRUE(bitwise_equal(ha, hb)) << what << " h step " << t;
  }
  const dn::LstmState sa = a.state(), sb = b.state();
  for (std::size_t l = 0; l < L; ++l) {
    ASSERT_TRUE(bitwise_equal(sa.h[l], sb.h[l])) << what << " h layer " << l;
    ASSERT_TRUE(bitwise_equal(sa.c[l], sb.c[l])) << what << " c layer " << l;
  }
  if (!train) {
    std::vector<dt::Matrix> dh(kT);
    EXPECT_THROW(b.backward(dh), desmine::PreconditionError) << what;
    return;
  }
  std::vector<dt::Matrix> dh;
  Rng grads(79);
  for (std::size_t t = 0; t < kT; ++t) {
    dh.push_back(uniform_matrix(B, kH, grads));
  }
  const auto ba = a.backward(dh);
  const auto bb = b.backward(dh);
  for (std::size_t t = 0; t < kT; ++t) {
    ASSERT_TRUE(bitwise_equal(ba.dx[t], bb.dx[t])) << what << " dx " << t;
  }
  dn::ParamRegistry ra, rb;
  a.register_params(ra);
  b.register_params(rb);
  for (std::size_t p = 0; p < ra.params().size(); ++p) {
    ASSERT_TRUE(bitwise_equal(ra.params()[p]->grad, rb.params()[p]->grad))
        << what << " " << ra.params()[p]->name;
  }
}

}  // namespace

TEST(Lstm, ProjectedInputStepBitIdenticalToGemmStep) {
  // Layer 0's x·Wx read from the table's one-GEMM projection must give the
  // per-step GEMM's bits on every backend: decoding, training without
  // dropout (which also keeps the gathered input for dWx) and training with
  // dropout (no projection; the masked rows take the GEMM path). A stack
  // fed by id at inference keeps no input, so its backward is refused.
  struct RestoreBackend {
    ~RestoreBackend() { dt::kernels::select_backend("auto"); }
  } restore;
  for (const dt::kernels::Backend backend :
       dt::kernels::available_backends()) {
    dt::kernels::set_backend(backend);
    for (const std::size_t B : {1u, 3u, 16u}) {
      for (const std::size_t L : {1u, 2u}) {
        for (const bool train : {false, true}) {
          for (const float dropout : {0.0f, 0.3f}) {
            const std::string what =
                std::string(dt::kernels::backend_name(backend)) +
                " B=" + std::to_string(B) + " L=" + std::to_string(L) +
                (train ? " train" : " decode") +
                " dropout=" + std::to_string(dropout);
            expect_projected_matches_gemm(B, L, train, dropout, what);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}
