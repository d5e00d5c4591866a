// Tests for the NMT extensions: dot-attention variant (including its
// gradient check), LR decay, and dev-based early stopping.
#include <gtest/gtest.h>

#include "nmt/seq2seq.h"
#include "nmt/trainer.h"
#include "nmt/translation.h"
#include "nn/gradcheck.h"
#include "util/error.h"
#include "util/rng.h"

namespace dm = desmine::nmt;
namespace dx = desmine::text;
using desmine::util::Rng;

namespace {

dm::Seq2SeqConfig tiny_config() {
  dm::Seq2SeqConfig cfg;
  cfg.embedding_dim = 32;
  cfg.hidden_dim = 32;
  cfg.num_layers = 1;
  cfg.dropout = 0.0f;
  cfg.max_decode_length = 16;
  return cfg;
}

void make_corpus(std::size_t sentences, std::size_t length, dx::Corpus& src,
                 dx::Corpus& tgt, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> sw = {"sa", "sb", "sc", "sd"};
  const std::vector<std::string> tw = {"ta", "tb", "tc", "td"};
  for (std::size_t k = 0; k < sentences; ++k) {
    dx::Sentence s, t;
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t w = rng.index(sw.size());
      s.push_back(sw[w]);
      t.push_back(tw[w]);
    }
    src.push_back(s);
    tgt.push_back(t);
  }
}

}  // namespace

// --------------------------------------------------------- dot attention ---

TEST(DotAttention, TrainsAndGradChecks) {
  dm::Seq2SeqConfig cfg = tiny_config();
  cfg.embedding_dim = 4;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.init_scale = 0.4f;
  cfg.attention = desmine::nn::AttentionScore::kDot;
  dm::Seq2SeqModel model(7, 6, cfg, Rng(6));

  const std::vector<dm::EncodedPair> pairs = {
      {{4, 5, 6, 4}, {4, 5, 4}},
      {{5, 5, 4, 6}, {5, 4, 5}},
  };
  std::vector<const dm::EncodedPair*> batch = {&pairs[0], &pairs[1]};
  auto loss_fn = [&](bool accumulate) {
    return accumulate ? model.train_batch(batch) : model.evaluate_loss(batch);
  };
  const auto report = desmine::nn::gradient_check(model.params(), loss_fn, 4,
                                                  1e-2);
  EXPECT_LT(report.max_rel_error, 3e-2) << report.worst_param;
}

TEST(DotAttention, LearnsSubstitutionTask) {
  dx::Corpus src, tgt;
  make_corpus(96, 5, src, tgt, 9);
  dm::TranslationConfig cfg;
  cfg.model = tiny_config();
  cfg.model.attention = desmine::nn::AttentionScore::kDot;
  cfg.trainer.steps = 800;
  cfg.trainer.batch_size = 12;
  cfg.trainer.lr = 0.02f;
  auto model = dm::train_translation_model(src, tgt, cfg, 10);
  dx::Corpus test_src, test_tgt;
  make_corpus(16, 5, test_src, test_tgt, 11);
  EXPECT_GT(model.score(test_src, test_tgt).score, 70.0);
}

// ----------------------------------------------------------- trainer -------

TEST(Trainer, LrDecaySchedule) {
  dx::Corpus src, tgt;
  make_corpus(32, 4, src, tgt, 12);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(13));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  dm::TrainerConfig cfg;
  cfg.steps = 60;
  cfg.batch_size = 4;
  cfg.lr = 0.02f;
  cfg.lr_decay_start = 20;
  cfg.lr_decay_every = 20;
  // Decay only changes optimizer internals; verify training still completes
  // and the loss is finite/decreasing overall.
  const auto history = dm::train(model, pairs, cfg, Rng(14));
  EXPECT_EQ(history.steps_run, 60u);
  EXPECT_LT(history.final_loss, history.losses.front());
}

TEST(Trainer, EarlyStoppingTriggersOnPlateau) {
  dx::Corpus src, tgt;
  make_corpus(32, 4, src, tgt, 15);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(16));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  // Dev set from a *different* mapping: dev loss cannot improve for long,
  // so patience must fire well before the step budget.
  dx::Corpus dev_src, dev_tgt_wrong;
  make_corpus(8, 4, dev_src, dev_tgt_wrong, 17);
  for (auto& sentence : dev_tgt_wrong) {
    for (auto& word : sentence) word = "ta";  // degenerate references
  }
  const auto dev_pairs =
      dm::encode_pairs(sv, tv, dev_src, dev_tgt_wrong);

  dm::TrainerConfig cfg;
  cfg.steps = 2000;
  cfg.batch_size = 4;
  cfg.lr = 0.02f;
  cfg.eval_every = 10;
  cfg.patience = 3;
  const auto history = dm::train_with_dev(model, pairs, dev_pairs, cfg,
                                          Rng(18));
  EXPECT_LT(history.steps_run, 2000u) << "early stopping never fired";
  EXPECT_FALSE(history.dev_losses.empty());
  EXPECT_GT(history.best_dev_loss, 0.0);
}

TEST(Trainer, DevEvaluationRecordsHistory) {
  dx::Corpus src, tgt;
  make_corpus(32, 4, src, tgt, 19);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(20));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);

  dm::TrainerConfig cfg;
  cfg.steps = 40;
  cfg.batch_size = 4;
  cfg.eval_every = 10;
  cfg.patience = 100;  // never stop early
  const auto history = dm::train_with_dev(model, pairs, pairs, cfg, Rng(21));
  ASSERT_EQ(history.dev_losses.size(), 4u);
  EXPECT_EQ(history.dev_losses.front().first, 10u);
  EXPECT_EQ(history.dev_losses.back().first, 40u);
  // Training on the dev set itself: best dev loss improves over the first.
  EXPECT_LE(history.best_dev_loss, history.dev_losses.front().second);
}

TEST(Trainer, EarlyStoppingRequiresDevCorpus) {
  dx::Corpus src, tgt;
  make_corpus(8, 4, src, tgt, 22);
  const auto sv = dx::Vocabulary::build(src);
  const auto tv = dx::Vocabulary::build(tgt);
  dm::Seq2SeqModel model(sv.size(), tv.size(), tiny_config(), Rng(23));
  const auto pairs = dm::encode_pairs(sv, tv, src, tgt);
  dm::TrainerConfig cfg;
  cfg.eval_every = 5;
  EXPECT_THROW(dm::train_with_dev(model, pairs, {}, cfg, Rng(24)),
               desmine::PreconditionError);
}
