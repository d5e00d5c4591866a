// Tests for the NMT extensions: the dot-attention variant (including its
// gradient check) and the parameter footprint artifact readers check.
#include <gtest/gtest.h>

#include <cstdint>

#include "nmt/seq2seq.h"
#include "nmt/trainer.h"
#include "nmt/translation.h"
#include "nn/gradcheck.h"
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

// ------------------------------------------------------------ footprint ---

TEST(ParameterFootprint, MatchesTheBuiltModelForBothScores) {
  for (const auto score : {desmine::nn::AttentionScore::kGeneral,
                           desmine::nn::AttentionScore::kDot}) {
    for (const std::size_t layers : {1u, 3u}) {
      dm::Seq2SeqConfig cfg = tiny_config();
      cfg.embedding_dim = 5;
      cfg.hidden_dim = 7;
      cfg.num_layers = layers;
      cfg.attention = score;
      dm::Seq2SeqModel model(9, 11, cfg, Rng(1));
      std::uint64_t floats = 0;
      for (const desmine::nn::Param* p : model.params().params()) {
        floats += p->size();
      }
      const dm::ParameterFootprint f = dm::parameter_footprint(9, 11, cfg);
      EXPECT_EQ(f.tensors, model.params().params().size()) << layers;
      EXPECT_EQ(f.floats, floats) << layers;
    }
  }
  // Absurd dimensions saturate instead of wrapping.
  dm::Seq2SeqConfig huge = tiny_config();
  huge.hidden_dim = std::size_t{1} << 40;
  huge.num_layers = std::size_t{1} << 40;
  EXPECT_EQ(dm::parameter_footprint(9, 11, huge).floats, UINT64_MAX);
}
