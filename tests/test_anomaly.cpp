// Tests for Algorithm 2 (anomaly detection): valid-model banding, broken
// relationships, anomaly scores, alert matrices, and the boundaries of the
// shared decision functions (validate, in_valid_band, unhealthy_flags,
// is_broken, window_verdict) every detection path decides through.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/anomaly.h"
#include "core/mvr_graph.h"
#include "nmt/translation.h"
#include "robust/errors.h"
#include "string_oracle.h"
#include "tensor/kernels.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dm = desmine::nmt;
namespace dx = desmine::text;
namespace dor = desmine::oracle;
using desmine::util::Rng;

namespace {

// These fixtures train tiny models and assert on which edges land inside a
// ±5 BLEU validity window — behavior that is seed-deterministic only for a
// fixed kernel numerics. Pin the scalar reference backend so the assertions
// stay stable regardless of the host's auto-detected backend.
const bool kPinScalarBackend = [] {
  desmine::tensor::kernels::set_backend(
      desmine::tensor::kernels::Backend::kScalar);
  return true;
}();

/// Deterministic word-substitution corpora: target token mirrors the source
/// token index-for-index.
void make_corpus(std::size_t sentences, std::size_t length, dx::Corpus& src,
                 dx::Corpus& tgt, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> sw = {"sa", "sb", "sc"};
  const std::vector<std::string> tw = {"ta", "tb", "tc"};
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

std::shared_ptr<dm::TranslationModel> trained_model(const dx::Corpus& src,
                                                    const dx::Corpus& tgt) {
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 32;
  cfg.model.hidden_dim = 32;
  cfg.model.num_layers = 1;
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 700;
  cfg.trainer.batch_size = 12;
  cfg.trainer.lr = 0.02f;
  return std::make_shared<dm::TranslationModel>(
      dm::train_translation_model(src, tgt, cfg, 321));
}

/// The deterministic seed-321 pair model, trained on make_corpus seed 1,
/// and its BLEU on the seed-2 dev corpus. Training is the expensive part:
/// every fixture shares this one model (decoding is a pure function of the
/// input, and each detector keeps its own memo).
struct PairModel {
  std::shared_ptr<dm::TranslationModel> model;
  double dev_bleu = 0.0;
};

const PairModel& pair_model() {
  static const PairModel m = [] {
    dx::Corpus train_src, train_tgt;
    make_corpus(96, 5, train_src, train_tgt, 1);
    PairModel out;
    out.model = trained_model(train_src, train_tgt);
    dx::Corpus dev_src, dev_tgt;
    make_corpus(12, 5, dev_src, dev_tgt, 2);
    out.dev_bleu = out.model->score(dev_src, dev_tgt).score;
    return out;
  }();
  return m;
}

struct Fixture {
  dc::MvrGraph graph{std::vector<std::string>{"src", "dst"}};
  double dev_bleu = 0.0;
};

Fixture make_fixture() {
  Fixture f;
  f.dev_bleu = pair_model().dev_bleu;
  dc::MvrEdge e;
  e.src = 0;
  e.dst = 1;
  e.bleu = f.dev_bleu;
  e.model = pair_model().model;
  f.graph.add_edge(e);
  return f;
}

}  // namespace

TEST(AnomalyDetector, ValidBandSelectsEdges) {
  const Fixture f = make_fixture();
  dc::DetectorConfig inside;
  inside.valid_lo = f.dev_bleu - 1.0;
  inside.valid_hi = f.dev_bleu + 1.0;
  EXPECT_EQ(dc::AnomalyDetector(f.graph, inside).valid_model_count(), 1u);

  dc::DetectorConfig outside;
  outside.valid_lo = 0.0;
  outside.valid_hi = 1.0;
  EXPECT_EQ(dc::AnomalyDetector(f.graph, outside).valid_model_count(), 0u);

  // The band is [valid_lo, valid_hi): s == valid_lo is valid, s == valid_hi
  // is not.
  dc::DetectorConfig at_lo;
  at_lo.valid_lo = f.dev_bleu;
  at_lo.valid_hi = f.dev_bleu + 1.0;
  EXPECT_TRUE(dc::in_valid_band(at_lo, f.dev_bleu));
  EXPECT_EQ(dc::AnomalyDetector(f.graph, at_lo).valid_model_count(), 1u);
  dc::DetectorConfig at_hi;
  at_hi.valid_lo = f.dev_bleu - 1.0;
  at_hi.valid_hi = f.dev_bleu;
  EXPECT_FALSE(dc::in_valid_band(at_hi, f.dev_bleu));
  EXPECT_EQ(dc::AnomalyDetector(f.graph, at_hi).valid_model_count(), 0u);
}

TEST(AnomalyDetector, EdgeWithoutModelInBandThrows) {
  dc::MvrGraph g({"a", "b"});
  dc::MvrEdge e;
  e.src = 0;
  e.dst = 1;
  e.bleu = 85.0;  // in band, but no model attached
  g.add_edge(e);
  dc::DetectorConfig cfg;
  EXPECT_THROW(dc::AnomalyDetector(g, cfg), desmine::PreconditionError);
}

TEST(AnomalyDetector, NormalWindowsScoreLowBrokenWindowsScoreHigh) {
  const Fixture f = make_fixture();
  dc::DetectorConfig cfg;
  cfg.valid_lo = f.dev_bleu - 5.0;
  cfg.valid_hi = f.dev_bleu + 5.0;
  cfg.tolerance = 5.0;  // allow per-sentence BLEU jitter around the dev mean
  cfg.threads = 1;
  const dc::AnomalyDetector detector(f.graph, cfg);

  // Window 0: normal aligned pair. Window 1: target replaced by garbage —
  // the relationship must break.
  dx::Corpus win_src, win_tgt;
  make_corpus(2, 5, win_src, win_tgt, 3);
  win_tgt[1] = dx::Sentence(5, "tc");  // degenerate target
  if (win_src[1] == dx::Sentence(5, "sc")) win_src[1][0] = "sa";

  const auto result = dor::detect_strings(detector, {win_src, win_tgt});
  ASSERT_EQ(result.anomaly_scores.size(), 2u);
  EXPECT_DOUBLE_EQ(result.anomaly_scores[0], 0.0);
  EXPECT_DOUBLE_EQ(result.anomaly_scores[1], 1.0);
  EXPECT_TRUE(result.broken_edges[0].empty());
  ASSERT_EQ(result.broken_edges[1].size(), 1u);
  EXPECT_EQ(result.broken_edges[1][0], 0u);
}

TEST(AnomalyDetector, EdgeBleuMatrixShape) {
  const Fixture f = make_fixture();
  dc::DetectorConfig cfg;
  cfg.valid_lo = 0.0;
  cfg.valid_hi = 101.0;
  cfg.threads = 1;
  const dc::AnomalyDetector detector(f.graph, cfg);
  dx::Corpus src, tgt;
  make_corpus(4, 5, src, tgt, 5);
  const auto result = dor::detect_strings(detector, {src, tgt});
  ASSERT_EQ(result.edge_bleu.size(), 1u);
  EXPECT_EQ(result.edge_bleu[0].size(), 4u);
  for (double b : result.edge_bleu[0]) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 100.0);
  }
  // Result snapshots drop the model pointer (no accidental retention).
  EXPECT_EQ(result.valid_edges[0].model, nullptr);
}

TEST(AnomalyDetector, ToleranceSuppressesMarginalBreaks) {
  const Fixture f = make_fixture();
  dx::Corpus src, tgt;
  make_corpus(3, 5, src, tgt, 6);

  dc::DetectorConfig strict;
  strict.valid_lo = 0.0;
  strict.valid_hi = 101.0;
  strict.tolerance = 0.0;
  strict.threads = 1;
  const auto strict_result =
      dor::detect_strings(dc::AnomalyDetector(f.graph, strict), {src, tgt});

  dc::DetectorConfig lenient = strict;
  lenient.tolerance = 100.0;  // nothing can fall 100 BLEU below training
  const auto lenient_result =
      dor::detect_strings(dc::AnomalyDetector(f.graph, lenient), {src, tgt});

  double strict_sum = 0.0, lenient_sum = 0.0;
  for (double s : strict_result.anomaly_scores) strict_sum += s;
  for (double s : lenient_result.anomaly_scores) lenient_sum += s;
  EXPECT_DOUBLE_EQ(lenient_sum, 0.0);
  EXPECT_GE(strict_sum, lenient_sum);

  // Broken means strictly below s - tolerance: f == s - tolerance holds.
  lenient.tolerance = 10.0;
  EXPECT_FALSE(dc::is_broken(lenient, 70.0, 80.0));
  EXPECT_TRUE(dc::is_broken(lenient, 69.5, 80.0));
}

TEST(AnomalyDetector, MisalignedTestCorporaThrow) {
  const Fixture f = make_fixture();
  dc::DetectorConfig cfg;
  cfg.valid_lo = 0.0;
  cfg.valid_hi = 101.0;
  const dc::AnomalyDetector detector(f.graph, cfg);
  dx::Corpus a, b;
  make_corpus(3, 5, a, b, 7);
  b.pop_back();
  EXPECT_THROW(dor::detect_strings(detector, {a, b}),
               desmine::PreconditionError);
  EXPECT_THROW(dor::detect_strings(detector, {}), desmine::PreconditionError);
}

TEST(AnomalyDetector, MisalignedCorpusCarriesTypedFields) {
  const Fixture f = make_fixture();
  dc::DetectorConfig cfg;
  cfg.valid_lo = 0.0;
  cfg.valid_hi = 101.0;
  const dc::AnomalyDetector detector(f.graph, cfg);
  dx::Corpus a, b;
  make_corpus(3, 5, a, b, 9);
  b.pop_back();
  try {
    dor::detect_strings(detector, {a, b});
    FAIL() << "expected robust::MisalignedCorpus";
  } catch (const desmine::robust::MisalignedCorpus& e) {
    EXPECT_EQ(e.sensor(), "dst");  // graph node 1's name
    EXPECT_EQ(e.expected(), 3u);
    EXPECT_EQ(e.got(), 2u);
    EXPECT_NE(std::string(e.what()).find("dst"), std::string::npos);
  }
}

namespace {

/// Two edges sharing one trained model: a -> b (aligned target) and
/// a -> c (whatever corpus the test supplies for node c).
struct FanoutFixture {
  dc::MvrGraph graph{std::vector<std::string>{"a", "b", "c"}};
  double dev_bleu = 0.0;
};

FanoutFixture make_fanout_fixture() {
  FanoutFixture f;
  f.dev_bleu = pair_model().dev_bleu;
  for (std::size_t dst : {std::size_t{1}, std::size_t{2}}) {
    dc::MvrEdge e;
    e.src = 0;
    e.dst = dst;
    e.bleu = f.dev_bleu;
    e.model = pair_model().model;
    f.graph.add_edge(e);
  }
  return f;
}

const FanoutFixture& fanout_fixture() {
  static const FanoutFixture f = make_fanout_fixture();
  return f;
}

dc::DetectorConfig fanout_config(const FanoutFixture& f) {
  dc::DetectorConfig cfg;
  cfg.valid_lo = f.dev_bleu - 5.0;
  cfg.valid_hi = f.dev_bleu + 5.0;
  cfg.tolerance = 5.0;
  cfg.threads = 1;
  return cfg;
}

/// Two windows: node b mirrors the source (healthy relationship), node c is
/// degenerate garbage (relationship a -> c breaks in every window).
void fanout_corpora(dx::Corpus& src, dx::Corpus& aligned, dx::Corpus& garbage) {
  make_corpus(2, 5, src, aligned, 3);
  for (std::size_t t = 0; t < src.size(); ++t) {
    if (src[t] == dx::Sentence(5, "sc")) src[t][0] = "sa";
    garbage.push_back(dx::Sentence(5, "tc"));
  }
}

}  // namespace

TEST(AnomalyDetector, HealthMaskExcludesAndRenormalizes) {
  const FanoutFixture& f = fanout_fixture();
  dc::DetectorConfig cfg = fanout_config(f);
  cfg.min_coverage = 0.2;
  const dc::AnomalyDetector detector(f.graph, cfg);
  ASSERT_EQ(detector.valid_model_count(), 2u);

  dx::Corpus src, aligned, garbage;
  fanout_corpora(src, aligned, garbage);

  // Unmasked: a->c is broken everywhere, a->b nowhere; a_t = 1/2.
  const auto plain = dor::detect_strings(detector, {src, aligned, garbage});
  ASSERT_EQ(plain.anomaly_scores.size(), 2u);
  EXPECT_DOUBLE_EQ(plain.anomaly_scores[0], 0.5);
  EXPECT_DOUBLE_EQ(plain.anomaly_scores[1], 0.5);
  EXPECT_DOUBLE_EQ(plain.coverage[0], 1.0);
  EXPECT_EQ(plain.degraded[0], 0);

  // Excluding sensor c at window 1 removes a->c from that window's valid
  // set: the broken plumbing no longer masquerades as an anomaly and the
  // score renormalizes over the single survivor.
  const dc::HealthMask mask = {{}, {2}};
  const auto masked =
      dor::detect_strings(detector, {src, aligned, garbage},
                          dc::DetectOptions{.unhealthy = &mask});
  EXPECT_DOUBLE_EQ(masked.anomaly_scores[0], 0.5);  // untouched window
  EXPECT_DOUBLE_EQ(masked.coverage[0], 1.0);
  EXPECT_DOUBLE_EQ(masked.anomaly_scores[1], 0.0);  // 0 broken / 1 surviving
  EXPECT_DOUBLE_EQ(masked.coverage[1], 0.5);
  EXPECT_EQ(masked.degraded[1], 0);  // 0.5 >= min_coverage 0.2
  EXPECT_TRUE(masked.broken_edges[1].empty());
  // The excluded edge was never scored at window 1.
  EXPECT_DOUBLE_EQ(masked.edge_bleu[1][1], 0.0);
  EXPECT_GT(plain.edge_bleu[0][1], 0.0);
}

TEST(AnomalyDetector, CoverageQuorumGatesVerdicts) {
  const FanoutFixture& f = fanout_fixture();
  dc::DetectorConfig cfg = fanout_config(f);
  cfg.min_coverage = 0.6;  // 1 of 2 surviving edges is below quorum
  const dc::AnomalyDetector detector(f.graph, cfg);

  dx::Corpus src, aligned, garbage;
  fanout_corpora(src, aligned, garbage);
  const dc::HealthMask mask = {{}, {2}};
  const auto result =
      dor::detect_strings(detector, {src, aligned, garbage},
                          dc::DetectOptions{.unhealthy = &mask});
  EXPECT_EQ(result.degraded[0], 0);
  EXPECT_EQ(result.degraded[1], 1);
  // No verdict: a NaN-free placeholder, not a claim of "no anomaly".
  EXPECT_DOUBLE_EQ(result.anomaly_scores[1], 0.0);
  EXPECT_DOUBLE_EQ(result.coverage[1], 0.5);

  // Coverage exactly at the quorum still gets a verdict.
  cfg.min_coverage = 0.5;
  const auto at_quorum =
      dor::detect_strings(dc::AnomalyDetector(f.graph, cfg),
                          {src, aligned, garbage},
                          dc::DetectOptions{.unhealthy = &mask});
  EXPECT_EQ(at_quorum.degraded[1], 0);
  EXPECT_DOUBLE_EQ(at_quorum.coverage[1], 0.5);
  EXPECT_DOUBLE_EQ(at_quorum.anomaly_scores[1], 0.0);  // 0 of 1 broken
}

TEST(AnomalyDetector, HealthMaskValidation) {
  const FanoutFixture& f = fanout_fixture();
  const dc::AnomalyDetector detector(f.graph, fanout_config(f));
  dx::Corpus src, aligned, garbage;
  fanout_corpora(src, aligned, garbage);

  const dc::HealthMask wrong_size = {{}};  // 1 entry for 2 windows
  EXPECT_THROW(
      dor::detect_strings(detector, {src, aligned, garbage},
                          dc::DetectOptions{.unhealthy = &wrong_size}),
      desmine::PreconditionError);
  // Nodes 0..2 exist: node 3 is the first out of range.
  for (const std::size_t node : {std::size_t{7}, std::size_t{3}}) {
    const dc::HealthMask bad_node = {{}, {node}};
    EXPECT_THROW(dor::detect_strings(detector, {src, aligned, garbage},
                                 dc::DetectOptions{.unhealthy = &bad_node}),
                 desmine::PreconditionError)
        << node;
  }
  EXPECT_THROW(dc::unhealthy_flags({3}, 3), desmine::PreconditionError);
  EXPECT_TRUE(dc::unhealthy_flags({}, 3).empty());
  const std::vector<std::uint8_t> flags = dc::unhealthy_flags({2}, 3);
  EXPECT_EQ(flags, (std::vector<std::uint8_t>{0, 0, 1}));
  EXPECT_TRUE(dc::is_excluded(flags, 0, 2));
  EXPECT_FALSE(dc::is_excluded(flags, 0, 1));
  EXPECT_FALSE(dc::is_excluded({}, 0, 2));  // no mask excludes nothing
}

TEST(AnomalyDetector, NoMaskLeavesCoverageFullAndVerdictsUngated) {
  const FanoutFixture& f = fanout_fixture();
  dc::DetectorConfig cfg = fanout_config(f);
  cfg.min_coverage = 1.0;  // would gate everything if a mask were supplied
  const dc::AnomalyDetector detector(f.graph, cfg);
  dx::Corpus src, aligned, garbage;
  fanout_corpora(src, aligned, garbage);
  const auto result = dor::detect_strings(detector, {src, aligned, garbage});
  for (std::size_t t = 0; t < result.anomaly_scores.size(); ++t) {
    EXPECT_DOUBLE_EQ(result.coverage[t], 1.0);
    EXPECT_EQ(result.degraded[t], 0);
    EXPECT_DOUBLE_EQ(result.anomaly_scores[t], 0.5);
  }
}

TEST(AnomalyDetector, RejectsInvalidMinCoverage) {
  const Fixture f = make_fixture();
  dc::DetectorConfig cfg;
  cfg.min_coverage = 1.5;
  EXPECT_THROW(dc::AnomalyDetector(f.graph, cfg), desmine::PreconditionError);
  cfg.min_coverage = -0.1;
  EXPECT_THROW(dc::AnomalyDetector(f.graph, cfg), desmine::PreconditionError);

  // The closed interval's ends and an empty band are accepted; an inverted
  // band is not.
  for (const double quorum : {0.0, 1.0}) {
    cfg.min_coverage = quorum;
    EXPECT_NO_THROW(dc::validate(cfg)) << quorum;
  }
  cfg.valid_lo = cfg.valid_hi;
  EXPECT_NO_THROW(dc::validate(cfg));
  cfg.valid_lo = cfg.valid_hi + 1.0;
  EXPECT_THROW(dc::validate(cfg), desmine::PreconditionError);
}

TEST(AnomalyDetector, NoValidModelsGivesZeroScores) {
  const Fixture f = make_fixture();
  dc::DetectorConfig cfg;
  cfg.valid_lo = 0.0;
  cfg.valid_hi = 0.5;  // excludes the only edge
  const dc::AnomalyDetector detector(f.graph, cfg);
  dx::Corpus src, tgt;
  make_corpus(2, 5, src, tgt, 8);
  const auto result = dor::detect_strings(detector, {src, tgt});
  for (std::size_t t = 0; t < result.anomaly_scores.size(); ++t) {
    EXPECT_DOUBLE_EQ(result.anomaly_scores[t], 0.0);
    EXPECT_DOUBLE_EQ(result.coverage[t], 0.0);
    EXPECT_EQ(result.degraded[t], 0);  // strict mode never loses quorum
  }
}
