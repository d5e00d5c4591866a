// Differential and memory tests for the shared Algorithm 2 scoring step
// (core::EdgeScorer). Batch detection, the streaming OnlineDetector and the
// serving SessionManager all score through it, so their a_t, broken sets,
// coverage, degraded flags and f(i,j) must agree bit for bit — strict and
// degraded, and on an edge whose source has more distinct
// sentences than one stacked decode holds (nmt::kMaxDecodeRows). Scoring
// runs on ids encoded once per sensor, so f(i,j) must also match the string
// sentence_bleu of the decoded strings, and every edge must share its
// sensors' vocabularies (a Framework restored on a graph that breaks this
// still saves, and its detect rejects the graph on every call). Repeated
// (candidate, reference) pairs share one sentence BLEU with the same bits
// per item. Greedy decodes run on the scoring thread's arena:
// a model's own arena stays empty outside training, and a warm thread arena
// does not grow again. The DecodeCache memo compares sources by content at
// 8-, 16- and 32-bit key widths, stores one candidate for the sources that
// decode alike, and holds a full epoch in under 64 B per source; a
// detector's memos answer a repeated call without decoding. A memo with
// pairs answers a memoised candidate's (candidate, reference) pairs with
// the bits of a fresh score, forgets them with their candidate epoch, and
// holds a full pair epoch in under 48 B per pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_scorer.h"
#include "core/framework.h"
#include "core/online.h"
#include "io/artifact_map.h"
#include "io/serialize.h"
#include "nmt/translation.h"
#include "obs/metrics.h"
#include "robust/errors.h"
#include "serve/model_registry.h"
#include "serve/session_manager.h"
#include "serve/shadow_scorer.h"
#include "string_oracle.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dm = desmine::nmt;
namespace ds = desmine::serve;
namespace dt = desmine::tensor;
namespace dx = desmine::text;
namespace dio = desmine::io;
namespace dor = desmine::oracle;
using desmine::util::Rng;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Coupled pair (follow repeats lead 2 ticks later) plus a noise sensor.
/// With `flood_lo < flood_hi`, noise reports a state never seen in training
/// over [flood_lo, flood_hi): the health tracker floods it and degraded
/// detection excludes its edges there.
dc::MultivariateSeries make_series(std::size_t ticks, std::uint64_t seed,
                                   std::size_t flood_lo = 0,
                                   std::size_t flood_hi = 0) {
  Rng rng(seed);
  dc::EventSequence lead, follow, noise;
  bool state = false;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t % 13 == 0) state = !state;
    lead.push_back(state ? "ON" : "OFF");
    follow.push_back((t >= 2 && lead[t - 2] == "ON") ? "ON" : "OFF");
    const bool flooded = t >= flood_lo && t < flood_hi;
    noise.push_back(flooded ? "JAMMED" : rng.bernoulli(0.5) ? "ON" : "OFF");
  }
  return {{"lead", lead}, {"follow", follow}, {"noise", noise}};
}

struct Fixture {
  dc::FrameworkConfig cfg;
  dc::Framework framework;
  const std::string artifact = "/tmp/desmine_test_edge_scorer_model.bin";

  Fixture()
      : cfg([] {
          dc::FrameworkConfig c;
          c.window = {4, 1, 4, 4};
          c.miner.translation.model.embedding_dim = 16;
          c.miner.translation.model.hidden_dim = 16;
          c.miner.translation.model.num_layers = 1;
          c.miner.translation.model.dropout = 0.0f;
          c.miner.translation.trainer.steps = 150;
          c.miner.translation.trainer.batch_size = 8;
          c.miner.seed = 3;
          c.miner.threads = 2;
          c.detector.valid_lo = 0.0;
          c.detector.valid_hi = 100.5;
          c.detector.tolerance = 10.0;
          c.detector.threads = 2;
          return c;
        }()),
        framework(cfg) {
    framework.fit(make_series(600, 1), make_series(300, 2));
    dio::save_framework(framework, artifact);
  }
  ~Fixture() { std::remove(artifact.c_str()); }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::map<std::string, std::string> tick_states(
    const dc::MultivariateSeries& series, std::size_t t) {
  std::map<std::string, std::string> out;
  for (const auto& sensor : series) out[sensor.name] = sensor.events[t];
  return out;
}

using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

/// One window's verdict, with every double kept as its bit pattern.
struct Verdict {
  std::uint64_t score = 0;
  std::uint64_t coverage = 0;
  bool degraded = false;
  Pairs broken;  ///< sorted (src, dst)

  bool operator==(const Verdict& o) const {
    return score == o.score && coverage == o.coverage &&
           degraded == o.degraded && broken == o.broken;
  }
};

Verdict verdict(double score, double coverage, bool degraded, Pairs broken) {
  std::sort(broken.begin(), broken.end());
  return {bits(score), bits(coverage), degraded, std::move(broken)};
}

std::vector<Verdict> batch_verdicts(const dc::DetectionResult& r) {
  std::vector<Verdict> out;
  for (std::size_t t = 0; t < r.anomaly_scores.size(); ++t) {
    Pairs broken;
    for (const std::size_t e : r.broken_edges[t]) {
      broken.emplace_back(r.valid_edges[e].src, r.valid_edges[e].dst);
    }
    out.push_back(verdict(r.anomaly_scores[t], r.coverage[t],
                          r.degraded[t] != 0, std::move(broken)));
  }
  return out;
}

std::vector<Verdict> online_verdicts(const Fixture& f,
                                     const dc::MultivariateSeries& series,
                                     const dc::DetectorConfig& detector,
                                     dc::DegradedConfig degraded) {
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, detector, degraded);
  std::vector<Verdict> out;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    if (const auto r = online.push(tick_states(series, t))) {
      out.push_back(verdict(r->anomaly_score, r->coverage, r->degraded,
                            r->broken));
    }
  }
  return out;
}

std::vector<Verdict> served_verdicts(const Fixture& f,
                                     const dc::MultivariateSeries& series,
                                     const dc::DetectorConfig& detector,
                                     dc::DegradedConfig degraded) {
  ds::ServeConfig scfg;
  scfg.detector = detector;
  scfg.workers = 2;
  scfg.max_batch = 8;
  // A budget of one window per tick never blocks ingest.
  scfg.limits.max_pending_windows = series.front().events.size();
  ds::SessionManager manager(f.artifact, scfg);
  const std::uint64_t id = manager.open(degraded);
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    manager.ingest(id, tick_states(series, t));
  }
  manager.drain(id);
  std::vector<Verdict> out;
  while (const auto r = manager.poll(id)) {
    EXPECT_TRUE(r->failed.empty());
    EXPECT_FALSE(r->shed);
    out.push_back(verdict(r->anomaly_score, r->coverage, r->degraded,
                          r->broken));
  }
  return out;
}

void expect_same(const std::vector<Verdict>& expected,
                 const std::vector<Verdict>& actual, const char* path) {
  ASSERT_EQ(expected.size(), actual.size()) << path;
  for (std::size_t t = 0; t < expected.size(); ++t) {
    EXPECT_TRUE(expected[t] == actual[t]) << path << " window " << t;
  }
}

/// f(i,j) of every (edge, window) from batch detection must equal the
/// one-window detect() the streaming path runs, bit for bit.
void expect_edge_bleu_matches_per_window(
    const Fixture& f, const std::vector<dx::Corpus>& corpora,
    const dc::HealthMask* mask, const dc::DetectionResult& batch) {
  const dc::AnomalyDetector detector(f.framework.graph(), f.cfg.detector);
  for (std::size_t t = 0; t < batch.anomaly_scores.size(); ++t) {
    std::vector<dx::Corpus> one;
    for (const dx::Corpus& c : corpora) one.push_back({c[t]});
    dc::HealthMask one_mask;
    dc::DetectOptions options;
    if (mask != nullptr) {
      one_mask.push_back((*mask)[t]);
      options.unhealthy = &one_mask;
    }
    const dc::DetectionResult r = dor::detect_strings(detector, one, options);
    for (std::size_t e = 0; e < batch.edge_bleu.size(); ++e) {
      EXPECT_EQ(bits(batch.edge_bleu[e][t]), bits(r.edge_bleu[e][0]))
          << "edge " << e << " window " << t;
    }
  }
}

/// Window t of `series` as serving hands it on: every kept sensor's
/// sentence characters, in one buffer.
dc::WindowSpans window_spans(const dc::Framework& fw,
                             const dc::MultivariateSeries& series,
                             std::size_t t) {
  dc::WindowSpans w;
  w.span = fw.language().sentence_span();
  for (const std::string& chars : fw.encrypter().encode_all(series)) {
    w.chars.append(chars, fw.language().sentence_start(t), w.span);
  }
  return w;
}

/// The model edge whose source sensor has the most distinct sentences in
/// `corpora`, with that count.
std::pair<const dc::MvrEdge*, std::size_t> widest_edge(
    const Fixture& f, const std::vector<dx::Corpus>& corpora) {
  std::pair<const dc::MvrEdge*, std::size_t> best{nullptr, 0};
  for (const dc::MvrEdge& e : f.framework.graph().edges()) {
    if (!e.model) continue;
    const std::set<dx::Sentence> distinct(corpora[e.src].begin(),
                                          corpora[e.src].end());
    if (distinct.size() > best.second) best = {&e, distinct.size()};
  }
  return best;
}

/// One edge's items, encoded with the edge model's vocabularies.
struct Items {
  std::vector<dc::EncodedSentence> encoded_sources, encoded_references;
  std::vector<const dc::EncodedSentence*> sources, references;

  Items(const dm::TranslationModel& model, const dx::Corpus& src,
        const dx::Corpus& ref)
      : encoded_sources(dor::encode_sentences(model.src_vocab(), src, 4)),
        encoded_references(dor::encode_sentences(model.tgt_vocab(), ref, 4)) {
    for (std::size_t k = 0; k < src.size(); ++k) {
      sources.push_back(&encoded_sources[k]);
      references.push_back(&encoded_references[k]);
    }
  }
};

/// The fixture's graph retrained on each sensor's training corpus in
/// reverse order: same sensors, edges and bands, but the vocabularies
/// number their words in another first-occurrence order.
const dc::MvrGraph& reversed_graph() {
  static const dc::MvrGraph graph = [] {
    const Fixture& f = fixture();
    std::vector<dx::Corpus> corpora =
        f.framework.to_corpora(make_series(600, 1));
    for (dx::Corpus& c : corpora) std::reverse(c.begin(), c.end());
    dm::TranslationConfig cfg = f.cfg.miner.translation;
    cfg.trainer.steps = 40;
    dc::MvrGraph out(f.framework.graph().sensor_names());
    for (dc::MvrEdge e : f.framework.graph().edges()) {
      if (e.model) {
        e.model = std::make_shared<dm::TranslationModel>(
            dm::train_translation_model(corpora[e.src], corpora[e.dst], cfg,
                                        11));
      }
      out.add_edge(std::move(e));
    }
    return out;
  }();
  return graph;
}

/// The fixture's graph with its last model edge swapped for the reversed
/// graph's model of the same pair: that edge disagrees with both of its
/// sensors' vocabularies, which earlier edges fix.
struct ForeignEdge {
  dc::MvrGraph graph;
  std::size_t index = 0;
};

ForeignEdge foreign_edge_graph() {
  const dc::MvrGraph& own = fixture().framework.graph();
  ForeignEdge out{dc::MvrGraph(own.sensor_names()), 0};
  for (std::size_t i = 0; i < own.edges().size(); ++i) {
    if (own.edges()[i].model) out.index = i;
  }
  std::set<std::size_t> touched;
  for (std::size_t i = 0; i < own.edges().size(); ++i) {
    dc::MvrEdge e = own.edges()[i];
    if (i == out.index) {
      EXPECT_TRUE(touched.count(e.src) && touched.count(e.dst));
      e.model = reversed_graph().edges()[i].model;
      EXPECT_FALSE(e.model->src_vocab() == own.edges()[i].model->src_vocab());
    } else if (e.model) {
      touched.insert(e.src);
      touched.insert(e.dst);
    }
    out.graph.add_edge(std::move(e));
  }
  return out;
}

/// Save `graph` with the fixture's encrypter and config as a v4 artifact.
void save_graph(const dc::MvrGraph& graph, const std::string& path) {
  const Fixture& f = fixture();
  dc::Framework framework(f.cfg);
  framework.restore(f.framework.encrypter(), graph);
  dio::save_framework(framework, path);
}

struct WindowResultLite {
  double score = 0.0;
  Pairs broken;
  Pairs failed;
};

}  // namespace

TEST(EdgeScorer, FixtureExercisesChunkingAndFanOut) {
  // The differential tests below only exercise chunked decoding if some
  // valid edge's source has more distinct sentences than one decode holds,
  // and only catch a wrong fan-out (a window scored with another window's
  // decode) if some model's translation depends on its source.
  auto& f = fixture();
  const auto corpora = f.framework.to_corpora(make_series(600, 5));
  EXPECT_GT(widest_edge(f, corpora).second, dm::kMaxDecodeRows);
  std::size_t most_outputs = 0;
  for (const dc::MvrEdge& e : f.framework.graph().edges()) {
    if (!e.model) continue;
    std::set<dx::Sentence> outputs;
    for (const dx::Sentence& s : corpora[e.src]) {
      outputs.insert(e.model->translate(s));
    }
    most_outputs = std::max(most_outputs, outputs.size());
  }
  EXPECT_GT(most_outputs, 1u);
}

TEST(EdgeScorer, BatchOnlineAndServeAgreeStrict) {
  auto& f = fixture();
  const auto series = make_series(600, 5);
  const dc::DetectionResult batch = f.framework.detect(series);
  const std::vector<Verdict> expected = batch_verdicts(batch);
  expect_same(expected, online_verdicts(f, series, f.cfg.detector, {}),
              "online");
  expect_same(expected, served_verdicts(f, series, f.cfg.detector, {}),
              "serve");
  expect_edge_bleu_matches_per_window(f, f.framework.to_corpora(series),
                                      nullptr, batch);
}

TEST(EdgeScorer, BatchOnlineAndServeAgreeDegraded) {
  auto& f = fixture();
  const auto series = make_series(600, 6, 200, 360);
  dc::DegradedConfig degraded;
  degraded.enabled = true;
  const dc::DetectionResult batch =
      f.framework.detect_degraded(series, degraded.health);
  const std::vector<Verdict> expected = batch_verdicts(batch);
  std::size_t masked = 0, quorum_lost = 0;
  for (std::size_t t = 0; t < batch.coverage.size(); ++t) {
    masked += batch.coverage[t] < 1.0;
    quorum_lost += batch.degraded[t];
  }
  EXPECT_GT(masked, 0u);
  EXPECT_GT(quorum_lost, 0u);
  expect_same(expected, online_verdicts(f, series, f.cfg.detector, degraded),
              "online");
  expect_same(expected, served_verdicts(f, series, f.cfg.detector, degraded),
              "serve");

  const dc::HealthMask mask = dc::window_health_mask(
      f.framework.encrypter(), f.cfg.window, series, degraded.health);
  expect_edge_bleu_matches_per_window(f, f.framework.to_corpora(series),
                                      &mask, batch);
}

TEST(EdgeScorer, CountersTrackScoredPairsAndDecodes) {
  auto& f = fixture();
  // A cold detector: the fixture's own has memoised these sentences.
  dc::Framework cold(f.cfg);
  cold.restore(f.framework.encrypter(), f.framework.graph());
  const auto series = make_series(600, 6, 200, 360);
  desmine::obs::MetricsRegistry& m = desmine::obs::metrics();
  const auto scored0 = m.counter("detector.edge_windows_scored").value();
  const auto decoded0 = m.counter("detector.decoded").value();
  const dc::DetectionResult r =
      cold.detect_degraded(series, dc::DegradedConfig{}.health);

  std::uint64_t pairs = 0;
  for (std::size_t t = 0; t < r.coverage.size(); ++t) {
    pairs += static_cast<std::uint64_t>(
        r.coverage[t] * static_cast<double>(r.valid_edges.size()) + 0.5);
  }
  const auto scored =
      m.counter("detector.edge_windows_scored").value() - scored0;
  const auto decoded = m.counter("detector.decoded").value() - decoded0;
  EXPECT_EQ(scored, pairs);
  EXPECT_LT(scored, r.coverage.size() * r.valid_edges.size());
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, scored);  // periodic sensors repeat sentences

  // The second call answers every scored pair from the edges' memos.
  const auto hits0 = m.counter("detector.memo.hits").value();
  const auto decoded1 = m.counter("detector.decoded").value();
  (void)cold.detect_degraded(series, dc::DegradedConfig{}.health);
  EXPECT_EQ(m.counter("detector.decoded").value(), decoded1);
  EXPECT_EQ(m.counter("detector.memo.hits").value() - hits0, pairs);
}

TEST(EdgeScorer, CacheHitsMatchFreshDecodesAndEvict) {
  auto& f = fixture();
  auto corpora = f.framework.to_corpora(make_series(300, 8));
  const dc::MvrEdge* edge = widest_edge(f, corpora).first;
  ASSERT_NE(edge, nullptr);
  // Every window twice, each occurrence encoded on its own: the repeated
  // (candidate, reference) pairs, with equal references in distinct
  // objects, share one sentence BLEU.
  for (dx::Corpus& c : corpora) {
    const dx::Corpus once = c;
    c.insert(c.end(), once.begin(), once.end());
  }
  const Items items(*edge->model, corpora[edge->src], corpora[edge->dst]);
  const auto model = [edge] { return edge->model; };
  const dc::EdgeScorer uncached({});
  const dc::EdgeScorer::Result fresh =
      uncached.score(model, items.sources, items.references);

  dc::EdgeScorer::Options small;
  small.cache_capacity = 4;
  const dc::EdgeScorer cached(small);
  dc::DecodeCache cache;
  const dc::EdgeScorer::Result first =
      cached.score(model, items.sources, items.references, &cache);
  const dc::EdgeScorer::Result second =
      cached.score(model, items.sources, items.references, &cache);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.decoded, fresh.decoded);
  EXPECT_GT(first.cache_evictions, 0u);
  EXPECT_LE(cache.size(), small.cache_capacity);
  EXPECT_GT(second.cache_hits, 0u);
  EXPECT_LT(second.decoded, fresh.decoded);
  std::set<std::pair<std::vector<std::int32_t>, std::vector<std::uint32_t>>>
      pairs;
  for (std::size_t k = 0; k < items.sources.size(); ++k) {
    pairs.emplace(items.sources[k]->input, items.references[k]->profile.ids);
    // Per item: the profile of its own decode against its own reference.
    const std::vector<std::vector<std::int32_t>> decoded =
        edge->model->translate_ids({&items.sources[k]->input});
    std::vector<std::uint32_t> candidate;
    for (const std::int32_t id : decoded.front()) {
      if (!dx::Vocabulary::structural(id)) {
        candidate.push_back(static_cast<std::uint32_t>(id));
      }
    }
    const double profiles =
        dx::sentence_bleu(dx::ngram_profile(std::move(candidate), 4),
                          items.references[k]->profile)
            .score;
    const double strings = dx::sentence_bleu(
        edge->model->translate(corpora[edge->src][k]),
        corpora[edge->dst][k]).score;
    EXPECT_EQ(bits(fresh.bleu[k]), bits(profiles)) << k;
    EXPECT_EQ(bits(fresh.bleu[k]), bits(strings)) << k;
    EXPECT_EQ(bits(first.bleu[k]), bits(fresh.bleu[k])) << k;
    EXPECT_EQ(bits(second.bleu[k]), bits(fresh.bleu[k])) << k;
  }
  EXPECT_LE(2 * pairs.size(), items.sources.size());
}

TEST(EdgeScorer, SourcesDifferingOnlyInUnknownTokensShareOneCacheEntry) {
  auto& f = fixture();
  const auto corpora = f.framework.to_corpora(make_series(300, 8));
  const dc::MvrEdge* edge = widest_edge(f, corpora).first;
  ASSERT_NE(edge, nullptr);
  dx::Sentence a = corpora[edge->src].front();
  dx::Sentence b = a;
  ASSERT_GE(a.size(), 2u);
  a[1] = "never-seen-1";
  b[1] = "never-seen-2";
  // References with unknown tokens and literal specials, which must count
  // as themselves: "<unk>" matches a decoded <unk>, an unknown word nothing.
  dx::Sentence ref_a = corpora[edge->dst].front();
  dx::Sentence ref_b = ref_a;
  ref_a[0] = "never-seen-3";
  ref_b[0] = "<unk>";
  ref_b.push_back("<s>");
  ref_b.push_back("never-seen-3");
  ref_b.push_back("never-seen-3");

  const Items items(*edge->model, {a, b}, {ref_a, ref_b});
  ASSERT_EQ(items.encoded_sources[0].input, items.encoded_sources[1].input);
  dc::DecodeCache cache;
  const dc::EdgeScorer::Result r =
      dc::EdgeScorer({}).score([edge] { return edge->model; },
                               items.sources, items.references, &cache);
  EXPECT_EQ(r.decoded, 1u);
  EXPECT_EQ(cache.size(), 1u);
  const dx::Sentence cand_a = edge->model->translate(a);
  EXPECT_EQ(cand_a, edge->model->translate(b));
  EXPECT_EQ(bits(r.bleu[0]), bits(dx::sentence_bleu(cand_a, ref_a).score));
  EXPECT_EQ(bits(r.bleu[1]), bits(dx::sentence_bleu(cand_a, ref_b).score));
}

TEST(DecodeCache, SourcesThatDecodeAlikeShareOneCandidate) {
  auto& f = fixture();
  const auto corpora = f.framework.to_corpora(make_series(600, 5));
  const dc::MvrEdge* edge = widest_edge(f, corpora).first;
  ASSERT_NE(edge, nullptr);
  const Items items(*edge->model, corpora[edge->src], corpora[edge->dst]);
  dc::DecodeCache cache;
  const dc::EdgeScorer::Result r = dc::EdgeScorer({}).score(
      [edge] { return edge->model; }, items.sources, items.references,
      &cache);
  ASSERT_EQ(cache.size(), r.decoded);
  std::set<std::vector<std::uint32_t>> candidates;
  for (const dc::EncodedSentence* source : items.sources) {
    const std::uint32_t c = cache.find(*source);
    ASSERT_NE(c, dc::DecodeCache::kMiss);
    candidates.insert(cache.candidate(c).ids);
  }
  // One stored candidate per distinct decode, fewer than the sources.
  EXPECT_EQ(cache.candidates(), candidates.size());
  EXPECT_LT(cache.candidates(), cache.size());
}

TEST(DecodeCache, ComparesSourcesByContentAtEveryKeyWidth) {
  // A vocabulary past 16-bit ids: sources pack at 8, 16 and 32 bits.
  dx::Sentence words;
  for (int i = 0; i < 70000; ++i) words.push_back("w" + std::to_string(i));
  const dx::Vocabulary vocab = dx::Vocabulary::build({words});
  const std::vector<dx::Sentence> sentences = {
      {"w1", "w2"},  {"w2", "w1"},    {"w1", "w2", "w1"}, {"w300", "w1"},
      {"w69990"},    {"w69990", "w5"}, {"w5", "w69990"}};
  std::vector<dc::EncodedSentence> sources;
  for (const dx::Sentence& s : sentences) {
    sources.push_back(dc::encode_sentence(vocab, s, 4));
  }
  ASSERT_GT(sources[4].input.front(), 0xFFFF);
  // Two sources on one hash: only their ids tell them apart.
  dc::EncodedSentence twin = dc::encode_sentence(vocab, {"w7", "w8"}, 4);
  twin.input_hash = sources[0].input_hash;

  dc::DecodeCache cache;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(cache.find(sources[i]), dc::DecodeCache::kMiss) << i;
    // Candidate i repeats id i + 4, so every source has its own.
    cache.insert(sources[i],
                 dx::ngram_profile(std::vector<std::uint32_t>(
                                       3, static_cast<std::uint32_t>(i + 4)),
                                   4));
  }
  EXPECT_EQ(cache.find(twin), dc::DecodeCache::kMiss);
  cache.insert(twin, dx::ngram_profile({70001}, 4));
  ASSERT_EQ(cache.size(), sources.size() + 1);
  ASSERT_EQ(cache.candidates(), sources.size() + 1);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::uint32_t c = cache.find(sources[i]);
    ASSERT_NE(c, dc::DecodeCache::kMiss) << i;
    EXPECT_EQ(cache.candidate(c).ids,
              std::vector<std::uint32_t>(3, static_cast<std::uint32_t>(i + 4)))
        << i;
  }
  EXPECT_EQ(cache.candidate(cache.find(twin)).ids,
            std::vector<std::uint32_t>{70001});
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.candidates(), 0u);
  EXPECT_EQ(cache.find(sources[4]), dc::DecodeCache::kMiss);
}

TEST(DecodeCache, StoresAFullEpochInUnder64BytesPerSource) {
  // 4096 distinct 20-word sentences over a 200-word vocabulary, decoding
  // to 16 candidates: the shape of a sensor edge's memo at capacity.
  dx::Sentence words;
  for (int i = 0; i < 200; ++i) words.push_back("w" + std::to_string(i));
  const dx::Vocabulary vocab = dx::Vocabulary::build({words});
  Rng rng(17);
  dc::DecodeCache cache;
  std::set<std::vector<std::int32_t>> seen;
  while (cache.size() < 4096) {
    dx::Sentence s;
    for (int w = 0; w < 20; ++w) s.push_back(words[rng.uniform_int(0, 199)]);
    const dc::EncodedSentence source = dc::encode_sentence(vocab, s, 4);
    if (!seen.insert(source.input).second) continue;
    std::vector<std::uint32_t> candidate(20, 4 + cache.size() % 16);
    cache.insert(source, dx::ngram_profile(std::move(candidate), 4));
  }
  EXPECT_EQ(cache.candidates(), 16u);
  EXPECT_LE(cache.bytes(), 64u * cache.size());
}

TEST(DecodeCache, PairsDieWithTheirCandidateEpoch) {
  auto& f = fixture();
  const auto corpora = f.framework.to_corpora(make_series(300, 8));
  const dc::MvrEdge* edge = widest_edge(f, corpora).first;
  ASSERT_NE(edge, nullptr);
  const Items items(*edge->model, corpora[edge->src], corpora[edge->dst]);
  const auto model = [edge] { return edge->model; };
  const dc::EdgeScorer::Result fresh =
      dc::EdgeScorer({}).score(model, items.sources, items.references);

  // Calls that memoise candidates, then their pairs, then answer from the
  // pairs: every f keeps the uncached bits, with epoch clears (capacity 4)
  // and without (the default capacity).
  for (const std::size_t capacity :
       {std::size_t{4}, dc::EdgeScorer::Options{}.cache_capacity}) {
    dc::EdgeScorer::Options options;
    options.cache_capacity = capacity;
    const dc::EdgeScorer scorer(options);
    dc::DecodeCache cache(dc::DecodeCache::Pairs::kOn);
    std::size_t evictions = 0;
    dc::EdgeScorer::Result r;
    for (int call = 0; call < 3; ++call) {
      r = scorer.score(model, items.sources, items.references, &cache);
      evictions += r.cache_evictions;
      EXPECT_LE(cache.size(), capacity);
      EXPECT_LE(cache.pairs(), capacity);
      for (std::size_t k = 0; k < items.sources.size(); ++k) {
        EXPECT_EQ(bits(r.bleu[k]), bits(fresh.bleu[k]))
            << "capacity " << capacity << ", call " << call << ", item " << k;
      }
    }
    if (capacity == 4) {
      EXPECT_GT(evictions, 0u);
    } else {
      EXPECT_EQ(evictions, 0u);
      EXPECT_EQ(r.decoded, 0u);
      EXPECT_EQ(r.pair_hits, items.sources.size());
    }
  }

  // Candidate indices restart after clear(): a pair of the old epoch must
  // not answer for the new candidate that reuses its index.
  const dc::EncodedSentence ref = *items.references.front();
  dc::EncodedSentence other = *items.references.back();
  other.profile = dx::ngram_profile({7, 7, 7}, 4);  // on ref's hash
  other.profile_hash = ref.profile_hash;
  dc::DecodeCache cache(dc::DecodeCache::Pairs::kOn);
  cache.insert(*items.sources.front(), dx::ngram_profile({4, 5}, 4));
  double bleu = 0.0;
  EXPECT_FALSE(cache.find_pair(0, ref, &bleu));
  cache.insert_pair(0, ref, 0.25);
  ASSERT_TRUE(cache.find_pair(0, ref, &bleu));
  EXPECT_EQ(bleu, 0.25);
  EXPECT_FALSE(cache.find_pair(0, other, &bleu));  // same hash, other ids
  EXPECT_FALSE(cache.find_pair(1, ref, &bleu));
  const std::size_t with_pair = cache.bytes();
  cache.clear();
  EXPECT_EQ(cache.pairs(), 0u);
  cache.insert(*items.sources.back(), dx::ngram_profile({6}, 4));
  EXPECT_FALSE(cache.find_pair(0, ref, &bleu));
  EXPECT_LE(cache.bytes(), with_pair);

  // A memo without pairs keeps none.
  dc::DecodeCache plain;
  EXPECT_FALSE(plain.keeps_pairs());
  (void)dc::EdgeScorer({}).score(model, items.sources, items.references,
                                 &plain);
  const dc::EdgeScorer::Result again = dc::EdgeScorer({}).score(
      model, items.sources, items.references, &plain);
  EXPECT_EQ(plain.pairs(), 0u);
  EXPECT_EQ(again.pair_hits, 0u);
  EXPECT_EQ(again.cache_hits, items.sources.size());
}

TEST(DecodeCache, StoresAFullPairEpochInUnder48BytesPerPair) {
  // 4096 pairs of 16 candidates and distinct 20-word references over a
  // 200-word vocabulary: the shape of a detector edge's pair table at
  // capacity.
  dx::Sentence words;
  for (int i = 0; i < 200; ++i) words.push_back("w" + std::to_string(i));
  const dx::Vocabulary vocab = dx::Vocabulary::build({words});
  Rng rng(19);
  const auto sentence = [&] {
    dx::Sentence s;
    for (int w = 0; w < 20; ++w) s.push_back(words[rng.uniform_int(0, 199)]);
    return dc::encode_sentence(vocab, s, 4);
  };
  dc::DecodeCache cache(dc::DecodeCache::Pairs::kOn);
  for (std::uint32_t c = 0; c < 16; ++c) {
    cache.insert(sentence(), dx::ngram_profile({4 + c}, 4));
  }
  ASSERT_EQ(cache.candidates(), 16u);
  const std::size_t sources = cache.bytes();
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<dc::EncodedSentence> references;
  while (cache.pairs() < 4096) {
    dc::EncodedSentence ref = sentence();
    if (!seen.insert(ref.profile.ids).second) continue;
    const auto c = static_cast<std::uint32_t>(cache.pairs() % 16);
    cache.insert_pair(c, ref, c + 0.5);
    references.push_back(std::move(ref));
  }
  for (std::size_t i = 0; i < references.size(); i += 97) {
    double f = 0.0;
    const auto c = static_cast<std::uint32_t>(i % 16);
    ASSERT_TRUE(cache.find_pair(c, references[i], &f)) << i;
    EXPECT_EQ(f, c + 0.5) << i;
  }
  EXPECT_LE(cache.bytes() - sources, 48u * cache.pairs());
}

TEST(EdgeScorer, HeapGraphWithForeignEdgeVocabularyIsRejected) {
  auto& f = fixture();
  const ForeignEdge bad = foreign_edge_graph();
  const std::size_t sensor = bad.graph.edges()[bad.index].src;
  try {
    const dc::AnomalyDetector detector(bad.graph, f.cfg.detector);
    FAIL() << "expected robust::VocabularyMismatch";
  } catch (const desmine::robust::VocabularyMismatch& e) {
    EXPECT_EQ(e.sensor(), sensor);
    EXPECT_EQ(e.src(), bad.graph.edges()[bad.index].src);
    EXPECT_EQ(e.dst(), bad.graph.edges()[bad.index].dst);
  }

  // A Framework restored on the graph still saves it (serve then fails the
  // edge alone, below); its detector is built by detect, which rejects the
  // graph on every call.
  dc::Framework restored(f.cfg);
  restored.restore(f.framework.encrypter(), bad.graph);
  const std::string artifact = "/tmp/desmine_test_edge_scorer_restored.bin";
  EXPECT_NO_THROW(dio::save_framework(restored, artifact));
  std::remove(artifact.c_str());
  const auto series = make_series(300, 5);
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(restored.detect(series), desmine::robust::VocabularyMismatch)
        << "call " << call;
  }
}

TEST(EdgeScorer, MappedForeignEdgeFailsAloneAndTripsItsBreaker) {
  auto& f = fixture();
  const ForeignEdge bad = foreign_edge_graph();
  const dc::MvrEdge& foreign = bad.graph.edges()[bad.index];
  const std::string artifact = "/tmp/desmine_test_edge_scorer_foreign.bin";
  save_graph(bad.graph, artifact);

  const auto series = make_series(600, 5);
  const dc::DetectionResult batch = f.framework.detect(series);
  desmine::obs::Counter& opened =
      desmine::obs::metrics().counter("serve.circuit.opened");
  const auto opened0 = opened.value();

  ds::ServeConfig scfg;
  scfg.detector = f.cfg.detector;
  scfg.workers = 2;
  scfg.max_batch = 8;
  scfg.limits.max_pending_windows = series.front().events.size();
  std::vector<WindowResultLite> served;
  {
    ds::SessionManager manager(artifact, scfg);
    const std::uint64_t id = manager.open();
    for (std::size_t t = 0; t < series.front().events.size(); ++t) {
      manager.ingest(id, tick_states(series, t));
    }
    manager.drain(id);
    while (const auto r = manager.poll(id)) {
      served.push_back({r->anomaly_score, r->broken, r->failed});
    }
  }
  std::remove(artifact.c_str());
  EXPECT_GT(opened.value(), opened0);

  // Every window drops exactly the foreign edge and renormalizes over the
  // rest, whose f(i,j) match batch detection on the fixture's own models.
  ASSERT_EQ(served.size(), batch.anomaly_scores.size());
  const Pairs failed = {{foreign.src, foreign.dst}};
  for (std::size_t t = 0; t < served.size(); ++t) {
    EXPECT_EQ(served[t].failed, failed) << t;
    Pairs broken;
    std::size_t surviving = 0;
    for (std::size_t e = 0; e < batch.valid_edges.size(); ++e) {
      const dc::MvrEdge& edge = batch.valid_edges[e];
      if (edge.src == foreign.src && edge.dst == foreign.dst) continue;
      ++surviving;
      if (batch.edge_bleu[e][t] < edge.bleu - f.cfg.detector.tolerance) {
        broken.emplace_back(edge.src, edge.dst);
      }
    }
    const double expected = static_cast<double>(broken.size()) /
                            static_cast<double>(surviving);
    EXPECT_EQ(bits(served[t].score), bits(expected)) << t;
    Pairs got = served[t].broken;
    std::sort(got.begin(), got.end());
    std::sort(broken.begin(), broken.end());
    EXPECT_EQ(got, broken) << t;
  }
}

TEST(EdgeScorer, ShadowCandidateScoresWithItsOwnVocabularies) {
  auto& f = fixture();
  const dc::MvrGraph& candidate_graph = reversed_graph();
  const std::string candidate_path =
      "/tmp/desmine_test_edge_scorer_reversed.bin";
  save_graph(candidate_graph, candidate_path);
  const auto active = ds::make_generation(dio::ArtifactMap::open(f.artifact),
                                          f.cfg.detector, 1, {});
  const auto candidate = ds::make_generation(
      dio::ArtifactMap::open(candidate_path), f.cfg.detector, 2, {});
  std::size_t differing = 0;
  for (std::size_t k = 0; k < active->vocabularies.size(); ++k) {
    ASSERT_NE(candidate->vocabularies[k], nullptr);
    differing += *candidate->vocabularies[k] != *active->vocabularies[k];
  }
  EXPECT_GT(differing, 0u);

  // Strict samples, and masked samples without `noise`: 2 of the 6 edges
  // survive, below the default quorum, under a tolerance that breaks every
  // surviving edge — the candidate must give those windows no verdict, as
  // serving would.
  const auto& kept = f.framework.encrypter().kept_sensors();
  const std::size_t noise = static_cast<std::size_t>(
      std::find(kept.begin(), kept.end(), "noise") - kept.begin());
  ASSERT_LT(noise, kept.size());
  dc::DetectorConfig breaking = f.cfg.detector;
  breaking.tolerance = -101.0;  // f < s + 101 holds for every scored edge
  struct Case {
    const char* name;
    dc::DetectorConfig detector;
    std::vector<std::size_t> unhealthy;  ///< every window's; masked if set
  };
  const std::vector<Case> cases = {{"strict", f.cfg.detector, {}},
                                   {"masked", breaking, {noise}}};
  const dc::MultivariateSeries series = make_series(300, 4);
  const auto corpora = f.framework.to_corpora(series);
  ds::ShadowConfig scfg;
  scfg.sample_rate = 1.0;
  for (const Case& c : cases) {
    ds::ShadowScorer shadow(
        ds::make_generation(dio::ArtifactMap::open(candidate_path),
                            c.detector, 2, {}),
        scfg, "reversed");
    const dc::HealthMask mask(corpora.front().size(), c.unhealthy);
    dc::DetectOptions options;
    if (!c.unhealthy.empty()) options.unhealthy = &mask;
    const dc::DetectionResult expected = dor::detect_strings(
        dc::AnomalyDetector(candidate_graph, c.detector), corpora, options);
    double sum = 0.0;
    std::size_t alerts = 0, degraded = 0;
    for (std::size_t t = 0; t < expected.anomaly_scores.size(); ++t) {
      ds::ShadowSample sample;
      sample.spans = window_spans(f.framework, series, t);
      sample.unhealthy = c.unhealthy;
      sample.masked = !c.unhealthy.empty();
      shadow.observe(std::move(sample));
      sum += expected.anomaly_scores[t];
      alerts += expected.anomaly_scores[t] >= scfg.alert_threshold;
      degraded += expected.degraded[t];
    }
    EXPECT_EQ(degraded, c.unhealthy.empty() ? 0u : corpora.front().size())
        << c.name;
    const ds::ShadowScorer::Status st = shadow.status();
    EXPECT_EQ(st.failures, 0u) << c.name;
    EXPECT_EQ(st.candidate_alerts, alerts) << c.name;
    EXPECT_EQ(bits(st.candidate_mean),
              bits(sum / static_cast<double>(expected.anomaly_scores.size())))
        << c.name;
  }
  std::remove(candidate_path.c_str());
}

TEST(EdgeScorer, ShadowMemoDecodesARepeatedSampleNoMore) {
  auto& f = fixture();
  const dc::MultivariateSeries series = make_series(300, 4);
  ds::ShadowConfig scfg;
  scfg.sample_rate = 1.0;
  ds::ShadowScorer shadow(
      ds::make_generation(dio::ArtifactMap::open(f.artifact), f.cfg.detector,
                          2, {}),
      scfg, "own");
  const auto sample = [&] {
    ds::ShadowSample s;
    s.spans = window_spans(f.framework, series, 0);
    return s;
  };
  desmine::obs::Counter& decoded =
      desmine::obs::metrics().counter("serve.shadow.decoded");
  const std::uint64_t before = decoded.value();
  shadow.observe(sample());
  const std::uint64_t first = decoded.value() - before;
  EXPECT_GT(first, 0u);
  const double mean = shadow.status().candidate_mean;

  // The candidate's edges memoised the first sample's decodes: the same
  // sample again decodes nothing and scores the same bits.
  shadow.observe(sample());
  EXPECT_EQ(decoded.value() - before, first);
  EXPECT_EQ(shadow.status().sampled, 2u);
  EXPECT_EQ(bits(shadow.status().candidate_mean), bits(mean));
}

TEST(EdgeScorer, DecodeLeavesModelArenasEmptyAndThreadArenaWarm) {
  auto& f = fixture();
  dc::FrameworkConfig overlay = f.cfg;
  overlay.detector.threads = 1;  // score on this thread, on its arena
  const dc::Framework loaded = dio::load_framework(f.artifact, overlay);

  const auto series = make_series(600, 9);
  const dc::DetectionResult first = loaded.detect(series);
  const std::uint64_t grows = dt::thread_workspace().stats().grows;
  // The edges' memos hold the first series' decodes: a series with new
  // noise-sensor sentences still decodes, on the warm arena.
  desmine::obs::Counter& decoded =
      desmine::obs::metrics().counter("detector.decoded");
  const std::uint64_t decoded0 = decoded.value();
  (void)loaded.detect(make_series(600, 10));
  EXPECT_GT(decoded.value(), decoded0);
  EXPECT_EQ(dt::thread_workspace().stats().grows, grows);
  EXPECT_GT(dt::thread_workspace().stats().bytes_reserved, 0u);
  expect_same(batch_verdicts(first), batch_verdicts(loaded.detect(series)),
              "memoised call");

  std::size_t models = 0;
  for (const dc::MvrEdge& e : loaded.graph().edges()) {
    if (!e.model) continue;
    ++models;
    EXPECT_EQ(e.model->model().workspace().stats().bytes_reserved, 0u)
        << e.src << "->" << e.dst;
  }
  EXPECT_GT(models, 0u);
}
