// End-to-end tests of the Framework facade on a small synthetic plant:
// fit -> graph -> detect, plus corpus alignment plumbing. A Framework keeps
// one detector, and with it one decode memo per edge, across detect calls:
// repeated, concurrent and degraded calls must match a fresh AnomalyDetector
// bit for bit, a second call on a chunk must decode nothing, a third must
// answer every (candidate, reference) pair from the memos, copies must
// share the memos and fit()/restore() drop them, and a warm pool must
// decode a fresh chunk without growing any arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "core/online.h"
#include "data/plant.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/errors.h"
#include "string_oracle.h"
#include "tensor/workspace.h"
#include "util/error.h"

namespace dc = desmine::core;
namespace dd = desmine::data;
namespace dt = desmine::tensor;
namespace dor = desmine::oracle;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Every double of two detection results compared by its bit pattern.
void expect_bitwise_equal(const dc::DetectionResult& expected,
                          const dc::DetectionResult& actual,
                          const char* what) {
  ASSERT_EQ(expected.anomaly_scores.size(), actual.anomaly_scores.size())
      << what;
  ASSERT_EQ(expected.valid_edges.size(), actual.valid_edges.size()) << what;
  for (std::size_t e = 0; e < expected.valid_edges.size(); ++e) {
    EXPECT_EQ(expected.valid_edges[e].src, actual.valid_edges[e].src) << what;
    EXPECT_EQ(expected.valid_edges[e].dst, actual.valid_edges[e].dst) << what;
  }
  for (std::size_t t = 0; t < expected.anomaly_scores.size(); ++t) {
    EXPECT_EQ(bits(expected.anomaly_scores[t]), bits(actual.anomaly_scores[t]))
        << what << " window " << t;
    EXPECT_EQ(bits(expected.coverage[t]), bits(actual.coverage[t]))
        << what << " window " << t;
    EXPECT_EQ(expected.degraded[t], actual.degraded[t])
        << what << " window " << t;
    EXPECT_EQ(expected.broken_edges[t], actual.broken_edges[t])
        << what << " window " << t;
    for (std::size_t e = 0; e < expected.edge_bleu.size(); ++e) {
      EXPECT_EQ(bits(expected.edge_bleu[e][t]), bits(actual.edge_bleu[e][t]))
          << what << " edge " << e << " window " << t;
    }
  }
}

/// Small-but-real pipeline settings: tiny NMT models, short sentences.
dc::FrameworkConfig fast_config() {
  dc::FrameworkConfig cfg;
  cfg.window.word_length = 5;
  cfg.window.word_stride = 1;
  cfg.window.sentence_length = 6;
  cfg.window.sentence_stride = 6;

  cfg.miner.translation.model.embedding_dim = 24;
  cfg.miner.translation.model.hidden_dim = 24;
  cfg.miner.translation.model.num_layers = 1;
  cfg.miner.translation.model.dropout = 0.1f;
  cfg.miner.translation.model.max_decode_length = 8;
  cfg.miner.translation.trainer.steps = 300;
  cfg.miner.translation.trainer.batch_size = 8;
  cfg.miner.translation.trainer.lr = 0.02f;
  cfg.miner.seed = 99;

  cfg.detector.valid_lo = 0.0;  // all models valid in the small test
  cfg.detector.valid_hi = 100.5;
  cfg.detector.tolerance = 10.0;
  return cfg;
}

dd::PlantConfig plant_config() {
  dd::PlantConfig cfg;
  cfg.num_components = 2;
  cfg.sensors_per_component = 2;
  cfg.num_popular = 0;
  cfg.num_lazy = 0;
  cfg.num_constant = 1;
  cfg.days = 6;
  cfg.minutes_per_day = 240;
  cfg.anomalies = {{5, {0}}};
  cfg.precursors = false;
  cfg.noise = 0.004;
  cfg.seed = 123;
  return cfg;
}

struct Pipeline {
  dd::PlantDataset plant;
  dc::Framework framework;

  Pipeline() : plant(dd::generate_plant(plant_config())),
               framework(fast_config()) {
    // Days 0-2 train, day 3 dev; days 4-5 test (anomaly on day 5).
    framework.fit(plant.days_slice(0, 3), plant.days_slice(3, 1));
  }
};

Pipeline& shared_pipeline() {
  static Pipeline p;  // fit once; reused across tests (read-only)
  return p;
}

/// The events of `sensor` in `series`.
dc::EventSequence& events_of(dc::MultivariateSeries& series,
                             const std::string& sensor) {
  const auto it =
      std::find_if(series.begin(), series.end(),
                   [&](const dc::SensorSeries& s) { return s.name == sensor; });
  EXPECT_NE(it, series.end()) << sensor;
  return it->events;
}

/// What a MisalignedCorpus thrown by `call` says; nullopt when none is.
template <typename Call>
std::optional<std::string> misaligned(const Call& call) {
  try {
    (void)call();
  } catch (const desmine::robust::MisalignedCorpus& e) {
    return e.sensor() + "|" + std::to_string(e.expected()) + "|" +
           std::to_string(e.got()) + "|" + e.what();
  }
  return std::nullopt;
}

}  // namespace

TEST(Framework, RequiresFitBeforeUse) {
  dc::Framework fw(fast_config());
  EXPECT_FALSE(fw.fitted());
  EXPECT_THROW(fw.graph(), desmine::PreconditionError);
  EXPECT_THROW(fw.encrypter(), desmine::PreconditionError);
  EXPECT_THROW(fw.detect({}), desmine::PreconditionError);
}

TEST(Framework, FitBuildsCompleteDirectedGraph) {
  auto& p = shared_pipeline();
  const auto& g = p.framework.graph();
  // 4 informative sensors -> 12 directed edges; constant sensor dropped.
  EXPECT_EQ(g.sensor_count(), 4u);
  EXPECT_EQ(g.edges().size(), 12u);
  EXPECT_EQ(p.framework.encrypter().dropped_sensors().size(), 1u);
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.bleu, 0.0);
    EXPECT_LE(e.bleu, 100.0);
    EXPECT_NE(e.model, nullptr);
    EXPECT_GT(e.runtime_seconds, 0.0);
  }
}

TEST(Framework, WithinComponentBleuExceedsCrossComponent) {
  auto& p = shared_pipeline();
  const auto& g = p.framework.graph();
  double within_sum = 0.0, cross_sum = 0.0;
  std::size_t within_n = 0, cross_n = 0;
  for (const auto& e : g.edges()) {
    const auto cs = p.plant.component_of.at(g.name(e.src));
    const auto cd = p.plant.component_of.at(g.name(e.dst));
    if (cs == cd) {
      within_sum += e.bleu;
      ++within_n;
    } else {
      cross_sum += e.bleu;
      ++cross_n;
    }
  }
  ASSERT_GT(within_n, 0u);
  ASSERT_GT(cross_n, 0u);
  EXPECT_GT(within_sum / within_n, cross_sum / cross_n)
      << "same-component sensors must translate better";
}

TEST(Framework, CorporaAlignedAcrossSensors) {
  auto& p = shared_pipeline();
  const auto corpora = p.framework.to_corpora(p.plant.days_slice(4, 2));
  ASSERT_EQ(corpora.size(), 4u);
  for (const auto& c : corpora) {
    EXPECT_EQ(c.size(), corpora.front().size());
    for (const auto& s : c) EXPECT_EQ(s.size(), 6u);
  }
}

TEST(Framework, DetectsInjectedAnomaly) {
  auto& p = shared_pipeline();
  // Test on days 4 (normal) and 5 (component-0 anomaly).
  const auto result = p.framework.detect(p.plant.days_slice(4, 2));
  const std::size_t windows = result.anomaly_scores.size();
  ASSERT_GT(windows, 2u);

  // First half of windows = day 4 (normal); second half = day 5 (anomalous).
  double normal = 0.0, anomalous = 0.0;
  const std::size_t half = windows / 2;
  for (std::size_t t = 0; t < half; ++t) normal += result.anomaly_scores[t];
  for (std::size_t t = half; t < windows; ++t) {
    anomalous += result.anomaly_scores[t];
  }
  normal /= static_cast<double>(half);
  anomalous /= static_cast<double>(windows - half);
  EXPECT_GT(anomalous, normal)
      << "anomaly windows must break more relationships";
}

TEST(Framework, DetectMissingSensorThrows) {
  auto& p = shared_pipeline();
  dc::MultivariateSeries incomplete = {
      p.plant.series.front()};  // only one sensor
  EXPECT_THROW(p.framework.detect(incomplete), desmine::PreconditionError);
}

TEST(Framework, FitRequiresTwoInformativeSensors) {
  dc::Framework fw(fast_config());
  dc::MultivariateSeries only_constant = {
      {"c", dc::EventSequence(500, "OFF")},
      {"d", dc::EventSequence(500, "ON")},
  };
  EXPECT_THROW(fw.fit(only_constant, only_constant),
               desmine::PreconditionError);
}

TEST(Framework, RepeatedAndConcurrentDetectMatchAFreshDetector) {
  auto& p = shared_pipeline();
  dc::Framework fw = p.framework;
  const dc::MultivariateSeries series = p.plant.days_slice(4, 2);
  const dc::DetectorConfig& cfg = fw.config().detector;
  const dc::DetectionResult fresh =
      dor::detect_strings(dc::AnomalyDetector(fw.graph(), cfg),
                          fw.to_corpora(series));
  ASSERT_GT(fresh.valid_edges.size(), 1u);

  for (int call = 0; call < 3; ++call) {
    expect_bitwise_equal(fresh, fw.detect(series), "sequential call");
  }
  std::vector<dc::DetectionResult> concurrent(2);
  {
    std::thread a([&] { concurrent[0] = fw.detect(series); });
    std::thread b([&] { concurrent[1] = fw.detect(series); });
    a.join();
    b.join();
  }
  expect_bitwise_equal(fresh, concurrent[0], "concurrent call 0");
  expect_bitwise_equal(fresh, concurrent[1], "concurrent call 1");

  const desmine::robust::HealthConfig health;
  const dc::HealthMask mask = dc::window_health_mask(
      fw.encrypter(), fw.config().window, series, health);
  dc::DetectOptions options;
  options.unhealthy = &mask;
  expect_bitwise_equal(
      dor::detect_strings(dc::AnomalyDetector(fw.graph(), cfg),
                          fw.to_corpora(series), options),
      fw.detect_degraded(series, health), "degraded call");

  // restore() replaces the detector with one of the new graph, here a
  // single edge. With one valid edge there is no pool: concurrent calls
  // score on their own threads, through the one model. The copy the
  // framework came from keeps its own detector.
  dc::MvrGraph reduced(fw.graph().sensor_names());
  reduced.add_edge(fw.graph().edges().front());
  fw.restore(fw.encrypter(), reduced);
  const dc::DetectionResult single =
      dor::detect_strings(dc::AnomalyDetector(reduced, cfg),
                          fw.to_corpora(series));
  ASSERT_EQ(single.valid_edges.size(), 1u);
  expect_bitwise_equal(single, fw.detect(series), "restored graph");
  {
    std::thread a([&] { concurrent[0] = fw.detect(series); });
    std::thread b([&] { concurrent[1] = fw.detect(series); });
    a.join();
    b.join();
  }
  expect_bitwise_equal(single, concurrent[0], "restored, concurrent call 0");
  expect_bitwise_equal(single, concurrent[1], "restored, concurrent call 1");
  expect_bitwise_equal(fresh, p.framework.detect(series), "original copy");
}

TEST(Framework, SecondDetectOnTheSameChunkDecodesNothing) {
  auto& p = shared_pipeline();
  dc::Framework fw(fast_config());
  fw.restore(p.framework.encrypter(), p.framework.graph());  // cold memos
  const dc::MultivariateSeries chunk = p.plant.days_slice(4, 2);
  desmine::obs::MetricsRegistry& m = desmine::obs::metrics();
  desmine::obs::Counter& decoded = m.counter("detector.decoded");
  desmine::obs::Counter& hits = m.counter("detector.memo.hits");

  const std::uint64_t decoded0 = decoded.value();
  const dc::DetectionResult first = fw.detect(chunk);
  const std::uint64_t decoded1 = decoded.value();
  EXPECT_GT(decoded1, decoded0);
  const std::uint64_t hits1 = hits.value();
  const dc::DetectionResult second = fw.detect(chunk);
  EXPECT_EQ(decoded.value(), decoded1);
  EXPECT_EQ(hits.value() - hits1,
            first.valid_edges.size() * first.anomaly_scores.size());
  expect_bitwise_equal(first, second, "memoised call");
  expect_bitwise_equal(
      dor::detect_strings(
          dc::AnomalyDetector(fw.graph(), fw.config().detector),
          fw.to_corpora(chunk)),
      second, "fresh detector");

  // Degraded calls score a subset of the same pairs: nothing to decode.
  const desmine::robust::HealthConfig health;
  const dc::HealthMask mask = dc::window_health_mask(
      fw.encrypter(), fw.config().window, chunk, health);
  dc::DetectOptions options;
  options.unhealthy = &mask;
  const std::uint64_t decoded2 = decoded.value();
  const dc::DetectionResult degraded = fw.detect_degraded(chunk, health);
  EXPECT_EQ(decoded.value(), decoded2);
  expect_bitwise_equal(
      dor::detect_strings(
          dc::AnomalyDetector(fw.graph(), fw.config().detector),
          fw.to_corpora(chunk), options),
      degraded, "memoised degraded call");
}

TEST(Framework, ThirdDetectOnTheSameChunkRunsNoBleu) {
  auto& p = shared_pipeline();
  dc::Framework fw(fast_config());
  fw.restore(p.framework.encrypter(), p.framework.graph());  // cold memos
  const dc::MultivariateSeries chunk = p.plant.days_slice(4, 2);
  desmine::obs::MetricsRegistry& m = desmine::obs::metrics();
  desmine::obs::Counter& decoded = m.counter("detector.decoded");
  desmine::obs::Counter& hits = m.counter("detector.memo.hits");
  desmine::obs::Counter& pair_hits = m.counter("detector.memo.pair_hits");
  desmine::obs::Gauge& entries = m.gauge("detector.memo.entries");
  desmine::obs::Gauge& bytes = m.gauge("detector.memo.bytes");

  // The first call memoises candidates, the second the pairs of memoised
  // candidates, so the third has every pair and scores none.
  const std::uint64_t pairs0 = pair_hits.value();
  const dc::DetectionResult first = fw.detect(chunk);
  EXPECT_EQ(pair_hits.value(), pairs0);
  const double entries1 = entries.value();
  const double bytes1 = bytes.value();
  const dc::DetectionResult second = fw.detect(chunk);
  EXPECT_GT(entries.value(), entries1);  // the pairs joined the gauges
  EXPECT_GT(bytes.value(), bytes1);
  const std::uint64_t decoded2 = decoded.value();
  const std::uint64_t hits2 = hits.value();
  const std::uint64_t pairs2 = pair_hits.value();
  const dc::DetectionResult third = fw.detect(chunk);
  const std::uint64_t items =
      first.valid_edges.size() * first.anomaly_scores.size();
  ASSERT_GT(items, 0u);
  EXPECT_EQ(decoded.value(), decoded2);
  EXPECT_EQ(hits.value() - hits2, items);
  EXPECT_EQ(pair_hits.value() - pairs2, items);
  expect_bitwise_equal(first, second, "second call");
  expect_bitwise_equal(first, third, "third call");
  const dc::AnomalyDetector cold(fw.graph(), fw.config().detector);
  expect_bitwise_equal(cold.detect(fw.encode(chunk, cold), {}), third,
                       "fresh detector");
  expect_bitwise_equal(
      dor::detect_strings(
          dc::AnomalyDetector(fw.graph(), fw.config().detector),
          fw.to_corpora(chunk)),
      third, "string oracle");

  // A degraded call scores a subset of the same pairs, all memoised.
  const desmine::robust::HealthConfig health;
  const dc::HealthMask mask = dc::window_health_mask(
      fw.encrypter(), fw.config().window, chunk, health);
  dc::DetectOptions options;
  options.unhealthy = &mask;
  const std::uint64_t decoded3 = decoded.value();
  const std::uint64_t pairs3 = pair_hits.value();
  const std::uint64_t scored3 =
      m.counter("detector.edge_windows_scored").value();
  const dc::DetectionResult degraded = fw.detect_degraded(chunk, health);
  EXPECT_EQ(decoded.value(), decoded3);
  EXPECT_EQ(pair_hits.value() - pairs3,
            m.counter("detector.edge_windows_scored").value() - scored3);
  const dc::AnomalyDetector cold_degraded(fw.graph(), fw.config().detector);
  expect_bitwise_equal(
      cold_degraded.detect(fw.encode(chunk, cold_degraded), options),
      degraded, "fresh degraded detector");
  expect_bitwise_equal(
      dor::detect_strings(
          dc::AnomalyDetector(fw.graph(), fw.config().detector),
          fw.to_corpora(chunk), options),
      degraded, "degraded string oracle");
}

TEST(Framework, MemosAreSharedByCopiesAndDroppedByFitAndRestore) {
  auto& p = shared_pipeline();
  dc::Framework fw(fast_config());
  fw.restore(p.framework.encrypter(), p.framework.graph());
  const dc::MultivariateSeries chunk = p.plant.days_slice(4, 2);
  desmine::obs::Counter& decoded =
      desmine::obs::metrics().counter("detector.decoded");
  const auto decodes = [&](const dc::Framework& f) {
    const std::uint64_t before = decoded.value();
    (void)f.detect(chunk);
    return decoded.value() - before;
  };

  const std::uint64_t cold = decodes(fw);
  ASSERT_GT(cold, 0u);
  const dc::Framework copy = fw;
  EXPECT_EQ(decodes(copy), 0u);  // one detector, one set of memos
  dc::Framework restored = fw;
  restored.restore(p.framework.encrypter(), p.framework.graph());
  EXPECT_EQ(decodes(restored), cold);
  dc::Framework refit = fw;
  refit.fit(p.plant.days_slice(0, 3), p.plant.days_slice(3, 1));
  EXPECT_EQ(decodes(refit), cold);
  EXPECT_EQ(decodes(fw), 0u);  // the original keeps its memos
}

TEST(Framework, MemoGaugesSumTheLiveDetectors) {
  auto& p = shared_pipeline();
  desmine::obs::Gauge& entries =
      desmine::obs::metrics().gauge("detector.memo.entries");
  desmine::obs::Gauge& bytes =
      desmine::obs::metrics().gauge("detector.memo.bytes");
  const double entries0 = entries.value();
  const double bytes0 = bytes.value();
  {
    dc::Framework fw(fast_config());
    fw.restore(p.framework.encrypter(), p.framework.graph());
    (void)fw.detect(p.plant.days_slice(4, 1));
    const double one = entries.value() - entries0;
    EXPECT_GT(one, 0.0);
    EXPECT_GT(bytes.value(), bytes0);
    (void)fw.detect(p.plant.days_slice(5, 1));
    EXPECT_GT(entries.value() - entries0, one);
  }
  EXPECT_EQ(entries.value(), entries0);
  EXPECT_EQ(bytes.value(), bytes0);
}

TEST(Framework, WarmPoolDecodesAFreshChunkWithoutGrowingAnArena) {
  auto& p = shared_pipeline();
  // A fresh detector on two pool threads: the first calls start the pool
  // and warm its threads' arenas.
  dc::FrameworkConfig cfg = fast_config();
  cfg.detector.threads = 2;
  dc::Framework fw(cfg);
  fw.restore(p.framework.encrypter(), p.framework.graph());
  const dc::MultivariateSeries chunk = p.plant.days_slice(4, 2);

  // Every edge's decode fits one arena chunk: scored one after another on
  // a fresh thread, they grow its arena once. So a pool thread grows its
  // arena on its first decode only, whichever edges it is handed.
  std::uint64_t one_thread_grows = 0;
  std::thread([&] {
    dc::DetectorConfig serial = cfg.detector;
    serial.threads = 1;
    (void)dor::detect_strings(dc::AnomalyDetector(fw.graph(), serial),
                              fw.to_corpora(chunk));
    one_thread_grows = dt::thread_workspace().stats().grows;
  }).join();
  ASSERT_EQ(one_thread_grows, 1u);

  // Which pool thread scores which edge is up to the scheduler: call until
  // both threads have decoded (their score-edge spans name them and count
  // the edge's decodes). The edges memoise their decodes, so each call
  // scores a training-day slice the memos have not seen: a new start tick
  // shifts every window.
  desmine::obs::Tracer& tracer = desmine::obs::tracer();
  std::set<std::uint64_t> warm;
  tracer.enable();
  const dc::MultivariateSeries train = p.plant.days_slice(0, 4);
  for (std::size_t call = 0; call < 100 && warm.size() < 2; ++call) {
    tracer.reset();
    const std::size_t from = call * 7 % 840;
    (void)fw.detect(dc::slice(train, from, from + 120));
    for (const desmine::obs::SpanRecord& r : tracer.records()) {
      if (r.name != "score-edge") continue;
      for (const desmine::obs::Field& a : r.attrs) {
        if (a.key == "decoded" && a.value != "0") warm.insert(r.thread_id);
      }
    }
  }
  tracer.disable();
  tracer.reset();
  ASSERT_EQ(warm.size(), 2u);

  // The test days still decode, on warm arenas only.
  desmine::obs::MetricsRegistry& m = desmine::obs::metrics();
  desmine::obs::Counter& grows = m.counter("tensor.workspace.grows");
  desmine::obs::Counter& decoded = m.counter("detector.decoded");
  const std::uint64_t before = grows.value();
  const std::uint64_t decoded0 = decoded.value();
  (void)fw.detect(chunk);
  EXPECT_GT(decoded.value(), decoded0);
  EXPECT_EQ(grows.value(), before);
}

TEST(Framework, DetectFromCharacterSpansMatchesStringCorpora) {
  auto& p = shared_pipeline();
  // The test days with states the encrypter never saw: a long stretch of
  // one sensor (unknown words that flood its health tracker) and scattered
  // ticks of another (unknown words amid known ones).
  dc::MultivariateSeries series = p.plant.days_slice(4, 2);
  const std::vector<std::string>& kept = p.framework.encrypter().kept_sensors();
  dc::EventSequence& flooded = events_of(series, kept[0]);
  std::fill(flooded.begin() + 100, flooded.begin() + 220, "never-seen");
  dc::EventSequence& sprinkled = events_of(series, kept[1]);
  for (std::size_t t = 5; t < sprinkled.size(); t += 37) {
    sprinkled[t] = "also-never-seen";
  }

  // Each window configuration cuts the stream differently; word_length
  // stays 5, the graph's words.
  struct Case {
    const char* name;
    std::size_t word_stride, sentence_stride;
  };
  const Case cases[] = {{"default", 1, 6},
                        {"word stride 2", 2, 6},
                        {"overlapping sentences", 1, 3},
                        {"gaps between sentences", 1, 9}};
  const desmine::robust::HealthConfig health;
  for (const Case& c : cases) {
    dc::FrameworkConfig cfg = fast_config();
    cfg.window.word_stride = c.word_stride;
    cfg.window.sentence_stride = c.sentence_stride;
    dc::Framework fw(cfg);
    fw.restore(p.framework.encrypter(), p.framework.graph());
    const std::vector<desmine::text::Corpus> corpora = fw.to_corpora(series);
    ASSERT_GT(corpora.front().size(), 10u) << c.name;
    std::size_t unknown_words = 0;
    for (const desmine::text::Sentence& s : corpora[1]) {
      for (const std::string& w : s) {
        unknown_words += w.find(dc::SensorEncrypter::kUnknownChar) !=
                         std::string::npos;
      }
    }
    EXPECT_GT(unknown_words, 0u) << c.name;

    const dc::AnomalyDetector reference(fw.graph(), cfg.detector);
    expect_bitwise_equal(dor::detect_strings(reference, corpora),
                         fw.detect(series), c.name);

    const dc::HealthMask mask =
        dc::window_health_mask(fw.encrypter(), cfg.window, series, health);
    EXPECT_TRUE(std::any_of(mask.begin(), mask.end(),
                            [](const auto& w) { return !w.empty(); }))
        << c.name;
    dc::DetectOptions options;
    options.unhealthy = &mask;
    expect_bitwise_equal(dor::detect_strings(reference, corpora, options),
                         fw.detect_degraded(series, health), c.name);
  }
}

TEST(Framework, RaggedSensorThrowsTheSameMisalignedCorpus) {
  auto& p = shared_pipeline();
  dc::MultivariateSeries series = p.plant.days_slice(4, 2);
  const std::string& short_sensor = p.framework.encrypter().kept_sensors()[2];
  dc::EventSequence& events = events_of(series, short_sensor);
  events.resize(events.size() - 40);

  const dc::AnomalyDetector reference(p.framework.graph(),
                                      p.framework.config().detector);
  const std::optional<std::string> expected = misaligned(
      [&] {
        return dor::detect_strings(reference, p.framework.to_corpora(series));
      });
  ASSERT_TRUE(expected.has_value());
  EXPECT_NE(expected->find(short_sensor), std::string::npos);
  EXPECT_EQ(misaligned([&] { return p.framework.detect(series); }), expected);
}

TEST(Framework, EncodeChecksItsInputs) {
  auto& p = shared_pipeline();
  const dc::MultivariateSeries series = p.plant.days_slice(4, 1);
  const dc::AnomalyDetector own(p.framework.graph(),
                                p.framework.config().detector);

  const dc::Framework unfitted(fast_config());
  try {
    (void)unfitted.encode(series, own);
    FAIL() << "expected PreconditionError";
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("fit() must run first"),
              std::string::npos)
        << e.what();
  }

  // A detector over a graph of other sensors cannot take these windows.
  std::vector<std::string> names = p.framework.graph().sensor_names();
  names.push_back("extra");
  const dc::AnomalyDetector foreign(dc::MvrGraph(names),
                                    p.framework.config().detector);
  EXPECT_THROW((void)p.framework.encode(series, foreign),
               desmine::PreconditionError);

  // Shorter than one sentence span: every kept sensor, zero windows, and
  // detect scores them to an empty result.
  const dc::MultivariateSeries short_series =
      dc::slice(series, 0, p.framework.language().sentence_span() - 1);
  const std::vector<dc::EncodedCorpus> corpora =
      p.framework.encode(short_series, own);
  ASSERT_EQ(corpora.size(), p.framework.encrypter().kept_sensors().size());
  for (const dc::EncodedCorpus& c : corpora) {
    EXPECT_TRUE(c.windows.empty());
    EXPECT_TRUE(c.sentences.empty());
  }
  const dc::DetectionResult empty = own.detect(corpora, {});
  EXPECT_TRUE(empty.anomaly_scores.empty());
  EXPECT_TRUE(empty.broken_edges.empty());
  EXPECT_EQ(empty.edge_bleu.size(), own.valid_model_count());
  for (const std::vector<double>& f : empty.edge_bleu) {
    EXPECT_TRUE(f.empty());
  }
  EXPECT_TRUE(p.framework.detect(short_series).anomaly_scores.empty());
}

TEST(Framework, EncodeFeedsADetectorWithAnotherBand) {
  auto& p = shared_pipeline();
  // The upper half of the graph's edges by training BLEU: a band other
  // than the framework's, as the figure benches build.
  std::vector<double> bleu;
  for (const dc::MvrEdge& e : p.framework.graph().edges()) {
    bleu.push_back(e.bleu);
  }
  std::sort(bleu.begin(), bleu.end());
  dc::DetectorConfig cfg = p.framework.config().detector;
  cfg.valid_lo = bleu[bleu.size() / 2];
  cfg.valid_hi = 100.5;
  const dc::AnomalyDetector banded(p.framework.graph(), cfg);
  ASSERT_GT(banded.valid_model_count(), 0u);
  ASSERT_LT(banded.valid_model_count(), p.framework.graph().edges().size());

  const dc::MultivariateSeries series = p.plant.days_slice(4, 2);
  const std::vector<desmine::text::Corpus> strings =
      p.framework.to_corpora(series);
  expect_bitwise_equal(
      dor::detect_strings(dc::AnomalyDetector(p.framework.graph(), cfg),
                          strings),
      banded.detect(p.framework.encode(series, banded), {}), "strict");

  const dc::HealthMask mask = dc::window_health_mask(
      p.framework.encrypter(), p.framework.config().window, series,
      desmine::robust::HealthConfig{});
  dc::DetectOptions options;
  options.unhealthy = &mask;
  expect_bitwise_equal(
      dor::detect_strings(dc::AnomalyDetector(p.framework.graph(), cfg),
                          strings, options),
      banded.detect(p.framework.encode(series, banded), options), "masked");
}
