// Tests for the streaming OnlineDetector: window arithmetic, equivalence
// with batch detection (also on a replayed stream, whose repeated windows
// its detector's edge memos answer without decoding), broken-edge
// reporting, and buffer trimming, strict and degraded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/online.h"
#include "obs/metrics.h"
#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
using desmine::util::Rng;

namespace {

/// Coupled pair (follow repeats lead 2 ticks later) plus a noise sensor.
dc::MultivariateSeries make_series(std::size_t ticks, bool desync_tail,
                                   std::uint64_t seed) {
  Rng rng(seed);
  dc::EventSequence lead, follow, noise;
  bool state = false;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t % 13 == 0) state = !state;
    const bool broken = desync_tail && t >= ticks / 2;
    lead.push_back(state ? "ON" : "OFF");
    const bool f = broken ? rng.bernoulli(0.5)
                          : (t >= 2 && lead[t - 2] == "ON");
    follow.push_back(f ? "ON" : "OFF");
    noise.push_back(rng.bernoulli(0.5) ? "ON" : "OFF");
  }
  return {{"lead", lead}, {"follow", follow}, {"noise", noise}};
}

struct Fixture {
  dc::FrameworkConfig cfg;
  dc::Framework framework;

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
          c.detector.valid_lo = 0.0;
          c.detector.valid_hi = 100.5;
          c.detector.tolerance = 10.0;
          c.detector.threads = 1;
          return c;
        }()),
        framework(cfg) {
    framework.fit(make_series(600, false, 1), make_series(300, false, 2));
  }
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

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

TEST(OnlineDetector, EmitsAtSentenceStride) {
  auto& f = fixture();
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  const auto series = make_series(100, false, 4);

  // Window 0 spans chars [0, span); span = (4-1)*1 + 4 = 7; afterwards one
  // window per sentence_stride * word_stride = 4 ticks.
  std::vector<std::size_t> emit_ticks;
  for (std::size_t t = 0; t < 40; ++t) {
    const auto result = online.push(tick_states(series, t));
    if (result) emit_ticks.push_back(t + 1);  // end_tick = ticks consumed
  }
  ASSERT_GE(emit_ticks.size(), 3u);
  EXPECT_EQ(emit_ticks[0], 7u);
  EXPECT_EQ(emit_ticks[1], 11u);
  EXPECT_EQ(emit_ticks[2], 15u);
}

TEST(OnlineDetector, MatchesBatchDetection) {
  auto& f = fixture();
  const auto series = make_series(120, false, 5);
  const auto batch = f.framework.detect(series);

  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::vector<double> online_scores;
  for (std::size_t t = 0; t < 120; ++t) {
    const auto result = online.push(tick_states(series, t));
    if (result) online_scores.push_back(result->anomaly_score);
  }
  ASSERT_EQ(online_scores.size(), batch.anomaly_scores.size());
  for (std::size_t w = 0; w < online_scores.size(); ++w) {
    EXPECT_DOUBLE_EQ(online_scores[w], batch.anomaly_scores[w]) << w;
  }
}

TEST(OnlineDetector, ReplayedStreamMatchesBatchAndDecodesNothing) {
  // The stream twice over: 120 ticks is a whole number of 4-tick strides,
  // so every window that starts in the second pass repeats one of the
  // first pass's, and the detector's edge memos already hold its decodes.
  auto& f = fixture();
  const auto series = make_series(120, false, 11);
  dc::MultivariateSeries twice = series;
  for (std::size_t k = 0; k < twice.size(); ++k) {
    twice[k].events.insert(twice[k].events.end(), series[k].events.begin(),
                           series[k].events.end());
  }
  const auto batch = f.framework.detect(twice);

  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  desmine::obs::Counter& decoded =
      desmine::obs::metrics().counter("detector.decoded");
  std::uint64_t first_pass = 0, second_pass = 0;
  std::vector<dc::OnlineDetector::WindowResult> results;
  for (std::size_t t = 0; t < 240; ++t) {
    const std::uint64_t before = decoded.value();
    auto result = online.push(tick_states(twice, t));
    if (!result) continue;
    (4 * result->window_index >= 120 ? second_pass : first_pass) +=
        decoded.value() - before;
    results.push_back(std::move(*result));
  }
  EXPECT_GT(first_pass, 0u);
  EXPECT_EQ(second_pass, 0u);

  ASSERT_EQ(results.size(), batch.anomaly_scores.size());
  for (std::size_t w = 0; w < results.size(); ++w) {
    EXPECT_EQ(bits(results[w].anomaly_score), bits(batch.anomaly_scores[w]))
        << w;
    EXPECT_EQ(bits(results[w].coverage), bits(batch.coverage[w])) << w;
    std::vector<std::pair<std::size_t, std::size_t>> broken;
    for (const std::size_t e : batch.broken_edges[w]) {
      broken.emplace_back(batch.valid_edges[e].src, batch.valid_edges[e].dst);
    }
    EXPECT_EQ(results[w].broken, broken) << w;
  }
}

TEST(OnlineDetector, FlagsDesyncWindows) {
  auto& f = fixture();
  const auto series = make_series(160, true, 6);  // second half desynced
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  double first_half = 0.0, second_half = 0.0;
  std::size_t n1 = 0, n2 = 0;
  for (std::size_t t = 0; t < 160; ++t) {
    const auto result = online.push(tick_states(series, t));
    if (!result) continue;
    if (result->end_tick <= 80) {
      first_half += result->anomaly_score;
      ++n1;
    } else {
      second_half += result->anomaly_score;
      ++n2;
    }
  }
  ASSERT_GT(n1, 0u);
  ASSERT_GT(n2, 0u);
  EXPECT_GT(second_half / n2, first_half / n1);
}

TEST(OnlineDetector, BrokenEdgesNameValidPairs) {
  auto& f = fixture();
  const auto series = make_series(160, true, 7);
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  const std::size_t n = f.framework.graph().sensor_count();
  for (std::size_t t = 0; t < 160; ++t) {
    const auto result = online.push(tick_states(series, t));
    if (!result) continue;
    for (const auto& [src, dst] : result->broken) {
      EXPECT_LT(src, n);
      EXPECT_LT(dst, n);
      EXPECT_NE(src, dst);
    }
  }
}

TEST(OnlineDetector, MissingSensorThrowsTypedError) {
  auto& f = fixture();
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::string expected;
  for (const auto& name : f.framework.encrypter().kept_sensors()) {
    if (name != "lead") {
      expected = name;  // first kept sensor absent from the tick
      break;
    }
  }
  try {
    online.push({{"lead", "ON"}});
    FAIL() << "expected robust::MissingSensor";
  } catch (const desmine::robust::MissingSensor& e) {
    EXPECT_EQ(e.sensor(), expected);
    EXPECT_EQ(e.tick(), 0u);
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos);
  }
  // MissingSensor derives from RuntimeError (plumbing, not misuse).
  dc::OnlineDetector online2(f.framework.graph(), f.framework.encrypter(),
                             f.cfg.window, f.cfg.detector);
  EXPECT_THROW(online2.push({{"lead", "ON"}}), desmine::RuntimeError);
}

TEST(OnlineDetector, DegradedCleanRunMatchesStrict) {
  auto& f = fixture();
  const auto series = make_series(120, false, 9);
  dc::OnlineDetector strict(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  dc::DegradedConfig degraded;
  degraded.enabled = true;
  dc::OnlineDetector tolerant(f.framework.graph(), f.framework.encrypter(),
                              f.cfg.window, f.cfg.detector, degraded);
  for (std::size_t t = 0; t < 120; ++t) {
    const auto a = strict.push(tick_states(series, t));
    const auto b = tolerant.push(tick_states(series, t));
    ASSERT_EQ(a.has_value(), b.has_value()) << t;
    if (!a) continue;
    EXPECT_EQ(a->anomaly_score, b->anomaly_score) << t;  // bit-identical
    EXPECT_EQ(b->coverage, 1.0) << t;
    EXPECT_FALSE(b->degraded) << t;
    EXPECT_TRUE(b->unhealthy.empty()) << t;
  }
}

TEST(OnlineDetector, DegradedDropoutRenormalizesAndRecovers) {
  auto& f = fixture();
  const auto series = make_series(200, false, 10);
  const auto& kept = f.framework.encrypter().kept_sensors();
  std::size_t noise_idx = kept.size();
  for (std::size_t k = 0; k < kept.size(); ++k) {
    if (kept[k] == "noise") noise_idx = k;
  }
  ASSERT_LT(noise_idx, kept.size());

  dc::OnlineDetector strict(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  dc::DetectorConfig lax = f.cfg.detector;
  lax.min_coverage = 0.2;  // below 2/6 so dropout windows still score
  dc::DegradedConfig degraded;
  degraded.enabled = true;
  dc::OnlineDetector tolerant(f.framework.graph(), f.framework.encrypter(),
                              f.cfg.window, lax, degraded);

  // "noise" delivers nothing for ticks [40, 60). With readmit_after = 8
  // clean ticks, its taint clears at tick 60 + 8 - 1 = 67.
  const std::size_t taint_lo = 40;
  const std::size_t taint_hi = 60 + degraded.health.readmit_after - 1;
  std::size_t affected = 0;
  for (std::size_t t = 0; t < 200; ++t) {
    const auto full = tick_states(series, t);
    auto holed = full;
    if (t >= 40 && t < 60) holed.erase("noise");
    const auto a = strict.push(full);
    const auto b = tolerant.push(holed);
    ASSERT_EQ(a.has_value(), b.has_value()) << t;
    if (!a) continue;
    const std::size_t start = b->window_index * 4;  // sentence stride 4
    const std::size_t span = 7;                     // (4-1)*1 + 4
    const bool clean = start + span <= taint_lo || start > taint_hi;
    if (clean) {
      // Outside the taint range the score must be bit-identical to the
      // no-fault run — the acceptance criterion for re-admission.
      EXPECT_EQ(a->anomaly_score, b->anomaly_score) << b->window_index;
      EXPECT_EQ(b->coverage, 1.0) << b->window_index;
      EXPECT_TRUE(b->unhealthy.empty()) << b->window_index;
    } else {
      ++affected;
      // noise's 4 incident edges leave the valid set; 2 of 6 survive.
      EXPECT_NEAR(b->coverage, 2.0 / 6.0, 1e-12) << b->window_index;
      EXPECT_FALSE(b->degraded) << b->window_index;  // above the 0.2 quorum
      ASSERT_EQ(b->unhealthy.size(), 1u) << b->window_index;
      EXPECT_EQ(b->unhealthy.front(), noise_idx);
    }
  }
  EXPECT_GT(affected, 0u);
}

TEST(OnlineDetector, DefaultQuorumFlagsDegradedWindows) {
  auto& f = fixture();
  const auto series = make_series(80, false, 11);
  dc::DegradedConfig degraded;
  degraded.enabled = true;
  // Default min_coverage 0.5: losing noise leaves 2/6 < 0.5 -> no verdict.
  dc::OnlineDetector tolerant(f.framework.graph(), f.framework.encrypter(),
                              f.cfg.window, f.cfg.detector, degraded);
  std::size_t degraded_windows = 0;
  for (std::size_t t = 0; t < 80; ++t) {
    auto states = tick_states(series, t);
    if (t >= 20 && t < 40) states.erase("noise");
    const auto r = tolerant.push(states);
    if (r && r->degraded) {
      ++degraded_windows;
      EXPECT_EQ(r->anomaly_score, 0.0);  // placeholder, not a verdict
      EXPECT_LT(r->coverage, 0.5);
    }
  }
  EXPECT_GT(degraded_windows, 0u);
}

TEST(OnlineDetector, InjectedDropFaultTaintsSensor) {
  auto& f = fixture();
  const auto series = make_series(60, false, 12);
  const auto& kept = f.framework.encrypter().kept_sensors();
  std::size_t noise_idx = kept.size();
  for (std::size_t k = 0; k < kept.size(); ++k) {
    if (kept[k] == "noise") noise_idx = k;
  }
  ASSERT_LT(noise_idx, kept.size());

  auto& injector = desmine::robust::FaultInjector::instance();
  injector.clear();
  injector.arm("detect.push", static_cast<std::int64_t>(noise_idx),
               desmine::robust::FaultAction::kDrop, 10);
  dc::DetectorConfig lax = f.cfg.detector;
  lax.min_coverage = 0.2;
  dc::DegradedConfig degraded;
  degraded.enabled = true;
  dc::OnlineDetector tolerant(f.framework.graph(), f.framework.encrypter(),
                              f.cfg.window, lax, degraded);
  std::size_t tainted_windows = 0;
  for (std::size_t t = 0; t < 60; ++t) {
    const auto r = tolerant.push(tick_states(series, t));
    if (r && !r->unhealthy.empty()) {
      ++tainted_windows;
      EXPECT_EQ(r->unhealthy.front(), noise_idx);
    }
  }
  injector.clear();
  EXPECT_GT(tainted_windows, 0u);
}

TEST(OnlineDetector, InjectedDropFaultInStrictModeThrowsMissingSensor) {
  auto& f = fixture();
  const auto series = make_series(10, false, 13);
  auto& injector = desmine::robust::FaultInjector::instance();
  injector.clear();
  injector.arm("detect.push", 0, desmine::robust::FaultAction::kDrop, 1);
  dc::OnlineDetector strict(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  EXPECT_THROW(strict.push(tick_states(series, 0)),
               desmine::robust::MissingSensor);
  injector.clear();
}

TEST(OnlineDetector, LongStreamStaysConsistentAcrossTrim) {
  // Run past the 4096-char trim boundary and verify windows keep flowing
  // with correct indices.
  auto& f = fixture();
  const auto series = make_series(9000, false, 8);
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::size_t windows = 0;
  std::size_t last_index = 0;
  for (std::size_t t = 0; t < 9000; ++t) {
    const auto result = online.push(tick_states(series, t));
    if (result) {
      EXPECT_EQ(result->window_index, windows);
      last_index = result->window_index;
      ++windows;
    }
  }
  // span 7, stride 4: windows = floor((9000 - 7) / 4) + 1 = 2249.
  EXPECT_EQ(windows, 2249u);
  EXPECT_EQ(last_index, 2248u);
}

TEST(OnlineDetector, DegradedStreamStaysConsistentAcrossTrim) {
  // A degraded stream past the assembler's 4096-tick bulk trim. Windows
  // start every 4 ticks and span 7, so the first trim runs as window 1024
  // (ticks [4096, 4103)) is emitted: the next window's start, 4100, is then
  // more than 4096 ticks past the buffer front. One sensor drops out well
  // before that trim, one across it, and one (briefly) and another after
  // it. Each window's unhealthy list must name exactly the sensors whose
  // taint, derived from where the drops were injected, it covers, and its
  // a_t, coverage and quorum flag must be a batch detect's under that mask.
  auto& f = fixture();
  constexpr std::size_t kTicks = 4800;
  constexpr std::size_t kStride = 4;
  constexpr std::size_t kSpan = 7;
  const auto series = make_series(kTicks, false, 14);
  const auto& kept = f.framework.encrypter().kept_sensors();
  const auto index_of = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find(kept.begin(), kept.end(), name) - kept.begin());
  };
  dc::DetectorConfig lax = f.cfg.detector;
  lax.min_coverage = 0.2;  // one lost sensor leaves 2 of 6 edges a verdict
  dc::DegradedConfig degraded;
  degraded.enabled = true;
  const desmine::robust::HealthConfig& health = degraded.health;

  const struct {
    const char* sensor;
    std::size_t from, to;
  } drops[] = {{"noise", 1000, 1020},
               {"lead", 4090, 4110},
               {"follow", 4400, 4402},
               {"noise", 4600, 4630}};
  ASSERT_LT(2u, health.drop_after_missing);  // the follow drop stays healthy
  // A missing tick is tainted. A drop of drop_after_missing or more ticks
  // also drops the sensor, which stays unhealthy until readmit_after clean
  // ticks re-admit it; the tick that re-admits it is healthy again.
  std::vector<std::vector<std::uint8_t>> taint(
      kept.size(), std::vector<std::uint8_t>(kTicks, 0));
  for (const auto& d : drops) {
    const std::size_t k = index_of(d.sensor);
    ASSERT_LT(k, kept.size()) << d.sensor;
    const std::size_t end = d.to - d.from >= health.drop_after_missing
                                ? d.to + health.readmit_after - 1
                                : d.to;
    for (std::size_t t = d.from; t < end; ++t) taint[k][t] = 1;
  }
  const std::size_t windows = (kTicks - kSpan) / kStride + 1;
  dc::HealthMask mask(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    for (std::size_t k = 0; k < kept.size(); ++k) {
      for (std::size_t t = w * kStride; t < w * kStride + kSpan; ++t) {
        if (taint[k][t]) {
          mask[w].push_back(k);
          break;
        }
      }
    }
  }
  dc::AnomalyDetector detector(f.framework.graph(), lax);
  dc::DetectOptions options;
  options.unhealthy = &mask;
  const dc::DetectionResult batch =
      detector.detect(f.framework.encode(series, detector), options);
  ASSERT_EQ(batch.anomaly_scores.size(), windows);

  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, lax, degraded);
  std::size_t w = 0;
  std::size_t partial = 0;
  std::size_t partial_after_trim = 0;
  for (std::size_t t = 0; t < kTicks; ++t) {
    auto states = tick_states(series, t);
    for (const auto& d : drops) {
      if (t >= d.from && t < d.to) states.erase(d.sensor);
    }
    const auto r = online.push(states);
    if (!r) continue;
    ASSERT_LT(w, windows);
    EXPECT_EQ(r->window_index, w);
    EXPECT_EQ(r->unhealthy, mask[w]) << "window " << w;
    EXPECT_EQ(bits(r->anomaly_score), bits(batch.anomaly_scores[w]))
        << "window " << w;
    EXPECT_EQ(bits(r->coverage), bits(batch.coverage[w])) << "window " << w;
    EXPECT_EQ(r->degraded, batch.degraded[w] != 0) << "window " << w;
    if (!mask[w].empty()) {
      ++partial;
      partial_after_trim += w >= 1024;
    }
    ++w;
  }
  EXPECT_EQ(w, windows);
  EXPECT_GT(partial_after_trim, 0u);
  EXPECT_GT(partial, partial_after_trim);
}
