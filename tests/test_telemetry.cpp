// Tests for the telemetry plane (DESIGN.md §12): Prometheus text exposition
// (name sanitization, label escaping, cumulative `le` buckets terminated by
// +Inf, sliding-window summaries), SlidingHistogram epoch rotation, format
// validity under concurrent recording, the embedded HTTP listener, and
// end-to-end window traces through a live SessionManager — every scheduled
// window's trace must span queue -> batch_form -> decode -> reorder with no
// orphaned or unfinished spans.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "io/serialize.h"
#include "obs/http_exposition.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dc = desmine::core;
namespace ds = desmine::serve;
namespace obs = desmine::obs;
namespace du = desmine::util;
using desmine::util::Rng;

namespace {

// --- Prometheus text-format lint -----------------------------------------

bool name_head(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool name_tail(char c) {
  return name_head(c) || std::isdigit(static_cast<unsigned char>(c));
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || !name_head(name[0])) return false;
  for (const char c : name) {
    if (!name_tail(c)) return false;
  }
  return true;
}

/// Returns "" when `body` parses as Prometheus text format 0.0.4, otherwise
/// "line N: why". Purely syntactic (no bucket/count cross-checks), so it is
/// also valid on scrapes taken while writers are still recording.
std::string lint_prometheus(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  std::size_t n = 0;
  const auto fail = [&](const std::string& why) {
    return "line " + std::to_string(n) + ": " + why + " [" + line + "]";
  };
  while (std::getline(in, line)) {
    ++n;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, directive, name, kind;
      meta >> hash >> directive >> name >> kind;
      if (directive == "TYPE") {
        static const std::set<std::string> kinds = {
            "counter", "gauge", "histogram", "summary", "untyped"};
        if (!valid_metric_name(name)) return fail("bad TYPE metric name");
        if (kinds.count(kind) == 0) return fail("unknown TYPE kind");
      } else if (directive != "HELP") {
        return fail("unknown comment directive");
      }
      continue;
    }
    std::size_t i = 0;
    if (!name_head(line[i])) return fail("bad metric name start");
    while (i < line.size() && name_tail(line[i])) ++i;
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        if (!name_head(line[i])) return fail("bad label name");
        while (i < line.size() && name_tail(line[i])) ++i;
        if (i >= line.size() || line[i] != '=') return fail("expected '='");
        ++i;
        if (i >= line.size() || line[i] != '"') return fail("expected '\"'");
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') {
            if (i + 1 >= line.size()) return fail("dangling escape");
            const char e = line[i + 1];
            if (e != '\\' && e != '"' && e != 'n') return fail("bad escape");
            i += 2;
          } else {
            ++i;
          }
        }
        if (i >= line.size()) return fail("unterminated label value");
        ++i;
        if (i < line.size() && line[i] == ',') ++i;
      }
      if (i >= line.size()) return fail("unterminated label set");
      ++i;
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail("expected single space before value");
    }
    const std::string value = line.substr(i + 1);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      try {
        std::size_t used = 0;
        (void)std::stod(value, &used);
        if (used != value.size()) return fail("trailing junk after value");
      } catch (const std::exception&) {
        return fail("unparseable sample value");
      }
    }
  }
  return "";
}

/// The `<base>_bucket{le="..."} v` samples of one histogram, in emission
/// order, with le parsed ("+Inf" -> infinity).
std::vector<std::pair<double, double>> bucket_samples(const std::string& body,
                                                      const std::string& base) {
  std::vector<std::pair<double, double>> out;
  const std::string prefix = base + "_bucket{le=\"";
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t close = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), close - prefix.size());
    const double upper = le == "+Inf"
                             ? std::numeric_limits<double>::infinity()
                             : std::stod(le);
    out.emplace_back(upper, std::stod(line.substr(line.rfind(' ') + 1)));
  }
  return out;
}

/// Value of the unlabelled sample `name v`, when present.
std::optional<double> sample_value(const std::string& body,
                                   const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) != 0) continue;
    return std::stod(line.substr(name.size() + 1));
  }
  return std::nullopt;
}

// --- Serving fixture (shape mirrors test_serve) ---------------------------

/// Coupled pair (follow repeats lead 2 ticks later) plus a noise sensor.
dc::MultivariateSeries make_series(std::size_t ticks, std::uint64_t seed) {
  Rng rng(seed);
  dc::EventSequence lead, follow, noise;
  bool state = false;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t % 13 == 0) state = !state;
    lead.push_back(state ? "ON" : "OFF");
    follow.push_back((t >= 2 && lead[t - 2] == "ON") ? "ON" : "OFF");
    noise.push_back(rng.bernoulli(0.5) ? "ON" : "OFF");
  }
  return {{"lead", lead}, {"follow", follow}, {"noise", noise}};
}

/// A saved artifact of a framework mined on make_series; the live-manager
/// tests serve it.
struct Fixture {
  dc::FrameworkConfig cfg;
  const std::string artifact = "/tmp/desmine_test_telemetry_model.bin";

  Fixture()
      : cfg([] {
          dc::FrameworkConfig c;
          c.window = {4, 1, 4, 4};
          c.miner.translation.model.embedding_dim = 16;
          c.miner.translation.model.hidden_dim = 16;
          c.miner.translation.model.num_layers = 1;
          c.miner.translation.model.dropout = 0.0f;
          // Telemetry tests exercise plumbing, not model quality, and the
          // wide valid band below keeps every edge valid regardless of BLEU
          // — so training can be brief.
          c.miner.translation.trainer.steps = 60;
          c.miner.translation.trainer.batch_size = 8;
          c.miner.seed = 3;
          c.detector.valid_lo = 0.0;
          c.detector.valid_hi = 100.5;
          c.detector.tolerance = 10.0;
          c.detector.threads = 1;
          return c;
        }()) {
    dc::Framework framework(cfg);
    framework.fit(make_series(300, 1), make_series(150, 2));
    desmine::io::save_framework(framework, artifact);
  }
  ~Fixture() { std::remove(artifact.c_str()); }

  ds::ServeConfig serve_config() const {
    ds::ServeConfig s;
    s.detector = cfg.detector;
    s.workers = 2;
    s.max_batch = 8;
    // Tests ingest a whole series before polling; keep the budget above the
    // window count so blocking backpressure never engages.
    s.limits.max_pending_windows = 512;
    return s;
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

// --- Exposition formatting ------------------------------------------------

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(obs::prometheus_name("serve.window.latency_ms"),
            "desmine_serve_window_latency_ms");
  EXPECT_EQ(obs::prometheus_name("miner.pair.retries"),
            "desmine_miner_pair_retries");
  // Every character outside [A-Za-z0-9_] collapses to '_'.
  EXPECT_EQ(obs::prometheus_name("weird-name+x/y z"),
            "desmine_weird_name_x_y_z");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(obs::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::prometheus_escape_label("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(obs::prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Prometheus, FormatLintOnHandBuiltRegistry) {
  obs::RegistrySnapshot reg;
  reg.counters["serve.ticks"] = 42;
  reg.gauges["serve.sessions"] = 3.0;
  obs::Histogram h;
  for (const double v : {0.5, 1.0, 2.0, 3.0, 70.0, 500.0, 500.0}) h.record(v);
  reg.histograms["serve.window.latency_ms"] = h.snapshot();

  obs::SlidingHistogram sliding(60.0, 6);
  for (int i = 1; i <= 10; ++i) sliding.record(static_cast<double>(i));
  std::map<std::string, obs::Histogram::Snapshot> recent;
  recent["serve.window.latency_ms"] = sliding.snapshot();

  const std::string text = obs::to_prometheus(reg, recent);
  EXPECT_EQ(lint_prometheus(text), "") << text;

  // Counter -> _total, gauge as-is, sliding -> _recent summary.
  EXPECT_EQ(sample_value(text, "desmine_serve_ticks_total"), 42.0);
  EXPECT_EQ(sample_value(text, "desmine_serve_sessions"), 3.0);
  EXPECT_NE(text.find("# TYPE desmine_serve_window_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE desmine_serve_window_latency_ms_recent summary"),
            std::string::npos);
  EXPECT_NE(
      text.find("desmine_serve_window_latency_ms_recent{quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_EQ(
      sample_value(text, "desmine_serve_window_latency_ms_recent_count"),
      10.0);
}

TEST(Prometheus, HistogramBucketsCumulativeAndInfTerminated) {
  obs::RegistrySnapshot reg;
  obs::Histogram h;
  for (const double v : {0.5, 1.0, 2.0, 3.0, 70.0, 500.0, 500.0}) h.record(v);
  reg.histograms["lat"] = h.snapshot();
  const std::string text = obs::to_prometheus(reg, {});

  const auto buckets = bucket_samples(text, "desmine_lat");
  ASSERT_GE(buckets.size(), 2u);
  for (std::size_t b = 1; b < buckets.size(); ++b) {
    EXPECT_LT(buckets[b - 1].first, buckets[b].first) << "le not increasing";
    EXPECT_LE(buckets[b - 1].second, buckets[b].second)
        << "cumulative counts not monotone";
  }
  EXPECT_TRUE(std::isinf(buckets.back().first)) << "missing +Inf bucket";
  EXPECT_EQ(buckets.back().second, 7.0);
  EXPECT_EQ(sample_value(text, "desmine_lat_count"), 7.0);
  EXPECT_EQ(sample_value(text, "desmine_lat_sum"), 1076.5);
}

// --- Sliding histograms ---------------------------------------------------

TEST(SlidingHistogramTest, EpochRotationAgesSamplesOut) {
  using Clock = obs::SlidingHistogram::Clock;
  obs::SlidingHistogram h(6.0, 3);  // 3 epochs of 2 s
  EXPECT_DOUBLE_EQ(h.window_s(), 6.0);
  EXPECT_EQ(h.epochs(), 3u);

  // Anchor well past the construction instant so epoch arithmetic never
  // clamps at the left edge.
  const Clock::time_point t0 = Clock::now() + std::chrono::hours(1);
  const auto s = [](double secs) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(secs));
  };

  h.record_at(t0, 5.0);
  obs::Histogram::Snapshot snap = h.snapshot_at(t0);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);

  h.record_at(t0 + s(3.0), 50.0);  // next epoch
  snap = h.snapshot_at(t0 + s(3.0));
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);
  EXPECT_DOUBLE_EQ(snap.max, 50.0);
  EXPECT_DOUBLE_EQ(snap.sum, 55.0);

  // 6.5 s after t0 the first epoch has left the 6 s window; the 50 is still
  // inside it.
  snap = h.snapshot_at(t0 + s(6.5));
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.min, 50.0);
  EXPECT_DOUBLE_EQ(snap.max, 50.0);

  // Far past the window: empty.
  snap = h.snapshot_at(t0 + s(20.0));
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);

  // A record in an epoch whose ring slot held stale data must recycle the
  // slot, not merge with it (t0+12s maps to the same slot as t0 with 3
  // epochs of 2 s).
  h.record_at(t0 + s(12.0), 7.0);
  snap = h.snapshot_at(t0 + s(12.0));
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 7.0);
}

TEST(TelemetryRegistryTest, StableReferencesAndSnapshot) {
  obs::TelemetryRegistry reg;
  reg.configure(30.0, 5);
  obs::SlidingHistogram& a = reg.sliding("x");
  EXPECT_EQ(&a, &reg.sliding("x"));
  EXPECT_DOUBLE_EQ(a.window_s(), 30.0);
  EXPECT_EQ(a.epochs(), 5u);
  a.record(1.0);
  a.record(2.0);
  const auto snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps.at("x").count, 2u);
  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

// --- Scrape validity under concurrent recording ---------------------------

TEST(Telemetry, ScrapeStaysWellFormedWhileRecording) {
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 2000;
  du::ThreadPool pool(kWriters);
  std::vector<std::future<void>> futures;
  for (int w = 0; w < kWriters; ++w) {
    futures.push_back(pool.submit([] {
      obs::Histogram& h =
          obs::metrics().histogram("telemetry.test.concurrent");
      obs::SlidingHistogram& s =
          obs::telemetry().sliding("telemetry.test.concurrent");
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        const double v = static_cast<double>(i % 17) + 0.5;
        h.record(v);
        s.record(v);
      }
    }));
  }

  const auto still_running = [&] {
    for (auto& f : futures) {
      if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        return true;
      }
    }
    return false;
  };
  std::size_t scrapes = 0;
  do {
    const std::string text = obs::scrape_prometheus();
    ASSERT_EQ(lint_prometheus(text), "");
    ++scrapes;
  } while (still_running());
  EXPECT_GE(scrapes, 1u);

  const auto drained = du::ThreadPool::wait_all(futures);
  ASSERT_EQ(drained.failed, 0u) << drained.first_error;

  // Quiesced totals are exact.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kWriters) * kRecordsPerWriter;
  EXPECT_EQ(
      obs::metrics().histogram("telemetry.test.concurrent").snapshot().count,
      expected);
  EXPECT_EQ(
      obs::telemetry().sliding("telemetry.test.concurrent").snapshot().count,
      expected);
}

// --- HTTP exposition + live SessionManager --------------------------------

TEST(ServeTelemetry, EndToEndScrapeOverHttp) {
  Fixture& f = fixture();
  ds::SessionManager manager(f.artifact, f.serve_config());
  const std::uint64_t id = manager.open();
  const dc::MultivariateSeries series = make_series(60, 7);
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();
  std::size_t polled = 0;
  while (manager.poll(id)) ++polled;
  ASSERT_GT(polled, 5u);

  obs::HttpExposition http;
  obs::mount_telemetry(http, [&manager] {
    return std::string("{\"uptime_s\": ") +
           std::to_string(manager.uptime_s()) + "}";
  });
  http.start(0);  // ephemeral port: no fixed-port race in CI
  ASSERT_TRUE(http.running());
  ASSERT_NE(http.port(), 0);

  const obs::HttpGetResult scrape = obs::http_get(http.port(), "/metrics");
  ASSERT_EQ(scrape.status, 200);
  EXPECT_EQ(lint_prometheus(scrape.body), "");
  // Serving cumulatives, the per-stage breakdown, and the sliding p99 must
  // all be on the wire.
  const auto scored =
      sample_value(scrape.body, "desmine_serve_windows_scored_total");
  ASSERT_TRUE(scored.has_value());
  EXPECT_GE(*scored, static_cast<double>(polled));
  EXPECT_NE(scrape.body.find("desmine_serve_stage_queue_ms_bucket"),
            std::string::npos);
  EXPECT_NE(scrape.body.find("desmine_serve_stage_reorder_ms_bucket"),
            std::string::npos);
  EXPECT_NE(
      scrape.body.find(
          "desmine_serve_window_latency_ms_recent{quantile=\"0.99\"}"),
      std::string::npos);
  const auto recent_count = sample_value(
      scrape.body, "desmine_serve_window_latency_ms_recent_count");
  ASSERT_TRUE(recent_count.has_value());
  EXPECT_GE(*recent_count, static_cast<double>(polled));

  const obs::HttpGetResult health = obs::http_get(http.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const obs::HttpGetResult status = obs::http_get(http.port(), "/statusz");
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("uptime_s"), std::string::npos);

  EXPECT_EQ(obs::http_get(http.port(), "/nope").status, 404);

  http.stop();
  http.stop();  // idempotent
  EXPECT_FALSE(http.running());
}

// --- End-to-end window traces ---------------------------------------------

TEST(ServeTelemetry, WindowTraceCoversAllStagesNoOrphans) {
  obs::Tracer& tracer = obs::tracer();
  tracer.reset();
  tracer.enable();
  std::size_t polled = 0;
  {
    Fixture& f = fixture();
    ds::SessionManager manager(f.artifact, f.serve_config());
    const std::uint64_t id = manager.open();
    const dc::MultivariateSeries series = make_series(60, 11);
    for (std::size_t t = 0; t < series.front().events.size(); ++t) {
      ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
                ds::IngestStatus::kAccepted);
    }
    manager.drain();
    while (manager.poll(id)) ++polled;
  }  // workers joined; every span closed
  tracer.disable();
  const std::vector<obs::SpanRecord> records = tracer.records();
  tracer.reset();
  ASSERT_GT(polled, 5u);

  // One finished root per delivered window.
  std::set<std::uint32_t> windows;
  for (std::uint32_t i = 0; i < records.size(); ++i) {
    if (records[i].name != "serve.window") continue;
    EXPECT_TRUE(records[i].finished()) << "unfinished window span " << i;
    EXPECT_EQ(records[i].parent, obs::SpanRecord::kNoParent);
    windows.insert(i);
  }
  EXPECT_EQ(windows.size(), polled);

  // Every stage span parents to a window root (no orphans), finishes, and
  // each window carries exactly the four stages.
  std::map<std::uint32_t, std::set<std::string>> stages;
  for (const obs::SpanRecord& r : records) {
    if (r.name.rfind("serve.stage.", 0) != 0) continue;
    ASSERT_NE(r.parent, obs::SpanRecord::kNoParent)
        << "orphaned stage span " << r.name;
    ASSERT_EQ(windows.count(r.parent), 1u)
        << r.name << " not parented to a serve.window span";
    EXPECT_TRUE(r.finished()) << "unfinished stage span " << r.name;
    EXPECT_LE(r.start_ns, r.end_ns);
    EXPECT_TRUE(stages[r.parent].insert(r.name).second)
        << "duplicate stage " << r.name << " under window " << r.parent;
  }
  const std::set<std::string> want = {
      "serve.stage.queue", "serve.stage.batch_form", "serve.stage.decode",
      "serve.stage.reorder"};
  for (const std::uint32_t w : windows) {
    EXPECT_EQ(stages[w], want) << "window span " << w << " missing stages";
    // Stage intervals close inside the root.
    for (const obs::SpanRecord& r : records) {
      if (r.parent == w) {
        EXPECT_LE(r.end_ns, records[w].end_ns);
      }
    }
  }
}

}  // namespace
