// detect-batch: core::Framework::detect over 90-day plant histories with the
// default anomaly days, scored ten days per call. Batch detection runs a sequential B=1 translate plus
// sentence BLEU per (edge, window) on kWorkers threads, with no decode cache
// and no dedup, so it is the workload a shared batch scoring path would
// speed up.
#include <algorithm>
#include <optional>

#include "io/artifact_map.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "util/rng.h"
#include "workloads.h"

namespace desmine::e2e {

namespace {

constexpr std::size_t kHistories = 8;
constexpr std::size_t kGateRanges = 8;
constexpr std::size_t kGateWindows = 32;
constexpr std::size_t kChunkDays = 10;
// The first three chunks (history 0, days 0-29) are checked against the
// recorded digest; smoke histories (30 days) have them too.
constexpr std::size_t kDigestChunks = 3;
// Traced runs: kAccountRounds chunks, each timed untraced and traced, then
// kProbeSamples edge-cost probe samples (edges differ in decode length, so
// the probe needs many edges).
constexpr std::size_t kAccountRounds = 8;
constexpr std::size_t kProbeSamples = 6;

std::vector<std::pair<std::size_t, std::size_t>> broken_pairs(
    const core::DetectionResult& r, std::size_t t) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const std::size_t e : r.broken_edges[t]) {
    out.emplace_back(r.valid_edges[e].src, r.valid_edges[e].dst);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Replay sampled window ranges of `history` through a SessionManager and
/// compare every verdict with batch detection bit for bit. Returns
/// mismatched windows.
std::size_t gate(const Options& opt, const std::string& artifact,
                 const core::MultivariateSeries& history,
                 const core::DetectionResult& batch, RunResult* result) {
  serve::ServeConfig cfg;
  cfg.detector = framework_config().detector;
  cfg.workers = kWorkers;
  cfg.limits.max_pending_windows = 4 * kGateWindows;  // never blocks
  serve::SessionManager manager(artifact, cfg);
  const TickTable table =
      TickTable::from_series(history, manager.encrypter().kept_sensors());
  const std::size_t windows = batch.anomaly_scores.size();
  util::Rng rng(opt.seed ^ 0xde7ec7ull);
  std::vector<std::size_t> first_window;
  std::vector<std::uint64_t> ids;
  for (std::size_t g = 0; g < kGateRanges; ++g) {
    const std::size_t w0 = rng.index(windows - kGateWindows + 1);
    first_window.push_back(w0);
    ids.push_back(manager.open());
    TickFeed feed(table.sensors);
    const std::size_t first = w0 * kWindowStride;
    const std::size_t last =
        first + (kGateWindows - 1) * kWindowStride + kWindowSpan;
    for (std::size_t t = first; t < last; ++t) {
      manager.ingest(ids.back(), feed.fill(table, t));
    }
  }
  manager.drain();
  std::size_t compared = 0, mismatched = 0;
  for (std::size_t g = 0; g < kGateRanges; ++g) {
    while (const auto r = manager.poll(ids[g])) {
      const std::size_t t = first_window[g] + r->window_index;
      std::vector<std::pair<std::size_t, std::size_t>> served = r->broken;
      std::sort(served.begin(), served.end());
      ++compared;
      if (bits_of(r->anomaly_score) != bits_of(batch.anomaly_scores[t]) ||
          served != broken_pairs(batch, t) || !r->failed.empty() || r->shed) {
        ++mismatched;
      }
    }
  }
  if (compared != kGateRanges * kGateWindows) {
    result->errors.push_back("gate replayed " + std::to_string(compared) +
                             " windows");
  }
  if (mismatched > 0) {
    result->errors.push_back(std::to_string(mismatched) + " of " +
                             std::to_string(compared) +
                             " batch verdicts differ from SessionManager");
  }
  result->detail.push_back(
      {"bench.gate_windows", static_cast<double>(compared), "count"});
  result->attempted += compared;
  return mismatched;
}

}  // namespace

RunResult run_detect(const Options& opt, const Calibration& cal) {
  RunResult result;

  // Each history is scored kChunkDays at a time: the host's speed swings by
  // a quarter within a second, so the end-to-end numbers are medians over
  // many short calls rather than a few long ones.
  const std::string artifact = ensure_fixture(opt.cache_dir);
  const std::size_t days = opt.smoke ? 30 : 90;
  const util::Rng master(opt.seed);
  std::vector<core::MultivariateSeries> chunks;
  for (std::size_t h = 0; h < kHistories; ++h) {
    const core::MultivariateSeries history =
        data::generate_plant(
            plant_config(master.fork(h).seed(), days, 0.005, true))
            .series;
    for (std::size_t first = 0; first < days; first += kChunkDays) {
      chunks.push_back(day_slice(history, first, kChunkDays));
    }
  }
  result.lap("inputs");

  RssPeak rss;
  std::optional<core::Framework> fw;
  std::vector<double> loads;
  {
    const obs::Span span("bench.load_framework");
    for (std::size_t r = 0; r < kSetups; ++r) {
      const auto t0 = Clock::now();
      core::Framework loaded = load_fixture(artifact);
      loads.push_back(seconds_between(t0, Clock::now()));
      if (r + 1 == kSetups) fw.emplace(std::move(loaded));
      rss.sample();
    }
  }
  result.lap("setup");

  // One timed Framework::detect call on chunk c; the first result of each
  // of the first kDigestChunks chunks is kept for the checks.
  std::vector<double> walls, rates;
  std::size_t windows = 0;
  std::vector<core::DetectionResult> kept;
  const auto detect = [&](std::size_t c) {
    const obs::Span span("bench.detect");
    const auto t0 = Clock::now();
    core::DetectionResult r = fw->detect(chunks[c % chunks.size()]);
    const double wall = seconds_between(t0, Clock::now());
    const std::size_t n = r.anomaly_scores.size();
    walls.push_back(wall);
    rates.push_back(static_cast<double>(n) / wall);
    windows += n;
    if (c < kDigestChunks && kept.size() == c) kept.push_back(std::move(r));
  };

  double overhead_pct = 0.0, edge_ms = 0.0, encode_ms = 0.0;
  std::vector<double> probe_us;  // translate + BLEU per (edge, window)
  {
    const RssSampler sampler(rss);
    if (!opt.traced) {
      const auto start = Clock::now();
      for (std::size_t c = 0; c < kDigestChunks ||
                              seconds_between(start, Clock::now()) < opt.seconds;
           ++c) {
        detect(c);
      }
    } else {
      // Rounds of one chunk untraced, the same chunk traced, then edge-cost
      // probe samples of it: the host's speed swings within a second, so
      // what is compared must take turns.
      obs::metrics().histogram("detector.edge_score_ms").reset();
      obs::metrics().histogram("phase.encode.wall_ms").reset();
      obs::metrics().histogram("threadpool.queue_wait_us").reset();
      std::vector<double> overhead;
      for (std::size_t c = 0; c < kAccountRounds; ++c) {
        detect(c);
        obs::tracer().enable();
        detect(c);
        obs::tracer().disable();
        overhead.push_back(trace_overhead_pct(rates[rates.size() - 2],
                                              rates.back()));
        EdgeWindowProbe probe(*fw, chunks[c % chunks.size()], opt.seed + c);
        for (std::size_t s = 0; s < kProbeSamples; ++s) {
          for (const EdgeWindowProbe::Cost& cost : probe.sample()) {
            probe_us.push_back(cost.translate_us + cost.bleu_us);
          }
        }
      }
      overhead_pct = median(std::move(overhead));
      edge_ms = obs::metrics().histogram("detector.edge_score_ms").snapshot().sum;
      encode_ms = obs::metrics().histogram("phase.encode.wall_ms").snapshot().sum;
    }
  }
  result.lap(opt.traced ? "detect_traced" : "detect");

  result.attempted += windows;
  {
    const obs::Span span("bench.gate");
    result.failed += gate(opt, artifact, chunks[0], kept[0], &result);
  }
  Digest digest;
  for (const core::DetectionResult& r : kept) {
    for (std::size_t t = 0; t < r.anomaly_scores.size(); ++t) {
      digest.add_bits(r.anomaly_scores[t]);
      digest.add_pairs(broken_pairs(r, t));
      for (const std::vector<double>& edge : r.edge_bleu) digest.add_bits(edge[t]);
    }
  }
  check_digest(cal, opt, "detect-batch", digest.hex(), &result);
  result.lap("gate");

  double total = 0.0;
  for (const double w : walls) total += w;
  std::vector<Metric>& d = result.detail;
  d.push_back({"detect_wps", static_cast<double>(windows) / total, "windows/s"});
  d.push_back({"detect_calls", static_cast<double>(walls.size()), "count"});
  d.push_back({"detect_call_ms", median(walls) * 1e3, "ms"});
  d.push_back({"bench.failed_frac",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::size_t>(result.attempted, 1)),
               "ratio"});
  if (!opt.traced) {
    result.end_to_end = {
        {"throughput", median(rates), "1/s"},
        {"setup_s", median(loads), "s"},
        {"rss_mb", rss.growth_mib(), "MiB"},
    };
    return result;
  }

  const LayerCosts costs =
      probe_layers({&*fw, &chunks[0], artifact, opt.seed}, &result);
  result.lap("probes");
  // Cost per (edge, window) inside detect: the median of the traced calls'
  // score-edge spans (one edge over a whole chunk each), the statistic the
  // probe reports.
  std::vector<double> span_us;
  const double chunk_windows =
      static_cast<double>(kept[0].anomaly_scores.size());
  for (const obs::SpanRecord& r : obs::tracer().records()) {
    if (r.name == "score-edge" && r.finished()) {
      span_us.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-3 /
                        chunk_windows);
    }
  }
  const double edge_window_us = median(span_us);
  d.push_back({"core.detect.edge_window_us", edge_window_us, "us"});
  // Every call of the phase, untraced and traced, feeds the sums below.
  const double edge_windows =
      static_cast<double>(kept[0].valid_edges.size() * windows);
  const double calls = static_cast<double>(walls.size());
  std::vector<Metric>& l = result.per_layer;
  l.push_back({"util.pool_queue_wait_us.p99",
               obs::metrics()
                   .histogram("threadpool.queue_wait_us")
                   .snapshot()
                   .quantile(0.99),
               "us"});
  l.push_back({"bench.worker_busy_frac",
               edge_ms / (static_cast<double>(kWorkers) * total * 1e3), "ratio"});
  l.push_back({"bench.layer_accounted_frac",
               (calls * costs.encode_corpora_ms +
                edge_windows * median(probe_us) * 1e-3) /
                   (encode_ms + edge_windows * edge_window_us * 1e-3),
               "ratio"});
  l.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
  return result;
}

}  // namespace desmine::e2e
