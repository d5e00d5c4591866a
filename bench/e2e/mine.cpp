// mine: Algorithm 1 on the fixture plant geometry — SensorEncrypter::fit and
// language generation (the set-up), then RelationshipMiner::mine of all 72
// ordered sensor pairs on kWorkers threads. The only workload that trains:
// backward passes, Adam and the transposed GEMMs run here and nowhere else.
// At kFixtureSeed it reproduces the fixture the other workloads serve.
#include <filesystem>
#include <mutex>
#include <optional>

#include "io/serialize.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace desmine::e2e {

namespace {

constexpr std::size_t kSmokeSensors = 3;
constexpr std::size_t kCheckDays = 18;  // 216 windows

struct Mined {
  core::MvrGraph graph;
  double wall_s = 0.0;
  std::vector<double> pair_ms;  ///< by pair index
};

Mined mine(const std::vector<core::SensorLanguage>& languages) {
  std::mutex mu;
  std::vector<double> pair_ms;
  core::MinerConfig cfg = framework_config().miner;
  cfg.on_pair = [&](const core::PairEvent& e) {
    const std::lock_guard lock(mu);
    pair_ms.resize(e.pair_count);
    pair_ms[e.pair_index] = e.wall_ms;
  };
  const obs::Span span("bench.mine");
  const auto t0 = Clock::now();
  core::MvrGraph graph = core::RelationshipMiner(cfg).mine(languages);
  return {std::move(graph), seconds_between(t0, Clock::now()),
          std::move(pair_ms)};
}

/// Save -> load_framework round trip: every edge's BLEU bits must survive,
/// and both frameworks must score a seed-chosen check history identically.
/// Returns mismatches.
std::size_t gate(const Options& opt, const core::Framework& mined,
                 const std::string& path, RunResult* result) {
  io::save_framework(mined, path);
  const core::Framework loaded = io::load_framework(path, framework_config());
  std::size_t mismatched = 0;
  const auto& a = mined.graph().edges();
  const auto& b = loaded.graph().edges();
  if (a.size() != b.size()) {
    result->errors.push_back("round trip kept " + std::to_string(b.size()) +
                             " of " + std::to_string(a.size()) + " edges");
    return 1;
  }
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (a[e].src != b[e].src || a[e].dst != b[e].dst ||
        bits_of(a[e].bleu) != bits_of(b[e].bleu) ||
        (a[e].model == nullptr) != (b[e].model == nullptr)) {
      ++mismatched;
    }
  }

  const util::Rng rng(opt.seed ^ 0x3e7ull);
  core::MultivariateSeries check =
      data::generate_plant(
          plant_config(rng.seed(), kCheckDays, 0.005, false))
          .series;
  const core::DetectionResult x = mined.detect(check);
  const core::DetectionResult y = loaded.detect(check);
  std::size_t windows = 0;
  for (std::size_t t = 0; t < x.anomaly_scores.size(); ++t) {
    bool same = bits_of(x.anomaly_scores[t]) == bits_of(y.anomaly_scores[t]) &&
                x.broken_edges[t] == y.broken_edges[t];
    for (std::size_t e = 0; e < x.edge_bleu.size(); ++e) {
      same = same && bits_of(x.edge_bleu[e][t]) == bits_of(y.edge_bleu[e][t]);
    }
    if (!same) ++mismatched;
    ++windows;
  }
  if (mismatched > 0) {
    result->errors.push_back(std::to_string(mismatched) +
                             " edges or check windows differ after the "
                             "save/load round trip");
  }
  result->detail.push_back(
      {"bench.gate_windows", static_cast<double>(windows), "count"});
  result->attempted += windows;
  return mismatched;
}

}  // namespace

RunResult run_mine(const Options& opt, const Calibration& cal) {
  RunResult result;

  core::MultivariateSeries series =
      data::generate_plant(plant_config(opt.seed, kTrainDays + kDevDays, 0.005,
                                        false))
          .series;
  // Smoke runs mine the first component's three sensors (6 pairs).
  if (opt.smoke) series.resize(kSmokeSensors);
  const core::MultivariateSeries train = day_slice(series, 0, kTrainDays);
  const core::MultivariateSeries dev = day_slice(series, kTrainDays, kDevDays);
  result.lap("inputs");

  RssPeak rss;
  std::optional<Languages> langs;
  std::vector<double> setups;
  {
    const obs::Span span("bench.languages");
    for (std::size_t r = 0; r < kSetups; ++r) {
      const auto t0 = Clock::now();
      Languages built = build_languages(train, dev);
      setups.push_back(seconds_between(t0, Clock::now()));
      if (r + 1 == kSetups) langs.emplace(std::move(built));
    }
  }
  result.lap("setup");

  // Traced runs first mine a 3-sensor subset untraced and traced, for the
  // tracing overhead (the median over its 6 pairs of each pair's slowdown),
  // then the whole graph traced.
  double overhead_pct = 0.0;
  if (opt.traced) {
    const std::vector<core::SensorLanguage> subset(
        langs->languages.begin(), langs->languages.begin() + kSmokeSensors);
    const Mined untraced = mine(subset);
    obs::tracer().enable();
    const Mined traced = mine(subset);
    std::vector<double> overhead;
    for (std::size_t p = 0; p < untraced.pair_ms.size(); ++p) {
      overhead.push_back(trace_overhead_pct(1.0 / untraced.pair_ms[p],
                                            1.0 / traced.pair_ms[p]));
    }
    overhead_pct = median(std::move(overhead));
    obs::metrics().histogram("threadpool.queue_wait_us").reset();
    result.lap("overhead");
  }
  std::optional<Mined> mined;
  {
    const RssSampler sampler(rss);
    mined.emplace(mine(langs->languages));
  }
  obs::tracer().disable();
  result.lap("mine");

  const std::size_t pairs = mined->pair_ms.size();
  result.attempted += pairs;
  result.failed += mined->graph.failures().size();
  Digest digest;
  digest.add(mined->graph.edges().size());
  for (const core::MvrEdge& e : mined->graph.edges()) {
    digest.add(e.src);
    digest.add(e.dst);
    digest.add_bits(e.bleu);
  }
  digest.add(mined->graph.failures().size());
  check_digest(cal, opt, opt.smoke ? "mine-smoke" : "mine", digest.hex(),
               &result);

  core::Framework fw(framework_config());
  fw.restore(langs->encrypter, std::move(mined->graph));
  const std::string artifact =
      opt.cache_dir + "/mine-" + std::to_string(opt.seed) + ".desm";
  {
    const obs::Span span("bench.gate");
    result.failed += gate(opt, fw, artifact, &result);
  }
  result.lap("gate");

  double pair_sum_ms = 0.0;
  for (const double ms : mined->pair_ms) pair_sum_ms += ms;
  const double idle = 1.0 - pair_sum_ms * 1e-3 /
                                (static_cast<double>(kWorkers) * mined->wall_s);
  std::vector<Metric>& d = result.detail;
  d.push_back({"mine_s", mined->wall_s, "s"});
  d.push_back({"core.miner.pair_s.p50", median(mined->pair_ms) * 1e-3, "s"});
  d.push_back({"core.miner.pair_s.max", quantile(mined->pair_ms, 1.0) * 1e-3,
               "s"});
  d.push_back({"core.miner.idle_frac", idle, "ratio"});
  d.push_back({"bench.failed_frac",
               static_cast<double>(result.failed) /
                   static_cast<double>(std::max<std::size_t>(result.attempted, 1)),
               "ratio"});
  if (!opt.traced) {
    std::filesystem::remove(artifact);
    // The median over the 72 pairs: the host's speed swings by a quarter
    // within a second, which one 20-second wall time cannot average out.
    result.end_to_end = {
        {"throughput",
         static_cast<double>(kWorkers) * 1e3 / median(mined->pair_ms), "1/s"},
        {"setup_s", median(setups), "s"},
        {"rss_mb", rss.growth_mib(), "MiB"},
    };
    return result;
  }

  const LayerCosts costs =
      probe_layers({&fw, &series, artifact, opt.seed}, &result);
  std::filesystem::remove(artifact);
  result.lap("probes");
  const double steps = static_cast<double>(
      framework_config().miner.translation.trainer.steps);
  std::vector<Metric>& l = result.per_layer;
  l.push_back({"util.pool_queue_wait_us.p99",
               obs::metrics()
                   .histogram("threadpool.queue_wait_us")
                   .snapshot()
                   .quantile(0.99),
               "us"});
  l.push_back({"bench.worker_busy_frac", 1.0 - idle, "ratio"});
  l.push_back({"bench.layer_accounted_frac",
               (steps * costs.train_step_ms + costs.dev_score_ms) /
                   median(mined->pair_ms),
               "ratio"});
  l.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
  return result;
}

}  // namespace desmine::e2e
