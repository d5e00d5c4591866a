// Continual-lifecycle drift soak (ISSUE 8 acceptance): a slow sensor drift
// is injected into a mini plant, the active graph is mined before the ramp,
// and the full loop runs offline — DriftMonitor verdicts per day, an
// incremental retrain of only the drifted pairs, and the shadow gate over
// the candidate — against a from-scratch remine of the same fresh data.
//
// Measured and recorded in bench_artifacts/BENCH_lifecycle.json:
//   * drift soak timeline — drifting/drifted edge counts per observed day
//   * retrain fraction — drifted edges / total edges (must stay < 25%)
//   * recovery — candidate vs remine alert rate on post-drift normal
//     traffic (gap must stay <= 0.05), and both must still fire on the
//     injected true-fault day
//   * wall time — incremental retrain vs from-scratch remine
//   * gate — the shadow gate passes on drifted-normal traffic and blocks
//     on the true-fault day
//   * shadow overhead — served windows/sec with the candidate shadow
//     armed (sample_rate 1.0, every window double-scored) vs unarmed
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "data/plant.h"
#include "io/serialize.h"
#include "lifecycle/controller.h"
#include "obs/json.h"
#include "serve/session_manager.h"
#include "util/strings.h"
#include "util/table.h"

namespace db = desmine::bench;
namespace dc = desmine::core;
namespace dd = desmine::data;
namespace dl = desmine::lifecycle;
namespace ds = desmine::serve;
using desmine::obs::JsonWriter;

namespace {

constexpr double kAlertThreshold = 0.4;
constexpr std::size_t kFaultDay = 22;      // injected true fault
constexpr std::size_t kRecoveryDay = 24;   // post-drift normal traffic

/// Two components x 3 kept sensors (30 pair models, 10 in the valid band)
/// plus one dropped constant; component 0 drifts over days 6-18 and day 22
/// carries a plant-wide fault. Mirrors tests/test_lifecycle.cpp.
dd::PlantConfig lifecycle_plant_config() {
  dd::PlantConfig cfg;
  cfg.num_components = 2;
  cfg.sensors_per_component = 3;
  cfg.num_popular = 0;
  cfg.num_lazy = 0;
  cfg.num_constant = 1;
  cfg.days = 26;
  cfg.minutes_per_day = 240;
  cfg.anomalies = {{kFaultDay, {}}};
  cfg.drifts = {{/*start_day=*/6, /*ramp_days=*/12, {0},
                 /*phase_fraction=*/0.8, /*delay_step=*/4}};
  cfg.precursors = false;
  cfg.noise = 0.005;
  cfg.seed = 11;
  return cfg;
}

dc::FrameworkConfig lifecycle_framework_config() {
  dc::FrameworkConfig cfg;
  cfg.window = {4, 1, 4, 4};
  cfg.miner.translation.model.embedding_dim = 16;
  cfg.miner.translation.model.hidden_dim = 16;
  cfg.miner.translation.model.num_layers = 1;
  cfg.miner.translation.model.dropout = 0.0f;
  cfg.miner.translation.trainer.steps = 400;
  cfg.miner.translation.trainer.batch_size = 8;
  cfg.miner.seed = 3;
  cfg.miner.threads = 4;
  cfg.miner.checkpoint_path = db::artifact_dir() + "/lifecycle_mine.journal";
  cfg.detector.valid_lo = 55.0;
  cfg.detector.valid_hi = 100.5;
  cfg.detector.tolerance = 10.0;
  cfg.detector.threads = 1;
  return cfg;
}

dl::LifecycleConfig lifecycle_config() {
  dl::LifecycleConfig cfg;
  cfg.drift.ewma_alpha = 0.3;
  cfg.drift.min_observations = 3;
  cfg.drift.hysteresis = 2;
  cfg.drift.drifting_drop = 5.0;
  cfg.drift.drifted_drop = 15.0;
  cfg.retrain.lr_factor = 0.5;
  cfg.retrain.steps = 600;
  cfg.retrain.journal_path = db::artifact_dir() + "/lifecycle_retrain.journal";
  cfg.retrain.warm_start_journal =
      db::artifact_dir() + "/lifecycle_mine.journal";
  cfg.shadow.sample_rate = 1.0;
  cfg.shadow.min_windows = 40;
  cfg.shadow.alert_threshold = kAlertThreshold;
  cfg.shadow.max_alert_rate = 0.4;
  cfg.shadow.min_agreement = 0.0;
  cfg.shadow.max_failures = 0;
  return cfg;
}

std::map<std::string, std::string> tick_states(
    const dc::MultivariateSeries& series, std::size_t t) {
  std::map<std::string, std::string> out;
  for (const auto& sensor : series) out[sensor.name] = sensor.events[t];
  return out;
}

/// Fraction of one day's windows at or above the alert threshold.
double alert_rate(const dc::Framework& fw, const dd::PlantDataset& plant,
                  std::size_t day) {
  const auto r = fw.detect(plant.days_slice(day, 1));
  std::size_t alerts = 0;
  for (double s : r.anomaly_scores) alerts += s >= kAlertThreshold ? 1 : 0;
  return r.anomaly_scores.empty()
             ? 0.0
             : static_cast<double>(alerts) /
                   static_cast<double>(r.anomaly_scores.size());
}

ds::ServeConfig serve_config(const dc::FrameworkConfig& cfg,
                             const dl::LifecycleConfig& lcfg) {
  ds::ServeConfig scfg;
  scfg.detector = cfg.detector;
  scfg.workers = 2;
  scfg.max_batch = 8;
  // Scores are held unpolled until the end of a run and unpolled results
  // count toward the per-session pending budget.
  scfg.limits.max_pending_windows = 256;
  scfg.shadow = lcfg.shadow;
  return scfg;
}

struct ShadowRun {
  double windows_per_sec = 0.0;
  bool gate_passed = false;
  std::size_t sampled = 0;
  double shadow_alert_rate = 0.0;
};

/// Serve one plant day through a fresh SessionManager on the `active`
/// artifact; when `candidate` is non-empty the candidate shadow is armed
/// first, so every delivered window is scored twice (active + mirrored
/// candidate).
ShadowRun run_served_day(const std::string& active,
                         const ds::ServeConfig& scfg,
                         const dd::PlantDataset& plant, std::size_t day,
                         const std::string& candidate) {
  const dc::MultivariateSeries traffic = plant.days_slice(day, 1);
  ShadowRun out;
  const auto t0 = std::chrono::steady_clock::now();
  {
    ds::SessionManager manager(active, scfg);
    if (!candidate.empty()) manager.begin_shadow(candidate);
    const auto id = manager.open();
    const std::size_t ticks = traffic.front().events.size();
    for (std::size_t t = 0; t < ticks; ++t) {
      manager.ingest(id, tick_states(traffic, t));
    }
    manager.drain();
    std::size_t windows = 0;
    while (manager.poll(id)) ++windows;
    out.windows_per_sec =
        static_cast<double>(windows) /
        std::max(std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count(),
                 1e-9);
    if (!candidate.empty()) {
      out.gate_passed = manager.shadow_gate_passed();
      if (const auto st = manager.shadow_status()) {
        out.sampled = st->sampled;
        out.shadow_alert_rate = st->alert_rate();
      }
      manager.rollback();  // bench only measures; never promotes
    }
  }
  return out;
}

}  // namespace

int main() {
  db::enable_observability("warn");
  const dd::PlantDataset plant = dd::generate_plant(lifecycle_plant_config());
  const dc::FrameworkConfig cfg = lifecycle_framework_config();
  const dl::LifecycleConfig lcfg = lifecycle_config();

  // Active graph: mined before the drift ramp starts.
  const auto t_mine = std::chrono::steady_clock::now();
  dc::Framework fw(cfg);
  fw.fit(plant.days_slice(0, 4), plant.days_slice(4, 2));
  const double mine_wall_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t_mine)
                                 .count();
  std::cout << "mined " << fw.graph().edges().size() << " edges in "
            << desmine::util::fixed(mine_wall_s, 1) << "s\n";

  JsonWriter json;
  json.begin_object().key("bench").value("lifecycle");
  json.key("alert_threshold").value(kAlertThreshold);
  json.key("edges_total")
      .value(static_cast<std::uint64_t>(fw.graph().edges().size()));

  // Drift soak: observe each ramp day, record the verdict timeline.
  dl::LifecycleController ctl(fw, lcfg);
  desmine::util::Table soak({"day", "windows", "mean score", "drifting",
                             "drifted"});
  json.key("drift_soak").begin_array();
  for (std::size_t day = 6; day <= 19; ++day) {
    const auto rep = ctl.observe(plant.days_slice(day, 1));
    soak.add_row({std::to_string(day), std::to_string(rep.windows),
                  desmine::util::fixed(rep.mean_score, 3),
                  std::to_string(rep.drifting), std::to_string(rep.drifted)});
    json.begin_object();
    json.key("day").value(static_cast<std::uint64_t>(day));
    json.key("windows").value(static_cast<std::uint64_t>(rep.windows));
    json.key("mean_score").value(rep.mean_score);
    json.key("drifting").value(static_cast<std::uint64_t>(rep.drifting));
    json.key("drifted").value(static_cast<std::uint64_t>(rep.drifted));
    json.end_object();
  }
  json.end_array();
  std::cout << soak.to_text("drift soak (component 0 ramps over days 6-18)");

  // Incremental retrain of only the drifted pairs, warm-started from the
  // miner's checkpoint sidecars.
  const std::string candidate_path =
      db::artifact_dir() + "/lifecycle_candidate.bin";
  const auto t_retrain = std::chrono::steady_clock::now();
  const auto cand_report = ctl.build_candidate(
      plant.days_slice(18, 3), plant.days_slice(21, 1), candidate_path);
  const double retrain_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_retrain)
          .count();
  const double retrain_fraction =
      static_cast<double>(cand_report.retrain.pairs.size()) /
      static_cast<double>(cand_report.edges_total);
  dc::FrameworkConfig overlay;
  overlay.detector = cfg.detector;
  const dc::Framework candidate =
      desmine::io::load_framework(candidate_path, overlay);

  // From-scratch remine of the same fresh data: the recovery reference.
  dc::FrameworkConfig remine_cfg = cfg;
  remine_cfg.miner.checkpoint_path.clear();
  const auto t_remine = std::chrono::steady_clock::now();
  dc::Framework remine(remine_cfg);
  remine.fit(plant.days_slice(18, 3), plant.days_slice(21, 1));
  const double remine_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_remine)
          .count();

  const double active_recovery = alert_rate(fw, plant, kRecoveryDay);
  const double cand_recovery = alert_rate(candidate, plant, kRecoveryDay);
  const double remine_recovery = alert_rate(remine, plant, kRecoveryDay);
  const double cand_fault = alert_rate(candidate, plant, kFaultDay);
  const double remine_fault = alert_rate(remine, plant, kFaultDay);
  const double recovery_gap = std::abs(cand_recovery - remine_recovery);

  desmine::util::Table recovery({"graph", "day-24 alert rate (normal)",
                                 "day-22 alert rate (fault)"});
  recovery.add_row({"active (stale)", desmine::util::fixed(active_recovery, 3),
                    desmine::util::fixed(alert_rate(fw, plant, kFaultDay), 3)});
  recovery.add_row({"candidate", desmine::util::fixed(cand_recovery, 3),
                    desmine::util::fixed(cand_fault, 3)});
  recovery.add_row({"remine", desmine::util::fixed(remine_recovery, 3),
                    desmine::util::fixed(remine_fault, 3)});
  std::cout << recovery.to_text("post-drift recovery vs from-scratch remine");

  // Shadow gate: must pass on drifted-normal traffic, must block on the
  // injected true-fault day. Serving runs from a saved copy of the active
  // graph.
  const std::string active_path = db::artifact_dir() + "/lifecycle_active.bin";
  desmine::io::save_framework(fw, active_path);
  const ds::ServeConfig scfg = serve_config(cfg, lcfg);
  const ShadowRun gate_normal =
      run_served_day(active_path, scfg, plant, 23, candidate_path);
  const ShadowRun gate_fault =
      run_served_day(active_path, scfg, plant, kFaultDay, candidate_path);

  // Shadow overhead: windows/sec on the same served day with the shadow
  // unarmed vs armed at sample_rate 1.0. Best-of-3, alternating order.
  double off_wps = 0.0, on_wps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const ShadowRun off = run_served_day(active_path, scfg, plant, 23, "");
    const ShadowRun on =
        run_served_day(active_path, scfg, plant, 23, candidate_path);
    off_wps = std::max(off_wps, off.windows_per_sec);
    on_wps = std::max(on_wps, on.windows_per_sec);
  }
  const double shadow_overhead_pct =
      std::max(0.0, (off_wps - on_wps) / std::max(off_wps, 1e-9) * 100.0);

  json.key("drifted_edges")
      .value(static_cast<std::uint64_t>(cand_report.retrain.pairs.size()));
  json.key("retrained")
      .value(static_cast<std::uint64_t>(cand_report.retrain.retrained));
  json.key("retrain_failed")
      .value(static_cast<std::uint64_t>(cand_report.retrain.failed));
  json.key("retrain_fraction").value(retrain_fraction);
  json.key("mine_wall_s").value(mine_wall_s);
  json.key("retrain_wall_s").value(retrain_wall_s);
  json.key("remine_wall_s").value(remine_wall_s);
  json.key("retrain_speedup_vs_remine")
      .value(remine_wall_s / std::max(retrain_wall_s, 1e-9));
  json.key("alert_rates").begin_object();
  json.key("active_recovery_day").value(active_recovery);
  json.key("candidate_recovery_day").value(cand_recovery);
  json.key("remine_recovery_day").value(remine_recovery);
  json.key("candidate_fault_day").value(cand_fault);
  json.key("remine_fault_day").value(remine_fault);
  json.end_object();
  json.key("recovery_gap").value(recovery_gap);
  json.key("gate").begin_object();
  json.key("normal_day_passed").value(gate_normal.gate_passed);
  json.key("normal_day_sampled")
      .value(static_cast<std::uint64_t>(gate_normal.sampled));
  json.key("normal_day_shadow_alert_rate").value(gate_normal.shadow_alert_rate);
  json.key("fault_day_passed").value(gate_fault.gate_passed);
  json.key("fault_day_shadow_alert_rate").value(gate_fault.shadow_alert_rate);
  json.end_object();
  json.key("shadow_off_windows_per_sec").value(off_wps);
  json.key("shadow_on_windows_per_sec").value(on_wps);
  json.key("shadow_overhead_pct").value(shadow_overhead_pct);
  json.end_object();

  db::expectation("retrained fraction of edges", "< 25%",
                  desmine::util::fixed(retrain_fraction * 100.0, 1) + "% (" +
                      std::to_string(cand_report.retrain.pairs.size()) +
                      " of " + std::to_string(cand_report.edges_total) + ")");
  db::expectation("candidate vs remine alert-rate gap (day 24)", "<= 0.05",
                  desmine::util::fixed(recovery_gap, 3));
  db::expectation("candidate alert rate on true-fault day", ">= 0.9",
                  desmine::util::fixed(cand_fault, 3));
  db::expectation("incremental retrain vs remine wall time", "faster",
                  desmine::util::fixed(retrain_wall_s, 1) + "s vs " +
                      desmine::util::fixed(remine_wall_s, 1) + "s");
  db::expectation("shadow gate on drifted-normal day", "passes",
                  gate_normal.gate_passed ? "passed" : "BLOCKED");
  db::expectation("shadow gate on true-fault day", "blocks",
                  gate_fault.gate_passed ? "PASSED" : "blocked");
  db::expectation("shadow scoring overhead (sample_rate 1.0)", "reported",
                  desmine::util::fixed(shadow_overhead_pct, 1) + "%");

  const std::string out_path = db::artifact_dir() + "/BENCH_lifecycle.json";
  std::ofstream out(out_path);
  out << json.str() << "\n";
  std::cout << "wrote " << out_path << "\n";
  db::dump_observability("lifecycle");

  const bool ok = retrain_fraction < 0.25 && recovery_gap <= 0.05 &&
                  cand_fault >= 0.9 && gate_normal.gate_passed &&
                  !gate_fault.gate_passed;
  return ok ? 0 : 1;
}
