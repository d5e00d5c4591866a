// End-to-end and chaos tests for the continual mining lifecycle
// (DESIGN.md §14): drift detection over a slow plant migration, incremental
// retraining of exactly the drifted pairs, and shadow-gated promotion with
// rollback in the serving layer.
//
// The shared fixture mines an active framework on the pre-drift days of a
// 26-day plant whose component 0 slowly migrates (phase slip + response
// delay ramping over days 6..17) and which suffers one injected true fault
// on day 22, observes the ramp through the LifecycleController, builds one
// candidate artifact, and remines a from-scratch reference on the same
// fresh days — the acceptance bar the candidate's precision is held to.
//
// The chaos half arms the deterministic FaultInjector at lifecycle.retrain
// and serve.shadow and proves a crashed retrain, a corrupt candidate
// artifact, and a poisoned candidate each leave the active generation
// bit-identical (IEEE-754) to an undisturbed replay.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/mvr_graph.h"
#include "core/online.h"
#include "data/plant.h"
#include "io/artifact_map.h"
#include "io/config_json.h"
#include "io/serialize.h"
#include "lifecycle/controller.h"
#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "serve/session_manager.h"
#include "tensor/kernels.h"
#include "util/error.h"

namespace dc = desmine::core;
namespace dd = desmine::data;
namespace dl = desmine::lifecycle;
namespace ds = desmine::serve;
namespace dio = desmine::io;
namespace dr = desmine::robust;

namespace {

// The drift fixtures assert exact drifted-pair counts from seed-trained
// models — deterministic only under fixed kernel numerics. Pin the scalar
// reference backend before main() so the fixtures stay valid regardless of
// the machine's auto-detected backend (DESIGN.md §16).
const bool kPinScalarBackend = [] {
  desmine::tensor::kernels::set_backend(
      desmine::tensor::kernels::Backend::kScalar);
  return true;
}();

constexpr char kMineJournal[] = "/tmp/desmine_test_lifecycle_mine.journal";
constexpr char kRetrainJournal[] =
    "/tmp/desmine_test_lifecycle_retrain.journal";
constexpr char kCandidatePath[] = "/tmp/desmine_test_lifecycle_candidate.bin";
/// The active framework, saved for the serving tests.
constexpr char kActivePath[] = "/tmp/desmine_test_lifecycle_active.bin";

/// Alert threshold shared by batch alert rates and the shadow gate.
constexpr double kAlertThreshold = 0.4;

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// The process-wide injector is shared state: disarm on entry and exit so a
/// failing assertion never leaks faults into the next test.
struct ScopedFaults {
  ScopedFaults() { dr::FaultInjector::instance().clear(); }
  ~ScopedFaults() { dr::FaultInjector::instance().clear(); }
};

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_test_" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

/// Two components of three sensors each; component 0 migrates slowly over
/// days 6..17 (phase slip 0.8 of a period plus a ramped response delay) and
/// day 22 is a system-wide true fault. Days 0..5 are the pre-drift training
/// regime, 18..21 the drifted-but-normal retrain regime, 23..25 the drifted
/// steady state the recovered detector is judged on.
dd::PlantConfig plant_config() {
  dd::PlantConfig cfg;
  cfg.num_components = 2;
  cfg.sensors_per_component = 3;
  cfg.num_popular = 0;
  cfg.num_lazy = 0;
  cfg.num_constant = 1;
  cfg.days = 26;
  cfg.minutes_per_day = 240;
  cfg.anomalies = {{22, {}}};
  cfg.drifts = {{/*start_day=*/6, /*ramp_days=*/12, /*components=*/{0},
                 /*phase_fraction=*/0.8, /*delay_step=*/4}};
  cfg.precursors = false;
  cfg.noise = 0.005;
  cfg.seed = 11;
  return cfg;
}

dc::FrameworkConfig framework_config() {
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
  // Checkpoint sidecars double as the retrainer's warm-start source.
  cfg.miner.checkpoint_path = kMineJournal;
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
  cfg.retrain.journal_path = kRetrainJournal;
  cfg.retrain.warm_start_journal = kMineJournal;
  cfg.shadow.sample_rate = 1.0;
  cfg.shadow.min_windows = 40;
  cfg.shadow.alert_threshold = kAlertThreshold;
  cfg.shadow.max_alert_rate = kAlertThreshold;
  cfg.shadow.min_agreement = 0.0;
  cfg.shadow.max_failures = 0;
  return cfg;
}

struct Fixture {
  dd::PlantConfig pcfg = plant_config();
  dd::PlantDataset plant = dd::generate_plant(pcfg);
  dc::FrameworkConfig cfg = framework_config();
  dc::Framework active{cfg};
  dl::LifecycleConfig lcfg = lifecycle_config();
  std::unique_ptr<dl::LifecycleController> controller;
  std::vector<dl::LifecycleController::PeriodReport> reports;
  dl::LifecycleController::CandidateReport candidate;
  std::unique_ptr<dc::Framework> remine;

  Fixture() {
    std::remove(kMineJournal);
    std::remove(kRetrainJournal);
    std::remove(kCandidatePath);
    active.fit(plant.days_slice(0, 4), plant.days_slice(4, 2));
    dio::save_framework(active, kActivePath);
    controller = std::make_unique<dl::LifecycleController>(active, lcfg);
    for (std::size_t day = 6; day <= 19; ++day) {
      reports.push_back(controller->observe(plant.days_slice(day, 1)));
    }
    candidate = controller->build_candidate(retrain_train(), retrain_dev(),
                                            kCandidatePath);
    // From-scratch reference on the same fresh normal-operation days — the
    // precision bar the incremental candidate must come within 5% of.
    dc::FrameworkConfig scratch = cfg;
    scratch.miner.checkpoint_path.clear();
    remine = std::make_unique<dc::Framework>(scratch);
    remine->fit(retrain_train(), retrain_dev());
  }

  dc::MultivariateSeries retrain_train() const {
    return plant.days_slice(18, 3);
  }
  dc::MultivariateSeries retrain_dev() const { return plant.days_slice(21, 1); }

  /// Fraction of one day's windows at or above the alert threshold.
  double alert_rate(const dc::Framework& fw, std::size_t day) const {
    const auto result = fw.detect(plant.days_slice(day, 1));
    std::size_t alerts = 0;
    for (const double s : result.anomaly_scores) {
      alerts += s >= kAlertThreshold ? 1 : 0;
    }
    return result.anomaly_scores.empty()
               ? 0.0
               : static_cast<double>(alerts) /
                     static_cast<double>(result.anomaly_scores.size());
  }

  ds::ServeConfig serve_config() const {
    ds::ServeConfig scfg;
    scfg.detector = cfg.detector;
    scfg.workers = 2;
    scfg.max_batch = 8;
    // The promotion test holds two full days of results unpolled; keep the
    // pending budget (which counts unpolled deliveries) out of the way.
    scfg.limits.max_pending_windows = 256;
    scfg.shadow = lcfg.shadow;
    return scfg;
  }

  /// True when the graph node belongs to the drifting component.
  bool in_component0(std::size_t node) const {
    return active.graph().sensor_names()[node].rfind("c0.", 0) == 0;
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

/// Sequential OnlineDetector replay on the ACTIVE generation — the
/// bit-identity reference for every scenario where promotion must not have
/// touched serving.
std::vector<dc::OnlineDetector::WindowResult> replay_windows(
    const Fixture& f, const dc::MultivariateSeries& series) {
  dc::OnlineDetector online(f.active.graph(), f.active.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::vector<dc::OnlineDetector::WindowResult> out;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    const auto r = online.push(tick_states(series, t));
    if (r) out.push_back(*r);
  }
  return out;
}

void feed(ds::SessionManager& manager, std::uint64_t session,
          const dc::MultivariateSeries& series, std::size_t ticks,
          std::size_t from = 0) {
  for (std::size_t t = from; t < ticks; ++t) {
    ASSERT_EQ(manager.ingest(session, tick_states(series, t)),
              ds::IngestStatus::kAccepted)
        << "tick " << t;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Warm-start plumbing

// The retrainer's sidecar lookup must agree with the miner's pair
// enumeration, or warm starts silently load the wrong model.
TEST(Lifecycle, PairIndexMatchesMinerEnumeration) {
  const std::size_t n = 5;
  std::size_t expected = 0;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      EXPECT_EQ(dl::pair_index_of(src, dst, n), expected) << src << "->" << dst;
      ++expected;
    }
  }
  EXPECT_EQ(expected, n * (n - 1));
}

// ---------------------------------------------------------------------------
// Config round-trip (ISSUE 8 satellite)

TEST(Lifecycle, ConfigRoundTripCoversLifecycle) {
  dio::RunConfig rc;
  rc.lifecycle.drift.ewma_alpha = 0.3;
  rc.lifecycle.drift.min_observations = 5;
  rc.lifecycle.drift.hysteresis = 4;
  rc.lifecycle.drift.drifting_drop = 7.5;
  rc.lifecycle.drift.drifted_drop = 20.0;
  rc.lifecycle.drift.break_rate = 0.6;
  rc.lifecycle.drift.max_unk_rate = 0.125;
  rc.lifecycle.retrain.lr_factor = 0.25;
  rc.lifecycle.retrain.steps = 123;
  rc.lifecycle.retrain.journal_path = "/tmp/retrain.journal";
  rc.lifecycle.retrain.warm_start_journal = "/tmp/mine.journal";
  rc.lifecycle.shadow.sample_rate = 0.5;
  rc.lifecycle.shadow.min_windows = 17;
  rc.lifecycle.shadow.alert_threshold = 0.45;
  rc.lifecycle.shadow.max_alert_rate = 0.1;
  rc.lifecycle.shadow.min_agreement = 0.8;
  rc.lifecycle.shadow.max_failures = 2;

  const std::string text = dio::run_config_to_json(rc);
  const dio::RunConfig parsed = dio::run_config_from_json(text);
  EXPECT_EQ(parsed.lifecycle.drift.ewma_alpha, 0.3);
  EXPECT_EQ(parsed.lifecycle.drift.min_observations, 5u);
  EXPECT_EQ(parsed.lifecycle.drift.hysteresis, 4u);
  EXPECT_EQ(parsed.lifecycle.drift.drifting_drop, 7.5);
  EXPECT_EQ(parsed.lifecycle.drift.drifted_drop, 20.0);
  EXPECT_EQ(parsed.lifecycle.drift.break_rate, 0.6);
  EXPECT_EQ(parsed.lifecycle.drift.max_unk_rate, 0.125);
  EXPECT_EQ(parsed.lifecycle.retrain.lr_factor, 0.25);
  EXPECT_EQ(parsed.lifecycle.retrain.steps, 123u);
  EXPECT_EQ(parsed.lifecycle.retrain.journal_path, "/tmp/retrain.journal");
  EXPECT_EQ(parsed.lifecycle.retrain.warm_start_journal, "/tmp/mine.journal");
  EXPECT_EQ(parsed.lifecycle.shadow.min_windows, 17u);
  EXPECT_EQ(parsed.lifecycle.shadow.max_failures, 2u);

  // One config file drives both halves of the loop: the loader mirrors
  // lifecycle.shadow into the serving config.
  EXPECT_EQ(parsed.serve.shadow.sample_rate, 0.5);
  EXPECT_EQ(parsed.serve.shadow.alert_threshold, 0.45);
  EXPECT_EQ(parsed.serve.shadow.max_alert_rate, 0.1);
  EXPECT_EQ(parsed.serve.shadow.min_agreement, 0.8);

  // Byte-exact fixed point: emit(parse(emit(x))) == emit(x).
  EXPECT_EQ(dio::run_config_to_json(parsed), text);

  // Partial override files work: absent keys keep their defaults.
  const dio::RunConfig partial = dio::run_config_from_json(
      R"({"lifecycle": {"drift": {"drifted_drop": 30.0}}})");
  EXPECT_EQ(partial.lifecycle.drift.drifted_drop, 30.0);
  EXPECT_EQ(partial.lifecycle.drift.drifting_drop,
            dl::DriftConfig{}.drifting_drop);

  // Strict validation names the offending dotted key.
  try {
    dio::run_config_from_json(
        R"({"lifecycle": {"drift": {"ewma_alphaz": 0.1}}})");
    FAIL() << "unknown key must throw";
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("lifecycle.drift.ewma_alphaz"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(dio::run_config_from_json(
                   R"({"lifecycle": {"drift": {"ewma_alpha": 0.0}}})"),
               desmine::PreconditionError);
  EXPECT_THROW(
      dio::run_config_from_json(
          R"({"lifecycle": {"drift": {"drifting_drop": 40.0}}})"),
      desmine::PreconditionError);  // would exceed the default drifted_drop
  EXPECT_THROW(dio::run_config_from_json(
                   R"({"lifecycle": {"shadow": {"sample_rate": 0.0}}})"),
               desmine::PreconditionError);
}

// ---------------------------------------------------------------------------
// Drift monitor semantics (stats-only graph, no trained models needed)

// One anomalous period — however severe — must never flip an edge's
// verdict: the hysteresis streak requires consecutive agreeing periods, and
// recovery back to stable is damped the same way.
TEST(Lifecycle, DriftMonitorHysteresisResistsTransients) {
  dc::MvrGraph graph({"a", "b", "c"});
  graph.add_edge({0, 1, /*bleu=*/90.0, 0.0, nullptr});
  graph.add_edge({1, 0, /*bleu=*/30.0, 0.0, nullptr});  // below the band
  dc::DetectorConfig detector;
  detector.valid_lo = 55.0;
  detector.valid_hi = 100.5;

  dl::DriftConfig cfg;
  cfg.ewma_alpha = 1.0;  // latest observation wins: exact arithmetic below
  cfg.min_observations = 3;
  cfg.hysteresis = 2;
  cfg.drifting_drop = 5.0;
  cfg.drifted_drop = 15.0;
  dl::DriftMonitor monitor(graph, detector, cfg);
  ASSERT_EQ(monitor.edge_count(), 1u);  // the out-of-band edge is ignored
  EXPECT_EQ(monitor.edges().front().baseline, 90.0);

  const dl::EdgeObservation good{/*bleu=*/90.0, /*break_rate=*/0.0};
  const dl::EdgeObservation crashed{/*bleu=*/10.0, /*break_rate=*/1.0};

  // Before min_observations, even a sustained deficit cannot transition.
  monitor.observe({crashed});
  monitor.observe({crashed});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kStable);

  // Settle, then inject one true-fault period: the streak resets on the
  // next good period and the verdict never moves.
  monitor.observe({good});
  monitor.observe({good});
  monitor.observe({crashed});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kStable);
  monitor.observe({good});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kStable);

  // A sustained deficit >= drifted_drop commits after `hysteresis`
  // consecutive periods.
  const dl::EdgeObservation drifted{/*bleu=*/70.0, /*break_rate=*/0.0};
  monitor.observe({drifted});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kStable);
  monitor.observe({drifted});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kDrifted);
  EXPECT_EQ(monitor.drifted_pairs(),
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 1}}));

  // Recovery is damped by the same streak.
  monitor.observe({good});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kDrifted);
  monitor.observe({good});
  EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kStable);
}

// The break-rate and <unk>-rate side channels flag an edge as drifting even
// while its BLEU deficit is still inside drifting_drop.
TEST(Lifecycle, DriftMonitorBreakRateAndUnkSignals) {
  dc::MvrGraph graph({"a", "b"});
  graph.add_edge({0, 1, /*bleu=*/90.0, 0.0, nullptr});
  dc::DetectorConfig detector;
  detector.valid_lo = 55.0;
  detector.valid_hi = 100.5;

  dl::DriftConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.min_observations = 1;
  cfg.hysteresis = 1;
  cfg.break_rate = 0.5;
  cfg.max_unk_rate = 0.25;
  {
    dl::DriftMonitor monitor(graph, detector, cfg);
    monitor.observe({{/*bleu=*/90.0, /*break_rate=*/0.9}});
    EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kDrifting);
  }
  {
    dl::DriftMonitor monitor(graph, detector, cfg);
    monitor.observe({{/*bleu=*/90.0, /*break_rate=*/0.0}},
                    /*sensor_unk=*/{0.5, 0.0});
    EXPECT_EQ(monitor.edges().front().state, dl::DriftState::kDrifting);
    EXPECT_EQ(monitor.edges().front().unk_rate, 0.5);
  }
}

// ---------------------------------------------------------------------------
// The full loop on the slow-drift corpus

// Acceptance core: drift is detected in the migrated component only, the
// retrain touches < 25% of the edges (warm-started from the miner's
// checkpoint sidecars), and the candidate restores detection precision to
// within 5% of a from-scratch remine — while still alerting on the true
// fault day, so the loop never retrains itself into masking anomalies.
TEST(Lifecycle, FullLoopRecoversFromSlowDrift) {
  auto& f = fixture();

  // The monitor covers exactly the valid-band (within-component) edges.
  ASSERT_EQ(f.controller->monitor().edge_count(), 10u);

  // The early ramp is indistinguishable from normal traffic: nothing
  // drifts in the first observation periods (days 6..8).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.reports[i].drifting, 0u) << "day " << 6 + i;
    EXPECT_EQ(f.reports[i].drifted, 0u) << "day " << 6 + i;
  }
  // By the end of the ramp every migrated-component edge is drifted and no
  // other edge ever left stable.
  const auto drifted = f.controller->drifted_pairs();
  ASSERT_EQ(drifted.size(), 5u);
  EXPECT_EQ(f.reports.back().drifted, 5u);
  EXPECT_EQ(f.reports.back().drifting, 0u);
  for (const auto& [src, dst] : drifted) {
    EXPECT_TRUE(f.in_component0(src) && f.in_component0(dst))
        << src << "->" << dst;
  }

  // Incremental: fewer than a quarter of the edges were retrained, every
  // retrain succeeded, and every one warm-started from a mined sidecar.
  const auto& report = f.candidate.retrain;
  EXPECT_EQ(f.candidate.edges_total, 30u);
  EXPECT_LT(static_cast<double>(drifted.size()),
            0.25 * static_cast<double>(f.candidate.edges_total));
  EXPECT_EQ(report.retrained, 5u);
  EXPECT_EQ(report.failed, 0u);
  for (const auto& pair : report.pairs) {
    EXPECT_TRUE(pair.ok) << pair.error;
    EXPECT_TRUE(pair.warm_started) << pair.src << "->" << pair.dst;
    EXPECT_FALSE(pair.model_file.empty());
    EXPECT_TRUE(file_exists(pair.model_file)) << pair.model_file;
  }
  EXPECT_TRUE(file_exists(kRetrainJournal));

  // Load the candidate artifact exactly the way the serving layer does.
  dc::FrameworkConfig overlay;
  overlay.detector = f.cfg.detector;
  const dc::Framework candidate =
      dio::load_framework(kCandidatePath, overlay);

  // Day 24 is drifted steady state, no fault. The stale active graph
  // false-alarms heavily; the candidate is within 5% of the from-scratch
  // remine; and the remine itself confirms the drifted regime is normal
  // (a freshly-mined graph does not flag it).
  const double active_rate = f.alert_rate(f.active, 24);
  const double candidate_rate = f.alert_rate(candidate, 24);
  const double remine_rate = f.alert_rate(*f.remine, 24);
  EXPECT_GE(active_rate, 0.4);
  EXPECT_LE(remine_rate, 0.3);
  EXPECT_NEAR(candidate_rate, remine_rate, 0.05);

  // Recovery must not cost sensitivity: the candidate still fires hard on
  // the injected true fault, like the remine does.
  EXPECT_GE(f.alert_rate(candidate, 22), 0.9);
  EXPECT_GE(f.alert_rate(*f.remine, 22), 0.9);
}

// Serving half of the loop: arm the candidate, shadow-score a day of
// drifted-but-normal live traffic, pass the gate, promote — and prove the
// client-visible stream never dropped or misordered a window, pre-promotion
// scores are bit-identical to the active replay, post-promotion serving is
// quiet, and the retired generation's models drain to zero.
TEST(Lifecycle, ShadowGatedPromotionRestoresQuietServing) {
  auto& f = fixture();
  ds::SessionManager manager(kActivePath, f.serve_config());
  const std::uint64_t id = manager.open();
  const auto traffic = f.plant.days_slice(23, 2);  // day 23 then day 24
  const std::size_t day_ticks = f.pcfg.minutes_per_day;

  EXPECT_EQ(manager.begin_shadow(kCandidatePath), 2u);
  feed(manager, id, traffic, day_ticks);
  manager.drain();

  const auto status = manager.shadow_status();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->candidate_id, 2u);
  EXPECT_EQ(status->path, kCandidatePath);
  EXPECT_GE(status->sampled, f.lcfg.shadow.min_windows);
  EXPECT_EQ(status->failures, 0u);
  // The candidate is quiet on drifted-normal traffic while the active
  // generation false-alarms — the exact asymmetry the gate promotes on.
  EXPECT_LE(status->alert_rate(), f.lcfg.shadow.max_alert_rate);
  EXPECT_GT(status->active_alerts, status->candidate_alerts);
  ASSERT_TRUE(manager.shadow_gate_passed());

  EXPECT_EQ(manager.promote(), 2u);
  EXPECT_EQ(manager.generation(), 2u);
  EXPECT_FALSE(manager.shadow_status().has_value());

  feed(manager, id, traffic, 2 * day_ticks, day_ticks);
  manager.drain();

  // Zero dropped, zero misordered across the promotion; every window that
  // completed before the swap is bit-identical to the active replay.
  const auto expected = replay_windows(f, traffic);
  const std::size_t pre_promote =
      replay_windows(f, f.plant.days_slice(23, 1)).size();
  std::size_t next_index = 0;
  std::size_t post_windows = 0, post_alerts = 0;
  while (const auto r = manager.poll(id)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);
    EXPECT_FALSE(r->shed);
    if (next_index < pre_promote) {
      EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
          << "window " << next_index;
    } else if (next_index >= pre_promote + 2) {
      // Past the boundary windows, generation 2 serves: drifted steady
      // state scores quiet again.
      ++post_windows;
      post_alerts += r->anomaly_score >= kAlertThreshold ? 1 : 0;
    }
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());
  ASSERT_GT(post_windows, 0u);
  EXPECT_LE(static_cast<double>(post_alerts) /
                static_cast<double>(post_windows),
            0.35);
  EXPECT_EQ(manager.stats(id).shed, 0u);

  // The stream is drained, so the retired generation's models must be
  // released; the scheduler drops its last edge states just after the
  // final finalize, so allow a brief grace period.
  for (int i = 0; i < 200 && manager.registry().retired_live() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(manager.registry().retired_live(), 0u);
}

// During the injected true-fault day both generations alert heavily, the
// quietness gate fails, promote() refuses, and rollback leaves the active
// generation serving bit-identically — the loop can never promote itself
// into masking a live anomaly.
TEST(Lifecycle, GateBlocksPromotionDuringTrueFault) {
  auto& f = fixture();
  ds::SessionManager manager(kActivePath, f.serve_config());
  const std::uint64_t id = manager.open();
  const auto fault_day = f.plant.days_slice(22, 1);

  EXPECT_EQ(manager.begin_shadow(kCandidatePath), 2u);
  feed(manager, id, fault_day, fault_day.front().events.size());
  manager.drain();

  const auto status = manager.shadow_status();
  ASSERT_TRUE(status.has_value());
  EXPECT_GE(status->sampled, f.lcfg.shadow.min_windows);
  EXPECT_GT(status->alert_rate(), 0.5);  // the candidate sees the fault too
  EXPECT_FALSE(manager.shadow_gate_passed());
  EXPECT_THROW(manager.promote(), desmine::PreconditionError);
  EXPECT_EQ(manager.generation(), 1u);

  EXPECT_EQ(manager.rollback(), kCandidatePath);
  EXPECT_FALSE(manager.shadow_status().has_value());
  EXPECT_THROW(manager.rollback(), desmine::PreconditionError);

  // Serving never left the active generation: bit-identical to replay.
  const auto expected = replay_windows(f, fault_day);
  std::size_t next_index = 0;
  while (const auto r = manager.poll(id)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());
  EXPECT_EQ(manager.registry().retired_live(), 0u);
}

// ---------------------------------------------------------------------------
// Chaos: crash, corruption, poison

// A retrain crash (injected kAbort = simulated process death) aborts the
// whole cycle before any candidate artifact exists: nothing for the serving
// layer to arm, the controller's active state is untouched.
TEST(Lifecycle, RetrainCrashLeavesNoCandidateArtifact) {
  auto& f = fixture();
  ScopedFaults guard;
  const auto drifted = f.controller->drifted_pairs();
  ASSERT_FALSE(drifted.empty());
  const std::string key = std::to_string(drifted.front().first) + "->" +
                          std::to_string(drifted.front().second);
  dr::FaultInjector::instance().arm("lifecycle.retrain", key,
                                    dr::FaultAction::kAbort, 1);

  TempFile out("lifecycle_crash.bin");
  EXPECT_THROW(f.controller->build_candidate(f.retrain_train(),
                                             f.retrain_dev(), out.path),
               dr::Interrupted);
  EXPECT_FALSE(file_exists(out.path));
  // The monitor still holds its verdicts: the cycle can simply be re-run.
  EXPECT_EQ(f.controller->drifted_pairs().size(), drifted.size());
}

// A single pair's retrain failure (injected throw) is contained: the pair
// keeps its old edge in the candidate, everything else retrains, and the
// artifact is still written.
TEST(Lifecycle, RetrainFailureKeepsOldEdge) {
  auto& f = fixture();
  ScopedFaults guard;
  const auto drifted = f.controller->drifted_pairs();
  ASSERT_GE(drifted.size(), 2u);
  const auto [fsrc, fdst] = drifted.front();
  dr::FaultInjector::instance().arm(
      "lifecycle.retrain", std::to_string(fsrc) + "->" + std::to_string(fdst),
      dr::FaultAction::kThrow, 1);

  TempFile out("lifecycle_partial.bin");
  const auto report =
      f.controller->build_candidate(f.retrain_train(), f.retrain_dev(),
                                    out.path);
  EXPECT_EQ(report.retrain.failed, 1u);
  EXPECT_EQ(report.retrain.retrained, drifted.size() - 1);

  double active_bleu = 0.0;
  for (const auto& e : f.active.graph().edges()) {
    if (e.src == fsrc && e.dst == fdst) active_bleu = e.bleu;
  }
  for (const auto& pair : report.retrain.pairs) {
    if (pair.src != fsrc || pair.dst != fdst) {
      EXPECT_TRUE(pair.ok) << pair.error;
      continue;
    }
    EXPECT_FALSE(pair.ok);
    EXPECT_FALSE(pair.error.empty());
  }

  // The failed pair's edge in the candidate is the active edge, verbatim.
  dc::FrameworkConfig overlay;
  overlay.detector = f.cfg.detector;
  const dc::Framework candidate = dio::load_framework(out.path, overlay);
  bool found = false;
  for (const auto& e : candidate.graph().edges()) {
    if (e.src == fsrc && e.dst == fdst) {
      EXPECT_EQ(bits(e.bleu), bits(active_bleu));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// A corrupt candidate artifact must never arm a scorer: begin_shadow throws
// on the CRC check, no shadow state appears, and serving stays bit-identical
// on the untouched generation.
TEST(Lifecycle, CorruptCandidateArtifactNeverArms) {
  auto& f = fixture();
  TempFile corrupt("lifecycle_corrupt.bin");
  {
    std::ifstream in(kCandidatePath, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 64u);
    // Flip a bit inside a CRC-covered weight region (the candidate is a v4
    // mapped artifact; a blind mid-file flip could land in CRC-exempt
    // alignment padding). Weight CRCs verify lazily on materialization, so
    // this also proves begin_shadow's eager verify_all sweep.
    std::size_t flip_at = bytes.size() / 2;
    {
      const auto map = dio::ArtifactMap::open(kCandidatePath);
      for (const dio::EdgeEntry& e : map->edges()) {
        if (e.has_model) {
          flip_at = e.weights_off + e.weights_len / 2;
          break;
        }
      }
    }
    bytes[flip_at] ^= 0x40;
    std::ofstream out(corrupt.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  ds::SessionManager manager(kActivePath, f.serve_config());
  EXPECT_THROW(manager.begin_shadow(corrupt.path), desmine::RuntimeError);
  EXPECT_FALSE(manager.shadow_status().has_value());
  EXPECT_EQ(manager.generation(), 1u);
  EXPECT_THROW(manager.promote(), desmine::PreconditionError);

  const std::uint64_t id = manager.open();
  const auto series = f.plant.days_slice(2, 1);
  feed(manager, id, series, 120);
  manager.drain();
  const auto expected = replay_windows(f, f.plant.days_slice(2, 1));
  std::size_t next_index = 0;
  while (const auto r = manager.poll(id)) {
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  EXPECT_GT(next_index, 0u);
}

// A poisoned candidate (every shadow decode throws) accumulates failures,
// fails the gate, and rolls back — with live serving never perturbed: the
// injected point sits entirely on the shadow path.
TEST(Lifecycle, PoisonedCandidateFailsGateAndRollsBack) {
  auto& f = fixture();
  ds::SessionManager manager(kActivePath, f.serve_config());
  const std::uint64_t id = manager.open();
  const auto series = f.plant.days_slice(2, 1);  // clean pre-drift day

  EXPECT_EQ(manager.begin_shadow(kCandidatePath), 2u);
  ScopedFaults guard;
  dr::FaultInjector::instance().arm("serve.shadow", std::string("*"),
                                    dr::FaultAction::kThrow);
  feed(manager, id, series, series.front().events.size());
  manager.drain();

  const auto status = manager.shadow_status();
  ASSERT_TRUE(status.has_value());
  EXPECT_GT(status->failures, 0u);
  EXPECT_FALSE(manager.shadow_gate_passed());
  EXPECT_THROW(manager.promote(), desmine::PreconditionError);
  EXPECT_EQ(manager.generation(), 1u);
  EXPECT_EQ(manager.rollback(), kCandidatePath);

  // The poison never reached the client-visible stream.
  const auto expected = replay_windows(f, series);
  std::size_t next_index = 0;
  while (const auto r = manager.poll(id)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);
    EXPECT_TRUE(r->failed.empty());
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());
  EXPECT_EQ(manager.registry().retired_live(), 0u);
}
