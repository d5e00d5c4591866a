// Chaos tests for the fault-tolerant serving layer (DESIGN.md §13).
//
// Every scenario arms the deterministic FaultInjector at a serve-side
// injection point (serve.decode / serve.model.load / serve.ingest) and
// asserts the blast radius stays contained: faulted edges quarantine
// behind their circuit breaker while every non-faulted score stays
// bit-identical (IEEE-754) to a sequential OnlineDetector replay, failed
// reloads keep the old generation serving, hot reloads under sustained
// ingest drop or misorder nothing, overload shedding never starves a
// session, and erase/drain racing concurrent ingest stays typed and clean
// (the TSan CI job runs this binary). Managers serve a saved artifact of the
// fixture's framework.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "core/online.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "serve/session_manager.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace ds = desmine::serve;
namespace dio = desmine::io;
namespace dr = desmine::robust;
using desmine::util::Rng;

namespace {

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

/// Temp artifact path that cleans up on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_test_" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Same coupled-pair-plus-noise shape as test_serve/test_online, so served
/// results can be replayed against OnlineDetector.
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

struct Fixture {
  dc::FrameworkConfig cfg;
  dc::Framework framework;
  TempFile artifact{"serve_faults_model.bin"};

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
    framework.fit(make_series(600, 1), make_series(300, 2));
    dio::save_framework(framework, artifact.path);
  }

  ds::ServeConfig serve_config() const {
    ds::ServeConfig s;
    s.detector = cfg.detector;
    s.workers = 2;
    s.max_batch = 8;
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

/// Full per-window results from a sequential OnlineDetector replay — the
/// chaos tests need the broken sets, not just the scores, to recompute what
/// a window with one quarantined edge must score.
std::vector<dc::OnlineDetector::WindowResult> replay_windows(
    const Fixture& f, const dc::MultivariateSeries& series) {
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::vector<dc::OnlineDetector::WindowResult> out;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    const auto r = online.push(tick_states(series, t));
    if (r) out.push_back(*r);
  }
  return out;
}

/// Drive `ticks` samples of `series` into `session`, asserting every tick
/// is accepted.
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
// Worker supervision + circuit breaker

// A poisoned edge model (serve.decode throws on every batch of that edge)
// must quarantine behind its breaker while every other edge keeps scoring:
// no worker dies, every window is delivered with the faulted edge in its
// `failed` list, and the renormalized score is bit-identical to what the
// sequential replay's broken set implies for the surviving edges.
TEST(ServeFaults, PoisonedEdgeQuarantinesWhileOthersStayBitIdentical) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.circuit_open_after = 2;
  scfg.circuit_probe_after = 1u << 20;  // never half-open during this test
  ds::SessionManager manager(f.artifact.path, scfg);

  const auto gen = manager.registry().current();
  const std::size_t total = gen->edges.size();
  ASSERT_GE(total, 2u);
  const ds::EdgeModel& faulted = gen->edges.front();
  const std::pair<std::size_t, std::size_t> faulted_pair{faulted.src,
                                                         faulted.dst};
  const std::string key =
      std::to_string(faulted.src) + "->" + std::to_string(faulted.dst);

  ScopedFaults guard;
  dr::FaultInjector::instance().arm("serve.decode", key,
                                    dr::FaultAction::kThrow);
  const std::uint64_t opened_before =
      desmine::obs::metrics().counter("serve.circuit.opened").value();
  const std::uint64_t failures_before =
      desmine::obs::metrics().counter("serve.batch.failures").value();

  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTicks = 120;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    series.push_back(make_series(kTicks, 50 + s));
    ids.push_back(manager.open());
  }
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(manager.ingest(ids[s], tick_states(series[s], t)),
                ds::IngestStatus::kAccepted);
    }
  }
  manager.drain();

  // The breaker opened after the configured failed batches, and at least
  // those batches surfaced as supervised (not fatal) failures.
  EXPECT_GE(desmine::obs::metrics().counter("serve.circuit.opened").value(),
            opened_before + 1);
  EXPECT_GE(desmine::obs::metrics().counter("serve.batch.failures").value(),
            failures_before + scfg.circuit_open_after);

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto expected = replay_windows(f, series[s]);
    std::size_t next_index = 0;
    while (const auto r = manager.poll(ids[s])) {
      ASSERT_LT(next_index, expected.size());
      EXPECT_EQ(r->window_index, next_index);
      EXPECT_FALSE(r->shed);
      EXPECT_FALSE(r->degraded);  // 1 of N edges lost keeps quorum at N>=3
      ASSERT_EQ(r->failed.size(), 1u);
      EXPECT_EQ(r->failed.front(), faulted_pair);
      // Coverage and score renormalize over the surviving edges with the
      // exact divisions Session::finalize performs.
      EXPECT_EQ(bits(r->coverage), bits(static_cast<double>(total - 1) /
                                        static_cast<double>(total)));
      std::size_t broken = 0;
      for (const auto& pair : expected[next_index].broken) {
        if (pair != faulted_pair) ++broken;
      }
      EXPECT_EQ(bits(r->anomaly_score),
                bits(static_cast<double>(broken) /
                     static_cast<double>(total - 1)))
          << "session " << s << " window " << next_index;
      ++next_index;
    }
    EXPECT_EQ(next_index, expected.size()) << "session " << s;
  }

  // No worker died: the pool still scores fresh windows after the storm.
  const std::uint64_t late = manager.open();
  const auto late_series = make_series(40, 60);
  feed(manager, late, late_series, 40);
  manager.drain(late);
  std::size_t delivered = 0;
  while (const auto r = manager.poll(late)) {
    EXPECT_EQ(r->failed.size(), 1u);
    ++delivered;
  }
  EXPECT_EQ(delivered, replay_windows(f, late_series).size());
}

// The shadow's active side is the verdict the session delivered, not a
// recomputation of it: on a degraded session where a dropped sensor takes
// windows below quorum and a poisoned edge fails in every window, the
// shadow's active mean and alert count match the polled results bit for bit.
TEST(ServeFaults, ShadowActiveSideIsTheDeliveredVerdict) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  // One worker and one window in flight: the shadow sums active scores in
  // delivery order, which is then window order, as the sum below is.
  scfg.workers = 1;
  scfg.shadow.sample_rate = 1.0;
  ds::SessionManager manager(f.artifact.path, scfg);
  const ds::EdgeModel& faulted = manager.registry().current()->edges.front();
  ScopedFaults guard;
  dr::FaultInjector::instance().arm(
      "serve.decode",
      std::to_string(faulted.src) + "->" + std::to_string(faulted.dst),
      dr::FaultAction::kThrow);
  ASSERT_EQ(manager.begin_shadow(f.artifact.path), 2u);

  dc::DegradedConfig degraded;
  degraded.enabled = true;
  const std::uint64_t id = manager.open(degraded);
  constexpr std::size_t kTicks = 120;
  const auto series = make_series(kTicks, 70);
  std::vector<double> delivered;
  std::size_t alerts = 0, below_quorum = 0, with_failed = 0;
  for (std::size_t t = 0; t < kTicks; ++t) {
    auto states = tick_states(series, t);
    if (t >= 40 && t < 70) states.erase("noise");
    ASSERT_EQ(manager.ingest(id, states), ds::IngestStatus::kAccepted);
    manager.drain(id);
    while (const auto r = manager.poll(id)) {
      delivered.push_back(r->anomaly_score);
      alerts += r->anomaly_score >= scfg.shadow.alert_threshold;
      below_quorum += r->degraded;
      with_failed += !r->failed.empty();
    }
  }
  ASSERT_FALSE(delivered.empty());
  EXPECT_GT(below_quorum, 0u);
  EXPECT_GT(with_failed, 0u);
  double sum = 0.0;
  for (const double score : delivered) sum += score;

  // The shadow observes after delivery; wait for the last sample to land.
  std::optional<ds::ShadowScorer::Status> st = manager.shadow_status();
  for (int i = 0; i < 5000 && st && st->sampled < delivered.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    st = manager.shadow_status();
  }
  ASSERT_TRUE(st.has_value());
  ASSERT_EQ(st->sampled, delivered.size());
  EXPECT_EQ(st->active_alerts, alerts);
  EXPECT_EQ(bits(st->active_mean),
            bits(sum / static_cast<double>(delivered.size())));
}

// ---------------------------------------------------------------------------
// Hot reload

TEST(ServeFaults, FailedReloadKeepsOldGenerationThenRetrySucceeds) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const std::uint64_t id = manager.open();
  const auto series = make_series(120, 70);

  ScopedFaults guard;
  dr::FaultInjector::instance().arm("serve.model.load", std::int64_t{0},
                                    dr::FaultAction::kThrow, 1);
  EXPECT_THROW(manager.reload(f.artifact.path), desmine::RuntimeError);
  EXPECT_EQ(manager.generation(), 1u);  // old generation still serving

  feed(manager, id, series, 60);
  const std::uint64_t next = manager.reload(f.artifact.path);
  EXPECT_EQ(next, 2u);
  EXPECT_EQ(manager.generation(), 2u);
  feed(manager, id, series, 120, 60);
  manager.drain();

  // The artifact carries the same weights, so scores across the failed
  // reload AND the successful swap replay bit-identically.
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
}

// Reload while another thread streams ticks without pause: no window is
// dropped or misordered, every score is bit-identical to replay, and once
// the stream drains the retired generations' models have been released
// (the registry's weak refs all expired).
TEST(ServeFaults, HotReloadUnderSustainedIngestDropsAndReordersNothing) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const std::uint64_t id = manager.open();
  constexpr std::size_t kTicks = 240;
  const auto series = make_series(kTicks, 80);

  std::thread feeder([&] {
    for (std::size_t t = 0; t < kTicks; ++t) {
      ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
                ds::IngestStatus::kAccepted);
    }
  });
  // Two swaps mid-stream, each gated on the feeder having made progress so
  // windows are genuinely in flight on the generation being retired.
  for (const std::size_t gate : {std::size_t{60}, std::size_t{140}}) {
    while (manager.stats(id).ticks < gate) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    manager.reload(f.artifact.path);
  }
  feeder.join();
  manager.drain();
  EXPECT_EQ(manager.generation(), 3u);

  const auto expected = replay_windows(f, series);
  std::size_t next_index = 0;
  while (const auto r = manager.poll(id)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);  // zero dropped, zero misordered
    EXPECT_FALSE(r->shed);
    EXPECT_TRUE(r->failed.empty());
    EXPECT_EQ(r->coverage, 1.0);
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());

  // Drain means no window references an old generation any more; the
  // scheduler drops its last edge states just after the final finalize, so
  // allow a brief grace period before requiring full release.
  for (int i = 0; i < 200 && manager.registry().retired_live() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(manager.registry().retired_live(), 0u);
}

// ---------------------------------------------------------------------------
// Overload shedding

// Under a decode slowdown (every batch stalls kDelayMillis) with a 1 ms
// queue deadline, flooded windows shed as counted no-verdict results — and
// once ingest is paced, the consecutive-shed guard forces forward progress:
// never more than `max_consecutive_shed` sheds in a row, and the windows
// that do score stay bit-identical to replay.
TEST(ServeFaults, SheddingUnderOverloadNeverStarvesTheSession) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.workers = 1;
  scfg.max_queue_delay_ms = 1.0;
  scfg.limits.max_consecutive_shed = 2;
  ds::SessionManager manager(f.artifact.path, scfg);
  const std::uint64_t id = manager.open();
  constexpr std::size_t kFloodTicks = 60;
  constexpr std::size_t kTicks = 100;
  const auto series = make_series(kTicks, 90);

  ScopedFaults guard;
  dr::FaultInjector::instance().arm("serve.decode", std::string("*"),
                                    dr::FaultAction::kDelay);

  // Phase 1 — flood: every tick lands before any window resolves, so the
  // backlog goes stale against the 1 ms deadline and sheds.
  feed(manager, id, series, kFloodTicks);
  manager.drain(id);
  // Phase 2 — paced: each window fully resolves before the next tick, so
  // the sheds_in_row_ guard is consulted with up-to-date counts and must
  // mark every third window unsheddable at worst.
  for (std::size_t t = kFloodTicks; t < kTicks; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
    manager.drain(id);
  }

  const auto expected = replay_windows(f, series);
  const std::size_t flood_windows =
      replay_windows(f, make_series(kFloodTicks, 90)).size();
  std::size_t next_index = 0;
  std::size_t shed = 0;
  std::size_t paced_scored = 0;
  std::size_t paced_consecutive_shed = 0;
  while (const auto r = manager.poll(id)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);  // shed results keep the order
    if (r->shed) {
      ++shed;
      EXPECT_EQ(r->anomaly_score, 0.0);  // counted no-verdict, not a late 0
      EXPECT_EQ(r->coverage, 0.0);
      if (next_index >= flood_windows) {
        EXPECT_LE(++paced_consecutive_shed, scfg.limits.max_consecutive_shed)
            << "starved at window " << next_index;
      }
    } else {
      EXPECT_EQ(r->coverage, 1.0);
      EXPECT_EQ(bits(r->anomaly_score),
                bits(expected[next_index].anomaly_score))
          << "window " << next_index;
      if (next_index >= flood_windows) {
        ++paced_scored;
        paced_consecutive_shed = 0;
      }
    }
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());  // every window delivered
  EXPECT_GT(shed, 0u);
  EXPECT_GT(paced_scored, 0u);  // forward progress despite sustained faults
  const auto stats = manager.stats(id);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.windows_delivered, expected.size());
}

TEST(ServeFaults, GlobalBudgetRejectsAtCapacityThenRecovers) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.workers = 1;
  scfg.max_global_pending = 1;
  scfg.limits.reject_when_full = true;
  ds::SessionManager manager(f.artifact.path, scfg);

  // Slow the first batches down so the single-window budget is visibly
  // saturated; cleared as soon as a reject is observed.
  ScopedFaults guard;
  dr::FaultInjector::instance().arm("serve.decode", std::string("*"),
                                    dr::FaultAction::kDelay);

  constexpr std::size_t kSessions = 2;
  constexpr std::size_t kTicks = 40;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    series.push_back(make_series(kTicks, 95 + s));
    ids.push_back(manager.open());
  }

  std::size_t rejected = 0;
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      // A rejected tick is not consumed: retry the same sample until the
      // in-flight window drains and the budget frees up.
      while (manager.ingest(ids[s], tick_states(series[s], t)) ==
             ds::IngestStatus::kRejected) {
        ++rejected;
        dr::FaultInjector::instance().clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  manager.drain();
  EXPECT_GT(rejected, 0u);

  // Admission control must degrade throughput, never correctness.
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto expected = replay_windows(f, series[s]);
    std::size_t next_index = 0;
    while (const auto r = manager.poll(ids[s])) {
      ASSERT_LT(next_index, expected.size());
      EXPECT_EQ(r->window_index, next_index);
      EXPECT_FALSE(r->shed);
      EXPECT_EQ(bits(r->anomaly_score),
                bits(expected[next_index].anomaly_score))
          << "session " << s << " window " << next_index;
      ++next_index;
    }
    EXPECT_EQ(next_index, expected.size()) << "session " << s;
  }
}

// ---------------------------------------------------------------------------
// Lifecycle races (the TSan job runs this binary)

// erase() and drain() racing a hot ingest loop from another thread must
// resolve into the typed lifecycle statuses — kClosed, then
// PreconditionError once the session is forgotten — without perturbing a
// neighbour session's scores.
TEST(ServeFaults, EraseAndDrainRaceConcurrentIngest) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const std::uint64_t victim = manager.open();
  const std::uint64_t survivor = manager.open();
  const auto victim_series = make_series(40, 100);
  const auto survivor_series = make_series(120, 101);

  std::atomic<bool> gone{false};
  std::thread ingester([&] {
    for (std::size_t i = 0; i < 200000 && !gone.load(); ++i) {
      try {
        // kClosed (close() landed, map entry still there) is a valid
        // terminal answer; keep pushing until the id disappears.
        manager.ingest(victim, tick_states(victim_series, i % 40));
      } catch (const desmine::PreconditionError&) {
        gone.store(true);
      }
      if (i % 64 == 0) std::this_thread::yield();
    }
  });
  std::thread drainer([&] {
    for (int i = 0; i < 50; ++i) {
      manager.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  manager.erase(victim);
  gone.store(true);  // the ingester may still be mid-backpressure-wait
  ingester.join();
  drainer.join();
  EXPECT_EQ(manager.session_count(), 1u);
  EXPECT_THROW(manager.ingest(victim, tick_states(victim_series, 0)),
               desmine::PreconditionError);

  // The survivor's stream was never perturbed by the teardown next door.
  feed(manager, survivor, survivor_series, 120);
  manager.drain(survivor);
  const auto expected = replay_windows(f, survivor_series);
  std::size_t next_index = 0;
  while (const auto r = manager.poll(survivor)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());
}

// ---------------------------------------------------------------------------
// Ingest-side faults

TEST(ServeFaults, IngestFaultIsScopedToOneTick) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const auto series = make_series(60, 110);

  ScopedFaults guard;

  // throw: the faulted tick is NOT consumed; retrying it keeps the stream's
  // window math aligned with an unfaulted replay.
  const std::uint64_t id = manager.open();
  dr::FaultInjector::instance().arm("serve.ingest",
                                    static_cast<std::int64_t>(id),
                                    dr::FaultAction::kThrow, 1);
  EXPECT_THROW(manager.ingest(id, tick_states(series, 0)),
               desmine::RuntimeError);
  feed(manager, id, series, 60);
  manager.drain(id);
  const auto expected = replay_windows(f, series);
  std::size_t next_index = 0;
  while (const auto r = manager.poll(id)) {
    ASSERT_LT(next_index, expected.size());
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  EXPECT_EQ(next_index, expected.size());

  // drop: the tick reports accepted but vanishes before the assembler, like
  // a gap in the feed.
  const std::uint64_t dropped = manager.open();
  dr::FaultInjector::instance().arm("serve.ingest",
                                    static_cast<std::int64_t>(dropped),
                                    dr::FaultAction::kDrop, 1);
  EXPECT_EQ(manager.ingest(dropped, tick_states(series, 0)),
            ds::IngestStatus::kAccepted);
  EXPECT_EQ(manager.stats(dropped).ticks, 0u);
  EXPECT_EQ(manager.ingest(dropped, tick_states(series, 0)),
            ds::IngestStatus::kAccepted);
  EXPECT_EQ(manager.stats(dropped).ticks, 1u);
}
