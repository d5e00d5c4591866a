// Tests for the serving layer (DESIGN.md §11): batched-vs-sequential
// bit-identity, multi-session replay equivalence, decode sharing across
// sessions, session isolation under flooding, backpressure/close semantics,
// open/erase racing ingest and poll on the sharded session table,
// the scheduler's span memo (replays, faults and breakers, epochs, reload),
// its wake-ups, its window queue (degraded windows, reload mid-queue,
// half-open probes, shedding at claim) and the config JSON round-trip.
// Managers serve a saved artifact of the fixture's framework; the ground
// truth is an OnlineDetector replay over the in-memory graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/anomaly.h"
#include "core/edge_scorer.h"
#include "core/framework.h"
#include "core/online.h"
#include "core/window_assembler.h"
#include "io/artifact_map.h"
#include "io/config_json.h"
#include "io/serialize.h"
#include "nmt/translation.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "serve/batch_scheduler.h"
#include "serve/session_manager.h"
#include "string_oracle.h"
#include "text/bleu.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dm = desmine::nmt;
namespace ds = desmine::serve;
namespace dx = desmine::text;
namespace dio = desmine::io;
namespace dobs = desmine::obs;
namespace dor = desmine::oracle;
using desmine::util::Rng;

namespace {

/// The process-wide fault injector is shared state: disarmed on entry and
/// exit.
struct ScopedDecodeFaults {
  ScopedDecodeFaults() { desmine::robust::FaultInjector::instance().clear(); }
  ~ScopedDecodeFaults() { desmine::robust::FaultInjector::instance().clear(); }
};

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Coupled pair (follow repeats lead 2 ticks later) plus a noise sensor —
/// the same shape test_online uses, so serve results can be replayed
/// against OnlineDetector.
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
  const std::string artifact = "/tmp/desmine_test_serve_model.bin";

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
    dio::save_framework(framework, artifact);
  }
  ~Fixture() { std::remove(artifact.c_str()); }

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

/// Per-window anomaly scores from a sequential OnlineDetector replay.
std::vector<double> replay_scores(const Fixture& f,
                                  const dc::MultivariateSeries& series) {
  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.cfg.window, f.cfg.detector);
  std::vector<double> scores;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    const auto r = online.push(tick_states(series, t));
    if (r) scores.push_back(r->anomaly_score);
  }
  return scores;
}

/// Ragged word-substitution corpus (every sentence a different length).
void make_ragged_corpus(std::size_t sentences, dx::Corpus& src,
                        dx::Corpus& tgt, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> sw = {"sa", "sb", "sc", "sd"};
  const std::vector<std::string> tw = {"ta", "tb", "tc", "td"};
  for (std::size_t k = 0; k < sentences; ++k) {
    const std::size_t length = 1 + (k % 12);
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

}  // namespace

// ---------------------------------------------------------------------------
// Batched decode bit-identity

TEST(ScoreBatch, BitIdenticalToSequentialAcrossRaggedLengths) {
  dx::Corpus train_src, train_tgt;
  make_ragged_corpus(64, train_src, train_tgt, 11);
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.num_layers = 2;  // exercise the stacked-layer rewind path
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 150;
  cfg.trainer.batch_size = 8;
  const auto model = std::make_shared<dm::TranslationModel>(
      dm::train_translation_model(train_src, train_tgt, cfg, 77));

  dx::Corpus test_src, test_ref;
  make_ragged_corpus(40, test_src, test_ref, 12);

  // Sequential ground truth: greedy translate + sentence corpus BLEU.
  std::vector<dx::Sentence> seq_out;
  std::vector<double> seq_bleu;
  for (std::size_t i = 0; i < test_src.size(); ++i) {
    seq_out.push_back(model->translate(test_src[i]));
    seq_bleu.push_back(
        dx::corpus_bleu({seq_out.back()}, {test_ref[i]}, {}).score);
  }

  std::vector<const dx::Sentence*> sources, references;
  for (std::size_t i = 0; i < test_src.size(); ++i) {
    sources.push_back(&test_src[i]);
    references.push_back(&test_ref[i]);
  }
  const std::vector<dx::Sentence> batch_out = model->translate_batch(sources);
  const std::vector<dc::EncodedSentence> enc_src =
      dor::encode_sentences(model->src_vocab(), test_src, 4);
  const std::vector<dc::EncodedSentence> enc_ref =
      dor::encode_sentences(model->tgt_vocab(), test_ref, 4);
  std::vector<const dc::EncodedSentence*> enc_sources, enc_references;
  for (std::size_t i = 0; i < test_src.size(); ++i) {
    enc_sources.push_back(&enc_src[i]);
    enc_references.push_back(&enc_ref[i]);
  }
  const std::vector<double> batch_bleu =
      dc::EdgeScorer({})
          .score([&model] { return model; }, enc_sources, enc_references)
          .bleu;

  ASSERT_EQ(batch_out.size(), test_src.size());
  ASSERT_EQ(batch_bleu.size(), test_src.size());
  for (std::size_t i = 0; i < test_src.size(); ++i) {
    EXPECT_EQ(batch_out[i], seq_out[i]) << "sentence " << i;
    EXPECT_EQ(bits(batch_bleu[i]), bits(seq_bleu[i])) << "sentence " << i;
  }
}

TEST(ScoreBatch, DuplicateSourcesDecodeOnceAndFanOut) {
  dx::Corpus train_src, train_tgt;
  make_ragged_corpus(64, train_src, train_tgt, 13);
  dm::TranslationConfig cfg;
  cfg.model.embedding_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.num_layers = 1;
  cfg.model.dropout = 0.0f;
  cfg.trainer.steps = 120;
  cfg.trainer.batch_size = 8;
  dm::TranslationModel model =
      dm::train_translation_model(train_src, train_tgt, cfg, 78);

  // Every sentence appears three times; the fan-out must reproduce the
  // sequential result at each slot.
  dx::Corpus base_src, base_ref;
  make_ragged_corpus(6, base_src, base_ref, 14);
  std::vector<const dx::Sentence*> sources;
  std::vector<dx::Sentence> expected;
  for (std::size_t rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < base_src.size(); ++i) {
      sources.push_back(&base_src[i]);
    }
  }
  for (const dx::Sentence* s : sources) expected.push_back(model.translate(*s));
  const std::vector<dx::Sentence> batch_out = model.translate_batch(sources);
  ASSERT_EQ(batch_out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch_out[i], expected[i]) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Serving layer

TEST(SessionManager, BatchedServeBitIdenticalToSequentialReplay) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact, f.serve_config());
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTicks = 120;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    series.push_back(make_series(kTicks, 20 + s));
    ids.push_back(manager.open());
  }

  // Interleave ticks round-robin so windows from different sessions are
  // pending simultaneously and batch together.
  std::vector<std::vector<double>> served(kSessions);
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(manager.ingest(ids[s], tick_states(series[s], t)),
                ds::IngestStatus::kAccepted);
    }
  }
  manager.drain();
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::size_t next_index = 0;
    while (const auto r = manager.poll(ids[s])) {
      EXPECT_EQ(r->window_index, next_index++);  // strictly in window order
      EXPECT_EQ(r->coverage, 1.0);
      EXPECT_FALSE(r->degraded);
      served[s].push_back(r->anomaly_score);
    }
  }

  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::vector<double> expected = replay_scores(f, series[s]);
    ASSERT_EQ(served[s].size(), expected.size()) << "session " << s;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(bits(served[s][w]), bits(expected[w]))
          << "session " << s << " window " << w;
    }
  }
}

TEST(SessionManager, SessionsReplayingOneStreamShareDecodes) {
  // Sessions replaying one stream pend the same sentences on every edge.
  // Cross-session batches plus the per-edge decode cache must decode each
  // distinct source once for all of them, so eight sessions cost exactly
  // the decodes of one. One worker keeps the batch order deterministic.
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.workers = 1;
  constexpr std::size_t kTicks = 120;
  const auto series = make_series(kTicks, 25);
  const std::vector<double> expected = replay_scores(f, series);
  const dobs::Counter& decoded =
      dobs::metrics().counter("serve.batch.decoded");
  const dobs::Counter& cache_hits =
      dobs::metrics().counter("serve.batch.cache_hits");

  struct Deltas {
    std::uint64_t decoded = 0;
    std::uint64_t cache_hits = 0;
  };
  const auto serve = [&](std::size_t sessions) {
    const Deltas before{decoded.value(), cache_hits.value()};
    ds::SessionManager manager(f.artifact, scfg);
    std::vector<std::uint64_t> ids;
    for (std::size_t s = 0; s < sessions; ++s) ids.push_back(manager.open());
    for (std::size_t t = 0; t < kTicks; ++t) {
      for (const std::uint64_t id : ids) {
        EXPECT_EQ(manager.ingest(id, tick_states(series, t)),
                  ds::IngestStatus::kAccepted);
      }
    }
    manager.drain();
    for (const std::uint64_t id : ids) {
      std::vector<double> served;
      while (const auto r = manager.poll(id)) {
        served.push_back(r->anomaly_score);
      }
      EXPECT_EQ(served.size(), expected.size()) << "session " << id;
      for (std::size_t w = 0; w < served.size() && w < expected.size(); ++w) {
        EXPECT_EQ(bits(served[w]), bits(expected[w]))
            << "session " << id << " window " << w;
      }
    }
    return Deltas{decoded.value() - before.decoded,
                  cache_hits.value() - before.cache_hits};
  };

  const Deltas one = serve(1);
  const Deltas eight = serve(8);
  EXPECT_GT(one.decoded, 0u);
  EXPECT_EQ(eight.decoded, one.decoded);
  EXPECT_GT(eight.cache_hits, one.cache_hits);
}

TEST(SessionManager, FloodingSessionNeverDegradesNeighbour) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.limits.max_pending_windows = 1;
  scfg.limits.reject_when_full = true;
  ds::SessionManager manager(f.artifact, scfg);

  const auto flood_series = make_series(200, 30);
  const auto good_series = make_series(200, 31);
  const std::uint64_t flood = manager.open();
  const std::uint64_t good = manager.open();

  // The flooding session never polls: once one window is complete and
  // unclaimed its budget (1) stays exhausted, so later ticks reject. The
  // well-behaved session polls after every tick and must never be
  // rejected or perturbed.
  std::size_t rejected = 0;
  std::vector<double> good_scores;
  for (std::size_t t = 0; t < 200; ++t) {
    const auto flood_status =
        manager.ingest(flood, tick_states(flood_series, t));
    if (flood_status == ds::IngestStatus::kRejected) ++rejected;
    ASSERT_EQ(manager.ingest(good, tick_states(good_series, t)),
              ds::IngestStatus::kAccepted)
        << t;
    manager.drain(good);
    while (const auto r = manager.poll(good)) {
      good_scores.push_back(r->anomaly_score);
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(manager.stats(flood).pending, 1u);

  const std::vector<double> expected = replay_scores(f, good_series);
  ASSERT_EQ(good_scores.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(bits(good_scores[w]), bits(expected[w])) << "window " << w;
  }
}

TEST(SessionManager, CloseRefusesTicksButDeliversInflightWindows) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact, f.serve_config());
  const auto series = make_series(40, 32);
  const std::uint64_t id = manager.open();
  // Window span 7, stride 4: 20 ticks produce windows 0..3.
  for (std::size_t t = 0; t < 20; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.close(id);
  EXPECT_EQ(manager.ingest(id, tick_states(series, 20)),
            ds::IngestStatus::kClosed);
  manager.drain(id);
  std::size_t delivered = 0;
  while (const auto r = manager.poll(id)) {
    EXPECT_EQ(r->window_index, delivered);
    ++delivered;
  }
  EXPECT_EQ(delivered, 4u);
  EXPECT_EQ(manager.stats(id).windows_delivered, 4u);
  manager.erase(id);
  EXPECT_EQ(manager.session_count(), 0u);
  EXPECT_THROW(manager.ingest(id, tick_states(series, 0)),
               desmine::PreconditionError);
}

TEST(SessionManager, UnknownSessionThrows) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact, f.serve_config());
  EXPECT_THROW(manager.poll(99), desmine::PreconditionError);
  EXPECT_THROW(manager.close(99), desmine::PreconditionError);
}

TEST(SessionManager, OpenEraseRacesIngestAndPoll) {
  // Two churn threads open a session, feed and poll it for a few ticks and
  // erase it, over and over. A prober ingests into and polls the churned
  // session it last saw opened and the last id whose erase returned; two
  // feeders stream two surviving sessions, which a poller drains. A live
  // id may answer anything, or be gone already; an erased id must raise
  // the typed unknown-session error, never crash or reach a freed session.
  // The survivors' verdicts stay bitwise an OnlineDetector replay's.
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.limits.reject_when_full = true;  // no ingest waits for a poll
  ds::SessionManager manager(f.artifact, scfg);
  constexpr std::size_t kSurvivors = 2;
  constexpr std::size_t kTicks = 120;
  constexpr std::size_t kChurners = 2;
  constexpr std::size_t kRounds = 12;
  constexpr std::size_t kChurnTicks = 24;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::vector<double>> expected;
  std::vector<std::uint64_t> survivors;
  for (std::size_t s = 0; s < kSurvivors; ++s) {
    series.push_back(make_series(kTicks, 60 + s));
    expected.push_back(replay_scores(f, series.back()));
    survivors.push_back(manager.open());
  }
  const auto churn_series = make_series(kChurnTicks, 62);

  const auto is_unknown = [](const auto& call) {
    try {
      call();
    } catch (const desmine::PreconditionError& e) {
      return std::string(e.what()).find("unknown session id") !=
             std::string::npos;
    }
    return false;
  };
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> erased{0};
  std::atomic<std::size_t> churners_left{kChurners};
  std::atomic<std::size_t> erased_probes{0};

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kChurners; ++c) {
    threads.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::uint64_t id = manager.open();
        live.store(id);
        for (std::size_t t = 0; t < kChurnTicks; ++t) {
          manager.ingest(id, tick_states(churn_series, t));
          while (manager.poll(id)) {
          }
        }
        manager.erase(id);
        erased.store(id);
        EXPECT_TRUE(is_unknown(
            [&] { manager.ingest(id, tick_states(churn_series, 0)); }));
        EXPECT_TRUE(is_unknown([&] { manager.poll(id); }));
      }
      churners_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    std::size_t t = 0;
    // Until the churn ends, and at least once on an erased id.
    while (churners_left.load() > 0 || erased_probes.load() == 0) {
      const std::uint64_t l = live.load();
      if (l != 0) {
        try {
          manager.ingest(l, tick_states(churn_series, t++ % kChurnTicks));
          manager.poll(l);
        } catch (const desmine::PreconditionError& e) {
          EXPECT_NE(std::string(e.what()).find("unknown session id"),
                    std::string::npos);
        }
      }
      const std::uint64_t e = erased.load();
      if (e != 0) {
        EXPECT_TRUE(is_unknown(
            [&] { manager.ingest(e, tick_states(churn_series, 0)); }));
        EXPECT_TRUE(is_unknown([&] { manager.poll(e); }));
        erased_probes.fetch_add(1);
      }
      std::this_thread::yield();
    }
  });
  for (std::size_t s = 0; s < kSurvivors; ++s) {
    threads.emplace_back([&, s] {
      for (std::size_t t = 0; t < kTicks; ++t) {
        while (manager.ingest(survivors[s], tick_states(series[s], t)) ==
               ds::IngestStatus::kRejected) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::vector<double>> served(kSurvivors);
  threads.emplace_back([&] {
    for (bool done = false; !done;) {
      done = true;
      for (std::size_t s = 0; s < kSurvivors; ++s) {
        while (const auto r = manager.poll(survivors[s])) {
          EXPECT_EQ(r->window_index, served[s].size());
          served[s].push_back(r->anomaly_score);
        }
        done = done && served[s].size() >= expected[s].size();
      }
      if (!done) std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_GT(erased_probes.load(), 0u);
  EXPECT_EQ(manager.session_count(), kSurvivors);
  for (std::size_t s = 0; s < kSurvivors; ++s) {
    ASSERT_EQ(served[s].size(), expected[s].size()) << "session " << s;
    for (std::size_t w = 0; w < expected[s].size(); ++w) {
      EXPECT_EQ(bits(served[s][w]), bits(expected[s][w]))
          << "session " << s << " window " << w;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch scheduler: span memo, dense edge states, wake-ups

namespace {

/// The fixture artifact's generation `id`, as a SessionManager builds it.
std::shared_ptr<const ds::ModelGeneration> fixture_generation(
    const Fixture& f, std::uint64_t id = 1) {
  return ds::make_generation(dio::ArtifactMap::open(f.artifact),
                             f.cfg.detector, id, {});
}

/// The windows a strict session would submit for `series`, every edge of
/// `gen` to score.
std::vector<std::unique_ptr<ds::PendingWindow>> pending_windows(
    const Fixture& f, const std::shared_ptr<const ds::ModelGeneration>& gen,
    const dc::MultivariateSeries& series) {
  dc::WindowAssembler assembler(f.framework.encrypter(), f.cfg.window);
  std::vector<std::unique_ptr<ds::PendingWindow>> out;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    auto window = assembler.push(tick_states(series, t));
    if (!window) continue;
    auto p = std::make_unique<ds::PendingWindow>();
    p->window_index = window->window_index;
    p->generation = gen;
    p->spans = std::move(window->spans);
    p->edges = gen->edge_plan;
    p->edge_bleu.assign(p->edges.size(), 0.0);
    p->edge_status.assign(p->edges.size(), 0);
    p->remaining = p->edges.size();
    out.push_back(std::move(p));
  }
  return out;
}

/// Submit `windows` and run the scheduler on this thread until every one
/// is back; returns them in window order.
std::vector<std::unique_ptr<ds::PendingWindow>> score_inline(
    ds::BatchScheduler& scheduler,
    std::vector<std::unique_ptr<ds::PendingWindow>>* delivered,
    std::vector<std::unique_ptr<ds::PendingWindow>> windows) {
  const std::size_t count = windows.size();
  delivered->clear();
  for (auto& w : windows) scheduler.submit(std::move(w));
  while (delivered->size() < count) scheduler.run_one();
  std::vector<std::unique_ptr<ds::PendingWindow>> out(count);
  for (auto& w : *delivered) out[w->window_index] = std::move(w);
  delivered->clear();
  return out;
}

struct Verdicts {
  std::vector<double> scores;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> broken;
};

/// Serve `series` through one strict session of `manager` and poll it all.
Verdicts serve_one(ds::SessionManager& manager,
                   const dc::MultivariateSeries& series) {
  const std::uint64_t id = manager.open();
  Verdicts out;
  const auto poll = [&] {
    while (const auto r = manager.poll(id)) {
      EXPECT_EQ(r->window_index, out.scores.size());
      out.scores.push_back(r->anomaly_score);
      out.broken.push_back(r->broken);
    }
  };
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    // A long series outgrows the pending-window budget: results wait for a
    // poll, and a full budget blocks ingest.
    if (manager.stats(id).pending >= 32) {
      manager.drain(id);
      poll();
    }
    EXPECT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain(id);
  poll();
  return out;
}

}  // namespace

TEST(BatchScheduler, ReplayedStreamIsAnsweredFromTheSpanMemo) {
  // A second session replaying a stream meets only pairs the first one's
  // windows put in the edges' span memos: nothing is encoded, every item
  // is a pair hit, and both sessions match the sequential replay bit for
  // bit.
  auto& f = fixture();
  ds::SessionManager manager(f.artifact, f.serve_config());
  const auto series = make_series(120, 40);
  const std::vector<double> expected = replay_scores(f, series);
  dobs::MetricsRegistry& m = dobs::metrics();

  const Verdicts first = serve_one(manager, series);
  const std::uint64_t encoded0 = m.counter("serve.windows_encoded").value();
  const std::uint64_t pairs0 = m.counter("serve.batch.pair_hits").value();
  const std::uint64_t hits0 = m.counter("serve.batch.cache_hits").value();
  const std::uint64_t decoded0 = m.counter("serve.batch.decoded").value();
  const Verdicts replayed = serve_one(manager, series);
  const std::uint64_t items = expected.size() * manager.valid_model_count();
  EXPECT_EQ(m.counter("serve.windows_encoded").value() - encoded0, 0u);
  EXPECT_EQ(m.counter("serve.batch.pair_hits").value() - pairs0, items);
  EXPECT_EQ(m.counter("serve.batch.cache_hits").value() - hits0, items);
  EXPECT_EQ(m.counter("serve.batch.decoded").value() - decoded0, 0u);

  for (const Verdicts* v : {&first, &replayed}) {
    ASSERT_EQ(v->scores.size(), expected.size());
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(bits(v->scores[w]), bits(expected[w])) << "window " << w;
    }
  }
}

TEST(BatchScheduler, FaultAndBreakerComeBeforeTheSpanMemo) {
  // Every item of edge 0 is memo-answerable on the second pass, yet an
  // armed serve.decode throw fails its first batch, and the breaker that
  // then opens quarantines the rest. The other edges still answer from
  // their memos with the first pass's bits.
  auto& f = fixture();
  ScopedDecodeFaults guard;
  const auto gen = fixture_generation(f);
  ASSERT_GE(gen->edges.size(), 2u);
  ds::SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.circuit_open_after = 1;
  cfg.circuit_probe_after = 1u << 20;  // stays open for the whole pass
  cfg.bleu = f.cfg.detector.bleu;
  std::vector<std::unique_ptr<ds::PendingWindow>> delivered;
  ds::BatchScheduler scheduler(
      gen, cfg, [&delivered](std::unique_ptr<ds::PendingWindow> w) {
        delivered.push_back(std::move(w));
      });
  const auto series = make_series(120, 41);
  const auto warm =
      score_inline(scheduler, &delivered, pending_windows(f, gen, series));
  ASSERT_GT(warm.size(), cfg.max_batch);

  const ds::EdgeModel& faulted = gen->edges.front();
  desmine::robust::FaultInjector::instance().arm(
      "serve.decode",
      std::to_string(faulted.src) + "->" + std::to_string(faulted.dst),
      desmine::robust::FaultAction::kThrow);
  const std::uint64_t pairs0 =
      dobs::metrics().counter("serve.batch.pair_hits").value();
  const auto hot =
      score_inline(scheduler, &delivered, pending_windows(f, gen, series));
  ASSERT_EQ(hot.size(), warm.size());
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  for (std::size_t w = 0; w < hot.size(); ++w) {
    const auto status = static_cast<ds::SlotStatus>(hot[w]->edge_status[0]);
    if (status == ds::SlotStatus::kFailed) ++failed;
    if (status == ds::SlotStatus::kQuarantined) ++quarantined;
    for (std::size_t e = 1; e < gen->edges.size(); ++e) {
      ASSERT_EQ(static_cast<ds::SlotStatus>(hot[w]->edge_status[e]),
                ds::SlotStatus::kScored);
      EXPECT_EQ(bits(hot[w]->edge_bleu[e]), bits(warm[w]->edge_bleu[e]))
          << "window " << w << " edge " << e;
    }
  }
  EXPECT_EQ(failed, cfg.max_batch);
  EXPECT_EQ(quarantined, hot.size() - cfg.max_batch);
  EXPECT_EQ(dobs::metrics().counter("serve.batch.pair_hits").value() - pairs0,
            hot.size() * (gen->edges.size() - 1));
  scheduler.stop();
}

TEST(BatchScheduler, MoreThanAMemoOfPairsMatchesAMemolessManager) {
  // A noisy stream puts more distinct pairs on an edge than its span memo
  // holds, so the memo clears itself mid-stream. The verdicts stay bitwise
  // those of a manager without memos, which (one item per batch, no decode
  // cache) decodes every item it is given.
  auto& f = fixture();
  const auto series = make_series(4000, 42);
  const auto gen = fixture_generation(f);
  std::size_t most_pairs = 0;
  {
    const auto windows = pending_windows(f, gen, series);
    for (const ds::EdgeModel& edge : gen->edges) {
      std::set<std::pair<std::string, std::string>> pairs;
      for (const auto& w : windows) {
        pairs.emplace(w->spans.sensor(edge.src), w->spans.sensor(edge.dst));
      }
      most_pairs = std::max(most_pairs, pairs.size());
    }
  }
  ASSERT_GT(most_pairs, ds::kSpanMemoPairs);

  ds::SessionManager memo(f.artifact, f.serve_config());
  const Verdicts with_memo = serve_one(memo, series);

  ds::ServeConfig plain = f.serve_config();
  plain.decode_cache = 0;
  plain.max_batch = 1;
  ds::SessionManager memoless(f.artifact, plain);
  dobs::MetricsRegistry& m = dobs::metrics();
  const std::uint64_t decoded0 = m.counter("serve.batch.decoded").value();
  const std::uint64_t pairs0 = m.counter("serve.batch.pair_hits").value();
  const Verdicts without = serve_one(memoless, series);
  EXPECT_EQ(m.counter("serve.batch.decoded").value() - decoded0,
            without.scores.size() * memoless.valid_model_count());
  EXPECT_EQ(m.counter("serve.batch.pair_hits").value() - pairs0, 0u);

  ASSERT_EQ(with_memo.scores.size(), without.scores.size());
  for (std::size_t w = 0; w < without.scores.size(); ++w) {
    EXPECT_EQ(bits(with_memo.scores[w]), bits(without.scores[w]))
        << "window " << w;
    EXPECT_EQ(with_memo.broken[w], without.broken[w]) << "window " << w;
  }
}

TEST(BatchScheduler, DrainedReloadReleasesTheOldGenerationsMemos) {
  auto& f = fixture();
  dobs::Gauge& entries = dobs::metrics().gauge("serve.memo.entries");
  dobs::Gauge& bytes = dobs::metrics().gauge("serve.memo.bytes");
  const double entries0 = entries.value();
  const double bytes0 = bytes.value();
  ds::SessionManager manager(f.artifact, f.serve_config());
  const auto series = make_series(120, 43);
  serve_one(manager, series);
  EXPECT_GT(entries.value(), entries0);
  EXPECT_GT(bytes.value(), bytes0);

  EXPECT_EQ(manager.reload(f.artifact), 2u);
  for (int i = 0; i < 200 && manager.registry().retired_live() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(manager.registry().retired_live(), 0u);
  EXPECT_EQ(entries.value(), entries0);
  EXPECT_EQ(bytes.value(), bytes0);

  // The new generation builds memos of its own, with the same bits.
  const Verdicts after = serve_one(manager, series);
  EXPECT_GT(entries.value(), entries0);
  const std::vector<double> expected = replay_scores(f, series);
  ASSERT_EQ(after.scores.size(), expected.size());
  for (std::size_t w = 0; w < expected.size(); ++w) {
    EXPECT_EQ(bits(after.scores[w]), bits(expected[w])) << "window " << w;
  }
}

TEST(BatchScheduler, ManyWorkersOnSingleItemBatchesLoseNoWakeUp) {
  // Four workers, one item per batch and sixteen sessions fed from four
  // threads: the most hand-overs between submit and the workers. A lost
  // wake-up leaves items queued with every worker asleep, and the drain
  // below never returns; the deadline turns that hang into a failure.
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.workers = 4;
  scfg.max_batch = 1;
  constexpr std::size_t kSessions = 16;
  constexpr std::size_t kFeeders = 4;
  constexpr std::size_t kTicks = 120;
  std::vector<dc::MultivariateSeries> series;
  for (std::size_t s = 0; s < kSessions; ++s) {
    series.push_back(make_series(kTicks, 70 + s % 5));
  }

  std::vector<std::vector<double>> served(kSessions);
  auto run = std::async(std::launch::async, [&] {
    ds::SessionManager manager(f.artifact, scfg);
    std::vector<std::uint64_t> ids;
    for (std::size_t s = 0; s < kSessions; ++s) ids.push_back(manager.open());
    std::vector<std::thread> feeders;
    for (std::size_t k = 0; k < kFeeders; ++k) {
      feeders.emplace_back([&, k] {
        for (std::size_t t = 0; t < kTicks; ++t) {
          for (std::size_t s = k; s < kSessions; s += kFeeders) {
            EXPECT_EQ(manager.ingest(ids[s], tick_states(series[s], t)),
                      ds::IngestStatus::kAccepted);
          }
        }
      });
    }
    for (std::thread& t : feeders) t.join();
    manager.drain();
    for (std::size_t s = 0; s < kSessions; ++s) {
      while (const auto r = manager.poll(ids[s])) {
        served[s].push_back(r->anomaly_score);
      }
    }
  });
  if (run.wait_for(std::chrono::seconds(120)) != std::future_status::ready) {
    std::fprintf(stderr, "serving 16 sessions did not finish in 120 s\n");
    std::abort();
  }
  run.get();
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::vector<double> expected = replay_scores(f, series[s]);
    ASSERT_EQ(served[s].size(), expected.size()) << "session " << s;
    for (std::size_t w = 0; w < expected.size(); ++w) {
      EXPECT_EQ(bits(served[s][w]), bits(expected[w]))
          << "session " << s << " window " << w;
    }
  }
}

namespace {

/// The fixture's plant mined again under another seed and saved beside it:
/// a generation whose models, and so whose f values, differ from the
/// fixture's.
const std::string& reseeded_artifact() {
  static const struct Reseeded {
    const std::string path = "/tmp/desmine_test_serve_model_reseeded.bin";
    Reseeded() {
      dc::FrameworkConfig cfg = fixture().cfg;
      cfg.miner.seed = 11;
      dc::Framework framework(cfg);
      framework.fit(make_series(600, 1), make_series(300, 2));
      dio::save_framework(framework, path);
    }
    ~Reseeded() { std::remove(path.c_str()); }
  } reseeded;
  return reseeded.path;
}

/// f(i, j) per window and edge slot of `windows`, scored alone on a fresh
/// scheduler over their generation.
std::vector<std::vector<double>> reference_scores(
    const std::shared_ptr<const ds::ModelGeneration>& gen,
    const ds::SchedulerConfig& cfg,
    std::vector<std::unique_ptr<ds::PendingWindow>> windows) {
  std::vector<std::unique_ptr<ds::PendingWindow>> delivered;
  ds::BatchScheduler scheduler(
      gen, cfg, [&delivered](std::unique_ptr<ds::PendingWindow> w) {
        delivered.push_back(std::move(w));
      });
  std::vector<std::vector<double>> out;
  for (const auto& w :
       score_inline(scheduler, &delivered, std::move(windows))) {
    out.push_back(w->edge_bleu);
  }
  return out;
}

}  // namespace

TEST(BatchScheduler, DegradedWindowsExcludingDifferentEdgesMatchOnlineDetectors) {
  // Three degraded sessions each lose a different sensor for a stretch, so
  // their windows exclude different edges, and a strict session's full
  // windows sit between them in the one queue. Each edge's cursor skips the
  // windows that exclude it; every session still matches its own
  // OnlineDetector bit for bit.
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.max_batch = 3;  // many claims, each across sessions
  ds::SessionManager manager(f.artifact, scfg);
  const struct {
    const char* dropped;
    std::size_t from, to;
  } streams[] = {{"noise", 20, 50}, {"lead", 40, 70}, {"follow", 60, 90},
                 {nullptr, 0, 0}};
  constexpr std::size_t kTicks = 120;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::uint64_t> ids;
  std::vector<std::unique_ptr<dc::OnlineDetector>> online;
  for (std::size_t s = 0; s < std::size(streams); ++s) {
    dc::DegradedConfig degraded;
    degraded.enabled = streams[s].dropped != nullptr;
    series.push_back(make_series(kTicks, 90 + s));
    ids.push_back(manager.open(degraded));
    online.push_back(std::make_unique<dc::OnlineDetector>(
        f.framework.graph(), f.framework.encrypter(), f.cfg.window,
        f.cfg.detector, degraded));
  }
  std::vector<std::vector<dc::OnlineDetector::WindowResult>> expected(
      std::size(streams));
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < std::size(streams); ++s) {
      auto states = tick_states(series[s], t);
      if (t >= streams[s].from && t < streams[s].to) {
        states.erase(streams[s].dropped);
      }
      ASSERT_EQ(manager.ingest(ids[s], states), ds::IngestStatus::kAccepted);
      if (auto r = online[s]->push(states)) expected[s].push_back(*r);
    }
  }
  manager.drain();

  for (std::size_t s = 0; s < std::size(streams); ++s) {
    std::size_t w = 0;
    std::size_t partial = 0;
    while (const auto r = manager.poll(ids[s])) {
      ASSERT_LT(w, expected[s].size()) << "session " << s;
      const auto& e = expected[s][w];
      EXPECT_EQ(r->window_index, e.window_index);
      EXPECT_EQ(bits(r->anomaly_score), bits(e.anomaly_score))
          << "session " << s << " window " << w;
      EXPECT_EQ(bits(r->coverage), bits(e.coverage))
          << "session " << s << " window " << w;
      EXPECT_EQ(r->degraded, e.degraded);
      EXPECT_EQ(r->unhealthy, e.unhealthy);
      EXPECT_EQ(r->broken, e.broken) << "session " << s << " window " << w;
      EXPECT_TRUE(r->failed.empty());
      partial += r->coverage < 1.0;
      ++w;
    }
    EXPECT_EQ(w, expected[s].size()) << "session " << s;
    // The degraded sessions really excluded edges; the strict one did not.
    if (streams[s].dropped != nullptr) {
      EXPECT_GT(partial, 0u) << "session " << s;
    } else {
      EXPECT_EQ(partial, 0u);
    }
  }
}

TEST(BatchScheduler, ReloadWithCursorsMidQueueScoresOldWindowsOnOldModels) {
  // Two workers claim two-window batches of a generation's queue, so edge
  // cursors stand mid-queue (and one edge is held) when a reload retires
  // it. The rest of the old queue still scores on the old models, the new
  // windows on the new ones (each bitwise a fresh scheduler's scores for
  // that generation), and once drained the old generation is released.
  auto& f = fixture();
  ds::ModelRegistry registry(fixture_generation(f, 1));
  ds::SchedulerConfig cfg;
  cfg.max_batch = 2;
  cfg.bleu = f.cfg.detector.bleu;
  const auto old_series = make_series(80, 44);
  const auto new_series = make_series(80, 45);
  const auto next = ds::make_generation(
      dio::ArtifactMap::open(reseeded_artifact()), f.cfg.detector, 2, {});
  const auto old_expected = reference_scores(
      registry.current(), cfg,
      pending_windows(f, registry.current(), old_series));
  const auto new_expected =
      reference_scores(next, cfg, pending_windows(f, next, new_series));
  // The reseeded models score the old windows differently, so matching
  // old_expected below means the old models scored them.
  ASSERT_NE(reference_scores(next, cfg, pending_windows(f, next, old_series)),
            old_expected);

  std::mutex sink_mu;
  std::vector<std::unique_ptr<ds::PendingWindow>> delivered;
  ds::BatchScheduler scheduler(
      registry.current(), cfg,
      [&](std::unique_ptr<ds::PendingWindow> w) {
        std::lock_guard lock(sink_mu);
        delivered.push_back(std::move(w));
      });
  auto old_windows = pending_windows(f, registry.current(), old_series);
  const std::size_t old_count = old_windows.size();
  ASSERT_GT(old_count, 4 * cfg.max_batch);
  for (auto& w : old_windows) scheduler.submit(std::move(w));
  ds::BatchScheduler::Worker workers[2];
  for (int round = 0; round < 3; ++round) {
    for (auto& worker : workers) ASSERT_TRUE(scheduler.run_one(worker));
  }
  ASSERT_LT(delivered.size(), old_count);

  registry.publish(next);
  scheduler.set_current_generation(next->id);
  EXPECT_EQ(registry.retired_live(), 1u);
  auto new_windows = pending_windows(f, next, new_series);
  const std::size_t new_count = new_windows.size();
  for (auto& w : new_windows) {
    w->window_index += old_count;  // one index space for the sink
    scheduler.submit(std::move(w));
  }
  // The same two workers, each on a thread of its own, drain both queues;
  // each hands back its last edge before its loop ends.
  scheduler.stop();
  std::vector<std::thread> threads;
  for (auto& worker : workers) {
    threads.emplace_back([&scheduler, &worker] {
      while (scheduler.run_one(worker)) {
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(delivered.size(), old_count + new_count);
  std::vector<std::unique_ptr<ds::PendingWindow>> ordered(old_count +
                                                          new_count);
  for (auto& w : delivered) ordered[w->window_index] = std::move(w);
  delivered.clear();

  for (std::size_t w = 0; w < ordered.size(); ++w) {
    const bool old = w < old_count;
    EXPECT_EQ(ordered[w]->generation->id, old ? 1u : 2u);
    const auto& want = old ? old_expected[w] : new_expected[w - old_count];
    ASSERT_EQ(ordered[w]->edge_bleu.size(), want.size());
    for (std::size_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(static_cast<ds::SlotStatus>(ordered[w]->edge_status[e]),
                ds::SlotStatus::kScored);
      EXPECT_EQ(bits(ordered[w]->edge_bleu[e]), bits(want[e]))
          << "window " << w << " edge " << e;
    }
  }

  // With the delivered windows gone, nothing holds the old generation: the
  // drained table went when the last of its edges was handed back.
  ordered.clear();
  EXPECT_EQ(registry.retired_live(), 0u);
}

TEST(BatchScheduler, HalfOpenBreakerProbesWithExactlyOneWindow) {
  // Edge 0 fails its first batch and its first probe. The breaker opens on
  // the batch, quarantines two windows, probes with one window (which
  // fails, reopening it), quarantines two more, and closes on a second
  // single-window probe. Exactly one window per probe fails or scores.
  auto& f = fixture();
  ScopedDecodeFaults guard;
  const auto gen = fixture_generation(f);
  ds::SchedulerConfig cfg;
  cfg.max_batch = 4;
  cfg.circuit_open_after = 1;
  cfg.circuit_probe_after = 2;
  cfg.bleu = f.cfg.detector.bleu;
  std::vector<std::unique_ptr<ds::PendingWindow>> delivered;
  ds::BatchScheduler scheduler(
      gen, cfg, [&delivered](std::unique_ptr<ds::PendingWindow> w) {
        delivered.push_back(std::move(w));
      });
  const ds::EdgeModel& faulted = gen->edges.front();
  desmine::robust::FaultInjector::instance().arm(
      "serve.decode",
      std::to_string(faulted.src) + "->" + std::to_string(faulted.dst),
      desmine::robust::FaultAction::kThrow, 2);
  const std::uint64_t probes0 =
      dobs::metrics().counter("serve.circuit.probes").value();
  const auto windows = score_inline(scheduler, &delivered,
                                    pending_windows(f, gen, make_series(80, 46)));
  ASSERT_GE(windows.size(), 12u);

  using S = ds::SlotStatus;
  const S expected[] = {S::kFailed,      S::kFailed,      S::kFailed,
                        S::kFailed,      S::kQuarantined, S::kQuarantined,
                        S::kFailed,      S::kQuarantined, S::kQuarantined,
                        S::kScored};
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const S want = w < std::size(expected) ? expected[w] : S::kScored;
    EXPECT_EQ(static_cast<S>(windows[w]->edge_status[0]), want)
        << "window " << w;
    for (std::size_t e = 1; e < gen->edges.size(); ++e) {
      EXPECT_EQ(static_cast<S>(windows[w]->edge_status[e]), S::kScored);
    }
  }
  EXPECT_EQ(dobs::metrics().counter("serve.circuit.probes").value() - probes0,
            2u);
  scheduler.stop();
}

TEST(BatchScheduler, StaleSheddableWindowIsShedAtClaim) {
  // Past the queueing deadline a sheddable window is shed by the first edge
  // that claims it, and every slot resolves as shed; an unsheddable window
  // of the same age and a fresh one are scored.
  auto& f = fixture();
  const auto gen = fixture_generation(f);
  ds::SchedulerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_queue_delay_ms = 50.0;
  cfg.bleu = f.cfg.detector.bleu;
  std::vector<std::unique_ptr<ds::PendingWindow>> delivered;
  ds::BatchScheduler scheduler(
      gen, cfg, [&delivered](std::unique_ptr<ds::PendingWindow> w) {
        delivered.push_back(std::move(w));
      });
  auto windows = pending_windows(f, gen, make_series(40, 47));
  ASSERT_GE(windows.size(), 3u);
  windows.resize(3);
  const auto now = std::chrono::steady_clock::now();
  windows[0]->enqueued = now - std::chrono::seconds(10);
  windows[1]->enqueued = now - std::chrono::seconds(10);
  windows[1]->sheddable = false;
  windows[2]->enqueued = now + std::chrono::hours(1);  // never stale here
  const std::uint64_t shed0 =
      dobs::metrics().counter("serve.shed.windows").value();
  const auto out = score_inline(scheduler, &delivered, std::move(windows));

  EXPECT_EQ(dobs::metrics().counter("serve.shed.windows").value() - shed0, 1u);
  for (std::size_t w = 0; w < out.size(); ++w) {
    EXPECT_EQ(out[w]->shed, w == 0) << "window " << w;
    const auto want = w == 0 ? ds::SlotStatus::kShed : ds::SlotStatus::kScored;
    for (const std::uint8_t status : out[w]->edge_status) {
      EXPECT_EQ(static_cast<ds::SlotStatus>(status), want) << "window " << w;
    }
  }
  scheduler.stop();
}

// ---------------------------------------------------------------------------
// Config JSON

TEST(ConfigJson, RoundTripsEveryKnob) {
  dio::RunConfig c;
  c.framework.window = {6, 2, 10, 5};
  c.framework.miner.seed = 1234;
  c.framework.miner.threads = 3;
  c.framework.miner.pair_timeout_s = 2.5;
  c.framework.miner.checkpoint_path = "ckpt.jsonl";
  c.framework.miner.resume = true;
  c.framework.miner.retry.max_retries = 5;
  c.framework.miner.retry.jitter = 0.125;
  c.framework.miner.translation.model.hidden_dim = 48;
  c.framework.miner.translation.model.dropout = 0.25f;
  c.framework.miner.translation.model.attention =
      desmine::nn::AttentionScore::kDot;
  c.framework.miner.translation.trainer.steps = 333;
  c.framework.miner.translation.trainer.lr = 0.005f;
  c.framework.miner.translation.bleu.max_order = 3;
  c.framework.detector.valid_lo = 70.0;
  c.framework.detector.valid_hi = 95.0;
  c.framework.detector.tolerance = 1.25;
  c.framework.detector.min_coverage = 0.75;
  c.framework.detector.bleu.smooth = false;
  c.health.drop_after_missing = 7;
  c.health.max_unk_rate = 0.375;
  c.serve.workers = 4;
  c.serve.max_batch = 16;
  c.serve.decode_cache = 128;
  c.serve.limits.max_pending_windows = 9;
  c.serve.limits.reject_when_full = true;
  c.tensor.kernels = "scalar";

  const std::string json = dio::run_config_to_json(c);
  const dio::RunConfig back = dio::run_config_from_json(json);

  EXPECT_EQ(back.framework.window.word_length, 6u);
  EXPECT_EQ(back.framework.window.word_stride, 2u);
  EXPECT_EQ(back.framework.window.sentence_length, 10u);
  EXPECT_EQ(back.framework.window.sentence_stride, 5u);
  EXPECT_EQ(back.framework.miner.seed, 1234u);
  EXPECT_EQ(back.framework.miner.threads, 3u);
  EXPECT_EQ(back.framework.miner.pair_timeout_s, 2.5);
  EXPECT_EQ(back.framework.miner.checkpoint_path, "ckpt.jsonl");
  EXPECT_TRUE(back.framework.miner.resume);
  EXPECT_EQ(back.framework.miner.retry.max_retries, 5u);
  EXPECT_EQ(back.framework.miner.retry.jitter, 0.125);
  EXPECT_EQ(back.framework.miner.translation.model.hidden_dim, 48u);
  EXPECT_EQ(back.framework.miner.translation.model.dropout, 0.25f);
  EXPECT_EQ(back.framework.miner.translation.model.attention,
            desmine::nn::AttentionScore::kDot);
  EXPECT_EQ(back.framework.miner.translation.trainer.steps, 333u);
  EXPECT_EQ(back.framework.miner.translation.trainer.lr, 0.005f);
  EXPECT_EQ(back.framework.miner.translation.bleu.max_order, 3u);
  EXPECT_EQ(back.framework.detector.valid_lo, 70.0);
  EXPECT_EQ(back.framework.detector.valid_hi, 95.0);
  EXPECT_EQ(back.framework.detector.tolerance, 1.25);
  EXPECT_EQ(back.framework.detector.min_coverage, 0.75);
  EXPECT_FALSE(back.framework.detector.bleu.smooth);
  EXPECT_EQ(back.health.drop_after_missing, 7u);
  EXPECT_EQ(back.health.max_unk_rate, 0.375);
  EXPECT_EQ(back.serve.workers, 4u);
  EXPECT_EQ(back.serve.max_batch, 16u);
  EXPECT_EQ(back.serve.decode_cache, 128u);
  EXPECT_EQ(back.serve.limits.max_pending_windows, 9u);
  EXPECT_TRUE(back.serve.limits.reject_when_full);
  EXPECT_EQ(back.tensor.kernels, "scalar");
  // ServeConfig mirrors the detector section.
  EXPECT_EQ(back.serve.detector.tolerance, 1.25);

  // Re-emission is a fixed point: same document, byte for byte.
  EXPECT_EQ(dio::run_config_to_json(back), json);
}

TEST(ConfigJson, RejectsUnknownKeysNamingTheDottedPath) {
  try {
    dio::run_config_from_json(R"({"miner": {"trainer": {"stepz": 3}}})");
    FAIL() << "expected PreconditionError";
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("miner.trainer.stepz"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(dio::run_config_from_json(R"({"servee": {}})"),
               desmine::PreconditionError);
  // The tensor section carries only the backend choice.
  try {
    dio::run_config_from_json(R"({"tensor": {"precision": "f32"}})");
    FAIL() << "expected PreconditionError";
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown key 'tensor.precision'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigJson, ValidatesRangesNamingTheBadKey) {
  try {
    dio::run_config_from_json(R"({"detector": {"min_coverage": 2.0}})");
    FAIL() << "expected PreconditionError";
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("detector.min_coverage"),
              std::string::npos);
  }
  // valid_lo > valid_hi is a cross-field violation.
  EXPECT_THROW(dio::run_config_from_json(
                   R"({"detector": {"valid_lo": 95, "valid_hi": 90}})"),
               desmine::PreconditionError);
  EXPECT_THROW(
      dio::run_config_from_json(R"({"window": {"word_length": 0}})"),
      desmine::PreconditionError);
  EXPECT_THROW(
      dio::run_config_from_json(
          R"({"miner": {"model": {"attention": "additive"}}})"),
      desmine::PreconditionError);
  EXPECT_THROW(dio::run_config_from_json(R"({"serve": {"max_batch": 1.5}})"),
               desmine::PreconditionError);
  // Backend names are validated at parse time: "blocked" is not one.
  try {
    dio::run_config_from_json(R"({"tensor": {"kernels": "blocked"}})");
    FAIL() << "expected PreconditionError";
  } catch (const desmine::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("tensor.kernels"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigJson, MalformedJsonNamesTheOffset) {
  try {
    dio::run_config_from_json("{\"window\": }");
    FAIL() << "expected RuntimeError";
  } catch (const desmine::RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  // Trailing garbage after the document is rejected too.
  EXPECT_THROW(dio::run_config_from_json("{} x"), desmine::RuntimeError);
}
