// Serving from the mapped (v4) model store (DESIGN.md §15).
//
// A SessionManager opened on a v4 artifact must score bit-identically
// (IEEE-754) to an OnlineDetector replay over the in-memory graph, while
// keeping weight residency under the configured LRU budget:
// resident_edges/resident_bytes gauges never exceed the cap after an
// acquire, evictions are counted, and in-flight batches keep scoring
// through an eviction (shared_ptr safety).
// The 32-session soak is the acceptance gate: tight budget, sustained
// ingest, zero dropped windows. Hot reload of a v4 artifact is a remap —
// the old generation's map stays pinned until its last window drains.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/online.h"
#include "io/artifact_map.h"
#include "io/serialize.h"
#include "obs/metrics.h"
#include "serve/residency.h"
#include "serve/session_manager.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace ds = desmine::serve;
namespace dio = desmine::io;
namespace dobs = desmine::obs;
using desmine::util::Rng;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Temp artifact path that cleans up on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_test_" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

/// Same coupled-pair-plus-noise shape as test_serve_faults, so served
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
  TempFile artifact{"serve_mapped_model.bin"};

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

/// Sequential OnlineDetector replay: the serving ground truth.
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

/// Poll every window of `session`, asserting scores bit-match the replay.
std::size_t poll_and_check(ds::SessionManager& manager, std::uint64_t session,
                           const std::vector<dc::OnlineDetector::WindowResult>&
                               expected) {
  std::size_t next_index = 0;
  while (const auto r = manager.poll(session)) {
    EXPECT_LT(next_index, expected.size());
    EXPECT_EQ(r->window_index, next_index);
    EXPECT_FALSE(r->shed);
    EXPECT_TRUE(r->failed.empty());
    EXPECT_EQ(bits(r->anomaly_score), bits(expected[next_index].anomaly_score))
        << "window " << next_index;
    ++next_index;
  }
  return next_index;
}

}  // namespace

// ---------------------------------------------------------------------------
// Bit-identical serving

TEST(ServeMapped, MappedSessionScoresBitIdenticallyToOnlineReplay) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  EXPECT_EQ(manager.registry().current()->edges.size(),
            f.framework.graph().edges().size());
  ASSERT_NE(manager.registry().current()->residency, nullptr);

  const auto series = make_series(160, 40);
  const auto expected = replay_windows(f, series);
  const std::uint64_t id = manager.open();
  for (std::size_t t = 0; t < 160; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();
  EXPECT_EQ(poll_and_check(manager, id, expected), expected.size());
}

TEST(ServeMapped, HeapFallbackEnvServesIdentically) {
  auto& f = fixture();
  ::setenv("DESMINE_FORCE_HEAP_FALLBACK", "1", 1);
  struct EnvGuard {
    ~EnvGuard() { ::unsetenv("DESMINE_FORCE_HEAP_FALLBACK"); }
  } guard;
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  ASSERT_NE(manager.registry().current()->residency, nullptr);
  EXPECT_FALSE(manager.registry().current()->residency->map()->mapped());

  const auto series = make_series(120, 41);
  const auto expected = replay_windows(f, series);
  const std::uint64_t id = manager.open();
  for (std::size_t t = 0; t < 120; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();
  EXPECT_EQ(poll_and_check(manager, id, expected), expected.size());
}

// ---------------------------------------------------------------------------
// LRU residency

TEST(ServeMapped, ResidencyEdgeBudgetEvictsAndStaysUnderCap) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.resident_edges = 2;  // graph has 6 model edges — forces churn
  ds::SessionManager manager(f.artifact.path, scfg);
  const auto residency = manager.registry().current()->residency;
  ASSERT_NE(residency, nullptr);
  ASSERT_GT(f.framework.graph().edges().size(), 2u);

  const auto series = make_series(120, 42);
  const auto expected = replay_windows(f, series);
  const std::uint64_t id = manager.open();
  for (std::size_t t = 0; t < 120; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();

  // Zero dropped windows AND bit-identical scores through the churn —
  // evicting an edge while a batch holds its shared_ptr must be safe.
  EXPECT_EQ(poll_and_check(manager, id, expected), expected.size());

  const auto stats = residency->stats();
  EXPECT_LE(stats.resident_edges, 2u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(dobs::metrics().gauge("serve.model.resident_edges").value(),
            static_cast<double>(stats.resident_edges));
  EXPECT_GE(dobs::metrics().counter("serve.model.evictions").value(),
            stats.evictions);
}

TEST(ServeMapped, ResidencyByteBudgetRespected) {
  auto& f = fixture();
  // Budget: exactly two edges' worth of bytes, measured from the TOC.
  std::uint64_t two_edges = 0;
  {
    const auto map = dio::ArtifactMap::open(f.artifact.path);
    std::size_t counted = 0;
    for (std::size_t i = 0; i < map->edges().size() && counted < 2; ++i) {
      if (!map->edges()[i].has_model) continue;
      two_edges += map->edge_cost_bytes(i);
      ++counted;
    }
    ASSERT_EQ(counted, 2u);
  }
  ds::ServeConfig scfg = f.serve_config();
  scfg.resident_bytes = two_edges;
  ds::SessionManager manager(f.artifact.path, scfg);
  const auto residency = manager.registry().current()->residency;

  const auto series = make_series(100, 43);
  const auto expected = replay_windows(f, series);
  const std::uint64_t id = manager.open();
  for (std::size_t t = 0; t < 100; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();
  EXPECT_EQ(poll_and_check(manager, id, expected), expected.size());

  const auto stats = residency->stats();
  EXPECT_LE(stats.resident_bytes, two_edges);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(dobs::metrics().gauge("serve.model.resident_bytes").value(),
            static_cast<double>(two_edges));
}

// ---------------------------------------------------------------------------
// Acceptance soak: 32 sessions, tight budget, zero dropped windows

TEST(ServeMapped, SoakThirtyTwoSessionsUnderBudgetZeroDrops) {
  auto& f = fixture();
  ds::ServeConfig scfg = f.serve_config();
  scfg.resident_edges = 2;
  ds::SessionManager manager(f.artifact.path, scfg);
  const auto residency = manager.registry().current()->residency;

  constexpr std::size_t kSessions = 32;
  constexpr std::size_t kTicks = 60;
  std::vector<dc::MultivariateSeries> series;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    series.push_back(make_series(kTicks, 100 + s));
    ids.push_back(manager.open());
  }
  for (std::size_t t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(manager.ingest(ids[s], tick_states(series[s], t)),
                ds::IngestStatus::kAccepted)
          << "session " << s << " tick " << t;
    }
  }
  manager.drain();

  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto expected = replay_windows(f, series[s]);
    EXPECT_EQ(poll_and_check(manager, ids[s], expected), expected.size())
        << "session " << s << " dropped windows";
  }
  const auto stats = residency->stats();
  EXPECT_LE(stats.resident_edges, 2u);
  EXPECT_GT(stats.evictions, 0u);  // the budget actually bit
  EXPECT_GT(stats.hits, 0u);       // ...and the LRU still served from cache
}

// ---------------------------------------------------------------------------
// Hot reload is a remap

TEST(ServeMapped, ReloadOfMappedArtifactSwapsGenerations) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const auto gen1 = manager.registry().current();
  ASSERT_NE(gen1->residency, nullptr);

  const std::uint64_t id = manager.open();
  const auto series = make_series(120, 44);
  const auto expected = replay_windows(f, series);
  for (std::size_t t = 0; t < 60; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }

  // Republish the same framework as a fresh v4 artifact and remap.
  TempFile next("serve_mapped_reload.bin");
  dio::save_framework(f.framework, next.path);
  const std::uint64_t new_gen = manager.reload(next.path);
  EXPECT_GT(new_gen, gen1->id);
  const auto gen2 = manager.registry().current();
  ASSERT_NE(gen2->residency, nullptr);
  EXPECT_NE(gen2->residency, gen1->residency);  // distinct map + cache

  for (std::size_t t = 60; t < 120; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();
  // Same weights on both sides of the swap → every window still bit-matches.
  EXPECT_EQ(poll_and_check(manager, id, expected), expected.size());
}

TEST(ServeMapped, CorruptMappedReloadKeepsOldGenerationServing) {
  auto& f = fixture();
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const std::uint64_t gen_before = manager.generation();

  // A v4 artifact with a flipped TOC byte must be rejected at remap time.
  TempFile bad("serve_mapped_corrupt.bin");
  {
    std::ifstream is(f.artifact.path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string bytes = buf.str();
    bytes[bytes.size() - 8] = static_cast<char>(bytes[bytes.size() - 8] ^ 1);
    std::ofstream os(bad.path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(manager.reload(bad.path), desmine::RuntimeError);
  EXPECT_EQ(manager.generation(), gen_before);
  EXPECT_FALSE(manager.last_reload_error().empty());

  // Old generation still serves.
  const auto series = make_series(60, 46);
  const auto expected = replay_windows(f, series);
  const std::uint64_t id = manager.open();
  for (std::size_t t = 0; t < 60; ++t) {
    ASSERT_EQ(manager.ingest(id, tick_states(series, t)),
              ds::IngestStatus::kAccepted);
  }
  manager.drain();
  EXPECT_EQ(poll_and_check(manager, id, expected), expected.size());
}

TEST(ServeMapped, LegacyVersionArtifactRejectedAtHeader) {
  // v4 is the only framework format: a file whose header names v1–v3 is
  // refused by the path ctor, reload and begin_shadow with a typed kHeader
  // error naming the version, and the serving generation is untouched.
  auto& f = fixture();
  std::string bytes;
  {
    std::ifstream is(f.artifact.path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = buf.str();
  }
  ds::SessionManager manager(f.artifact.path, f.serve_config());
  const std::uint64_t gen_before = manager.generation();
  for (std::uint32_t version = 1; version <= 3; ++version) {
    TempFile legacy("serve_mapped_v" + std::to_string(version) + ".bin");
    std::string patched = bytes;
    std::memcpy(patched.data() + 4, &version, sizeof(version));
    {
      std::ofstream os(legacy.path, std::ios::binary | std::ios::trunc);
      os.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    const std::string named = "version " + std::to_string(version);
    const auto expect_header_error = [&](const auto& call, const char* what) {
      try {
        call();
        ADD_FAILURE() << what << " accepted a v" << version << " file";
      } catch (const dio::ArtifactError& e) {
        EXPECT_EQ(e.section(), dio::ArtifactError::Section::kHeader) << what;
        EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
            << what << ": " << e.what();
      }
    };
    expect_header_error(
        [&] { ds::SessionManager(legacy.path, f.serve_config()); }, "ctor");
    expect_header_error([&] { manager.reload(legacy.path); }, "reload");
    expect_header_error([&] { manager.begin_shadow(legacy.path); },
                        "begin_shadow");
    EXPECT_EQ(manager.generation(), gen_before);
  }
}
