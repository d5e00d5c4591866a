// Tests for the robustness subsystem: CRC32, retry policy, deadlines, fault
// injection, the checkpoint journal, and the miner's fault isolation /
// crash-resume behavior (ISSUE 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/miner.h"
#include "core/mvr_graph.h"
#include "obs/metrics.h"
#include "robust/checkpoint.h"
#include "robust/deadline.h"
#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "robust/retry.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dr = desmine::robust;
namespace du = desmine::util;
namespace dx = desmine::text;
using desmine::util::Rng;

namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_robust_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    // Best-effort cleanup of checkpoint sidecars.
    const std::string dir = dr::checkpoint_model_dir(path);
    for (std::size_t p = 0; p < 64; ++p) {
      std::remove(dr::checkpoint_model_file(path, p).c_str());
    }
    std::remove(dir.c_str());
  }
};

/// n perfectly correlated sensor languages: every sensor renders the same
/// underlying index sequence in its own token alphabet, so every directional
/// pair is a learnable word-substitution task.
std::vector<dc::SensorLanguage> make_languages(std::size_t n,
                                               std::uint64_t seed) {
  const std::size_t train_sentences = 24, dev_sentences = 6, len = 4;
  Rng rng(seed);
  std::vector<dc::SensorLanguage> langs(n);
  for (std::size_t k = 0; k < n; ++k) {
    langs[k].name = "s" + std::to_string(k);
  }
  const auto emit = [&](bool dev, std::size_t count) {
    for (std::size_t s = 0; s < count; ++s) {
      std::vector<std::size_t> idx(len);
      for (auto& v : idx) v = rng.index(4);
      for (std::size_t k = 0; k < n; ++k) {
        dx::Sentence sent;
        for (const auto v : idx) {
          sent.push_back("w" + std::to_string(k) + "_" + std::to_string(v));
        }
        (dev ? langs[k].dev : langs[k].train).push_back(sent);
      }
    }
  };
  emit(false, train_sentences);
  emit(true, dev_sentences);
  return langs;
}

dc::MinerConfig tiny_miner(std::uint64_t seed = 42) {
  dc::MinerConfig cfg;
  cfg.translation.model.embedding_dim = 8;
  cfg.translation.model.hidden_dim = 8;
  cfg.translation.model.num_layers = 1;
  cfg.translation.model.dropout = 0.0f;
  cfg.translation.model.max_decode_length = 6;
  cfg.translation.trainer.steps = 20;
  cfg.translation.trainer.batch_size = 4;
  cfg.translation.trainer.lr = 0.02f;
  cfg.seed = seed;
  cfg.threads = 1;
  return cfg;
}

std::map<std::pair<std::size_t, std::size_t>, double> bleu_by_pair(
    const dc::MvrGraph& g) {
  std::map<std::pair<std::size_t, std::size_t>, double> out;
  for (const auto& e : g.edges()) out[{e.src, e.dst}] = e.bleu;
  return out;
}

/// Every miner test disarms the process-wide injector on both sides so a
/// failing test cannot poison its neighbors.
class RobustMiner : public ::testing::Test {
 protected:
  void SetUp() override { dr::FaultInjector::instance().clear(); }
  void TearDown() override { dr::FaultInjector::instance().clear(); }
};

}  // namespace

// ------------------------------------------------------------------ crc32 --

namespace {

std::vector<unsigned char> random_bytes(std::size_t n, Rng& rng) {
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng.index(256));
  return out;
}

std::uint32_t random_seed(Rng& rng) {
  return static_cast<std::uint32_t>((rng.index(65536) << 16) |
                                    rng.index(65536));
}

}  // namespace

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value, on the dispatched and the table
  // path.
  EXPECT_EQ(du::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(du::detail::crc32_table("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(du::crc32(""), 0u);
  EXPECT_EQ(du::detail::crc32_table("", 0), 0u);
}

TEST(Crc32, DetectsSingleByteChange) {
  const std::string a = "the quick brown fox";
  std::string b = a;
  b[5] ^= 0x01;
  EXPECT_NE(du::crc32(a), du::crc32(b));
}

TEST(Crc32, FoldsOnCpusWithCarrylessMultiply) {
  // The comparisons below test the folded path only where it runs; make
  // sure it does run wherever the CPU offers it.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  EXPECT_EQ(du::detail::crc32_folds(),
            __builtin_cpu_supports("pclmul") &&
                __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_FALSE(du::detail::crc32_folds());
#endif
}

TEST(Crc32, DispatchedEqualsTableOnRandomDraws) {
  // Offsets 0-63 vary the alignment of the 16-byte loads; every other
  // length is 64 + 64k + t, so each tail t = 0..63 past the four-lane
  // folds (and so each mix of 16-byte blocks and table bytes) occurs.
  Rng rng(0xC3C32);
  const std::size_t kMaxLen = 9000, kMaxOffset = 63;
  std::vector<unsigned char> buf;
  for (std::size_t draw = 0; draw < 12000; ++draw) {
    if (draw % 1000 == 0) buf = random_bytes(kMaxOffset + kMaxLen, rng);
    const std::size_t offset = rng.index(kMaxOffset + 1);
    const std::size_t len = draw % 2 == 0
                                ? 64 + 64 * rng.index(139) + (draw / 2) % 64
                                : rng.index(kMaxLen + 1);
    const std::uint32_t seed = random_seed(rng);
    const unsigned char* p = buf.data() + offset;
    ASSERT_EQ(du::crc32(p, len, seed), du::detail::crc32_table(p, len, seed))
        << "draw " << draw << ": offset " << offset << ", length " << len
        << ", seed " << seed;
  }
}

TEST(Crc32, ContinuesAcrossEverySplit) {
  Rng rng(300);
  const std::vector<unsigned char> buf = random_bytes(300, rng);
  const std::uint32_t whole = du::crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, du::detail::crc32_table(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t head = du::crc32(buf.data(), split);
    EXPECT_EQ(du::crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(Crc32, DispatchedEqualsTableOnFourMebibytes) {
  Rng rng(4);
  const std::vector<unsigned char> buf =
      random_bytes(std::size_t{4} << 20, rng);
  EXPECT_EQ(du::crc32(buf.data(), buf.size()),
            du::detail::crc32_table(buf.data(), buf.size()));
}

// ------------------------------------------------------------ retry policy --

TEST(RetryPolicy, FirstAttemptHasNoDelay) {
  dr::RetryPolicy policy;
  policy.base_delay_ms = 100.0;
  Rng rng(1);
  EXPECT_EQ(policy.delay_ms(0, rng), 0.0);
}

TEST(RetryPolicy, ZeroBaseNeverSleeps) {
  dr::RetryPolicy policy;  // base_delay_ms defaults to 0
  Rng rng(1);
  for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(policy.delay_ms(r, rng), 0.0);
}

TEST(RetryPolicy, ExponentialGrowthAndCap) {
  dr::RetryPolicy policy;
  policy.base_delay_ms = 100.0;
  policy.multiplier = 2.0;
  policy.max_delay_ms = 350.0;
  policy.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(policy.delay_ms(1, rng), 100.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(2, rng), 200.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(3, rng), 350.0);  // capped, not 400
  EXPECT_DOUBLE_EQ(policy.delay_ms(8, rng), 350.0);
}

TEST(RetryPolicy, JitterStaysInBoundsAndIsDeterministic) {
  dr::RetryPolicy policy;
  policy.base_delay_ms = 100.0;
  policy.jitter = 0.25;
  Rng a(7), b(7);
  for (std::size_t r = 1; r <= 6; ++r) {
    const double d = policy.delay_ms(r, a);
    const double unjittered = std::min(
        policy.base_delay_ms * std::pow(policy.multiplier, double(r - 1)),
        policy.max_delay_ms);
    EXPECT_GE(d, unjittered * 0.75);
    EXPECT_LE(d, unjittered * 1.25);
    EXPECT_DOUBLE_EQ(d, policy.delay_ms(r, b));  // same seed, same schedule
  }
}

// ---------------------------------------------------------------- deadline --

TEST(Deadline, UnlimitedNeverExpires) {
  const dr::Deadline d(0.0);
  EXPECT_FALSE(d.expired());
  EXPECT_NO_THROW(d.check("work"));
}

TEST(Deadline, GenerousBudgetDoesNotTrip) {
  const dr::Deadline d(3600.0);
  EXPECT_FALSE(d.expired());
  EXPECT_NO_THROW(d.check("work"));
}

TEST(Deadline, TinyBudgetExpiresAndThrowsTyped) {
  const dr::Deadline d(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(d.expired());
  try {
    d.check("pair training");
    FAIL() << "expected DeadlineExceeded";
  } catch (const dr::DeadlineExceeded& e) {
    EXPECT_NE(std::string(e.what()).find("pair training"), std::string::npos);
  }
  // DeadlineExceeded is a RuntimeError, so generic handlers still catch it.
  EXPECT_THROW(d.check("x"), desmine::RuntimeError);
}

// ---------------------------------------------------------- fault injector --

TEST_F(RobustMiner, InjectorFiresOnExactKeyOnly) {
  auto& inj = dr::FaultInjector::instance();
  inj.arm("p", 3, dr::FaultAction::kThrow);
  EXPECT_EQ(inj.fire("p", 2), dr::FaultAction::kNone);
  EXPECT_EQ(inj.fire("q", 3), dr::FaultAction::kNone);
  EXPECT_EQ(inj.fire("p", 3), dr::FaultAction::kThrow);
  EXPECT_EQ(inj.fire("p", 3), dr::FaultAction::kThrow);  // unlimited
}

TEST_F(RobustMiner, InjectorWildcardAndTimes) {
  auto& inj = dr::FaultInjector::instance();
  inj.arm("p", -1, dr::FaultAction::kDiverge, 2);
  EXPECT_EQ(inj.fire("p", 11), dr::FaultAction::kDiverge);
  EXPECT_EQ(inj.fire("p", 99), dr::FaultAction::kDiverge);
  EXPECT_EQ(inj.fire("p", 11), dr::FaultAction::kNone);  // exhausted
}

TEST_F(RobustMiner, InjectorDisarmedIsSilent) {
  auto& inj = dr::FaultInjector::instance();
  EXPECT_FALSE(inj.any_armed());
  EXPECT_EQ(inj.fire("anything", 0), dr::FaultAction::kNone);
}

TEST_F(RobustMiner, InjectorSpecParsing) {
  auto& inj = dr::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("a:1=throw;b:*=diverge*2, c:5=abort"), 3u);
  EXPECT_EQ(inj.fire("a", 1), dr::FaultAction::kThrow);
  EXPECT_EQ(inj.fire("b", 123), dr::FaultAction::kDiverge);
  EXPECT_EQ(inj.fire("c", 5), dr::FaultAction::kAbort);
  EXPECT_EQ(inj.fire("c", 4), dr::FaultAction::kNone);
}

TEST_F(RobustMiner, InjectorSpecParsesDropAction) {
  auto& inj = dr::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("detect.push:2=drop*2"), 1u);
  EXPECT_EQ(inj.fire("detect.push", 2), dr::FaultAction::kDrop);
  EXPECT_EQ(inj.fire("detect.push", 2), dr::FaultAction::kDrop);
  EXPECT_EQ(inj.fire("detect.push", 2), dr::FaultAction::kNone);  // spent
  EXPECT_EQ(inj.fire("detect.push", 1), dr::FaultAction::kNone);
}

TEST_F(RobustMiner, InjectorRejectsMalformedSpecs) {
  auto& inj = dr::FaultInjector::instance();
  EXPECT_THROW(inj.arm_from_spec("nonsense"), desmine::PreconditionError);
  EXPECT_THROW(inj.arm_from_spec("a:1=explode"), desmine::PreconditionError);
  EXPECT_THROW(inj.arm_from_spec("a:=throw"), desmine::PreconditionError);
  EXPECT_THROW(inj.arm_from_spec("a:1=throw*x"), desmine::PreconditionError);
}

TEST_F(RobustMiner, InjectorStringKeysTargetEdges) {
  auto& inj = dr::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("serve.decode:3->7=throw*2"), 1u);
  EXPECT_EQ(inj.fire("serve.decode", "2->7"), dr::FaultAction::kNone);
  EXPECT_EQ(inj.fire("serve.decode", "3->7"), dr::FaultAction::kThrow);
  EXPECT_EQ(inj.fire("serve.decode", "3->7"), dr::FaultAction::kThrow);
  EXPECT_EQ(inj.fire("serve.decode", "3->7"), dr::FaultAction::kNone);
}

TEST_F(RobustMiner, InjectorCanonicalizesNumericKeys) {
  auto& inj = dr::FaultInjector::instance();
  // "03" and integer 3 name the same key; int fire matches string arming
  // and vice versa.
  EXPECT_EQ(inj.arm_from_spec("p:03=throw"), 1u);
  EXPECT_EQ(inj.fire("p", 3), dr::FaultAction::kThrow);
  EXPECT_EQ(inj.fire("p", "3"), dr::FaultAction::kThrow);
  inj.clear();
  inj.arm("q", std::int64_t{5}, dr::FaultAction::kDrop);
  EXPECT_EQ(inj.fire("q", "5"), dr::FaultAction::kDrop);
}

TEST_F(RobustMiner, InjectorWildcardMatchesStringAndIntKeys) {
  auto& inj = dr::FaultInjector::instance();
  inj.arm("serve.decode", std::string("*"), dr::FaultAction::kDelay, 2);
  EXPECT_EQ(inj.fire("serve.decode", "a->b"), dr::FaultAction::kDelay);
  EXPECT_EQ(inj.fire("serve.decode", 17), dr::FaultAction::kDelay);
  EXPECT_EQ(inj.fire("serve.decode", "a->b"), dr::FaultAction::kNone);
}

TEST_F(RobustMiner, InjectorSpecParsesDelayAction) {
  auto& inj = dr::FaultInjector::instance();
  EXPECT_EQ(inj.arm_from_spec("serve.ingest:*=delay*1"), 1u);
  EXPECT_EQ(inj.fire("serve.ingest", 1), dr::FaultAction::kDelay);
  EXPECT_EQ(inj.fire("serve.ingest", 1), dr::FaultAction::kNone);
}

// ------------------------------------------------------ checkpoint journal --

TEST(Checkpoint, MissingFileLoadsEmpty) {
  const auto state = dr::load_checkpoint("/tmp/desmine_robust_nope.jsonl");
  EXPECT_FALSE(state.exists);
  EXPECT_FALSE(state.has_header);
  EXPECT_TRUE(state.completed.empty());
}

TEST(Checkpoint, RoundTripIsBitExact) {
  const TempFile file("journal_roundtrip.jsonl");
  // A value with no short decimal representation: %.12g would lose bits,
  // the bleu_bits field must not.
  const double tricky_bleu = 100.0 / 3.0 + 1e-13;
  {
    dr::CheckpointJournal journal(file.path, /*append=*/false);
    journal.write_header(0xDEADBEEF, 6);
    dr::PairRecord ok;
    ok.pair_index = 2;
    ok.src = 0;
    ok.dst = 1;
    ok.ok = true;
    ok.bleu = tricky_bleu;
    ok.runtime_s = 0.125;
    ok.steps = 20;
    ok.attempts = 2;
    ok.model_file = "/tmp/whatever.bin";
    journal.append(ok);
    dr::PairRecord bad;
    bad.pair_index = 4;
    bad.src = 1;
    bad.dst = 2;
    bad.ok = false;
    bad.attempts = 3;
    bad.error = "diverged at step 3: loss = inf";
    journal.append(bad);
  }
  const auto state = dr::load_checkpoint(file.path);
  EXPECT_TRUE(state.exists);
  EXPECT_TRUE(state.has_header);
  EXPECT_EQ(state.fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(state.pair_count, 6u);
  EXPECT_EQ(state.failed_records, 1u);
  EXPECT_EQ(state.skipped_lines, 0u);
  ASSERT_EQ(state.completed.size(), 1u);
  const dr::PairRecord& back = state.completed.at(2);
  EXPECT_EQ(back.src, 0u);
  EXPECT_EQ(back.dst, 1u);
  EXPECT_EQ(back.bleu, tricky_bleu);  // exact, not approximately equal
  EXPECT_EQ(back.runtime_s, 0.125);
  EXPECT_EQ(back.steps, 20u);
  EXPECT_EQ(back.attempts, 2u);
  EXPECT_EQ(back.model_file, "/tmp/whatever.bin");
}

TEST(Checkpoint, TruncatedTrailingLineIsSkippedNotFatal) {
  const TempFile file("journal_truncated.jsonl");
  {
    dr::CheckpointJournal journal(file.path, false);
    journal.write_header(1, 2);
    dr::PairRecord rec;
    rec.pair_index = 0;
    rec.src = 0;
    rec.dst = 1;
    rec.ok = true;
    rec.bleu = 50.0;
    journal.append(rec);
  }
  // Simulate a crash mid-append: a partial record with no trailing newline.
  {
    std::ofstream os(file.path, std::ios::app | std::ios::binary);
    os << R"({"type":"pair","pair":1,"ok":tr)";
  }
  const auto state = dr::load_checkpoint(file.path);
  EXPECT_TRUE(state.has_header);
  EXPECT_EQ(state.completed.size(), 1u);
  EXPECT_EQ(state.completed.count(0), 1u);
  EXPECT_EQ(state.skipped_lines, 1u);
}

TEST(Checkpoint, AppendModePreservesExistingRecords) {
  const TempFile file("journal_append.jsonl");
  {
    dr::CheckpointJournal journal(file.path, false);
    journal.write_header(9, 4);
    dr::PairRecord rec;
    rec.pair_index = 0;
    rec.src = 0;
    rec.dst = 1;
    rec.ok = true;
    rec.bleu = 10.0;
    journal.append(rec);
  }
  {
    dr::CheckpointJournal journal(file.path, true);
    dr::PairRecord rec;
    rec.pair_index = 1;
    rec.src = 1;
    rec.dst = 0;
    rec.ok = true;
    rec.bleu = 20.0;
    journal.append(rec);
  }
  const auto state = dr::load_checkpoint(file.path);
  EXPECT_EQ(state.fingerprint, 9u);
  EXPECT_EQ(state.completed.size(), 2u);
}

TEST(Checkpoint, NonDigitIntegersAreSkippedLines) {
  // std::stoull would read -1 as 2^64-1 and 1.5 as 1; a journal integer is
  // decimal digits only, so these records are skipped, not resumed.
  const TempFile file("journal_integers.jsonl");
  {
    std::ofstream os(file.path, std::ios::binary);
    os << R"({"type":"header","fingerprint":7,"pairs":4})" << "\n"
       << R"({"type":"pair","pair":-1,"src":0,"dst":1,"ok":true})" << "\n"
       << R"({"type":"pair","pair":1.5,"src":0,"dst":1,"ok":true})" << "\n"
       << R"({"type":"pair","pair":2,"src":"1x","dst":1,"ok":true})" << "\n"
       << R"({"type":"pair","pair":3,"src":1,"dst":0,"ok":true})" << "\n";
  }
  const auto state = dr::load_checkpoint(file.path);
  EXPECT_EQ(state.fingerprint, 7u);
  EXPECT_EQ(state.pair_count, 4u);
  EXPECT_EQ(state.skipped_lines, 3u);
  ASSERT_EQ(state.completed.size(), 1u);
  EXPECT_EQ(state.completed.count(3), 1u);
}

TEST(Checkpoint, FailedFsyncThrowsLikeAFailedWrite) {
  // fsync(2) on /dev/null fails with EINVAL on Linux, after fwrite and
  // fflush have succeeded.
  dr::CheckpointJournal journal("/dev/null", /*append=*/true);
  EXPECT_THROW(journal.write_header(1, 2), desmine::RuntimeError);
}

// ------------------------------------------------- miner fault isolation ---

TEST_F(RobustMiner, InjectedFaultsAreIsolatedToTheirPairs) {
  const auto languages = make_languages(3, 5);  // 6 ordered pairs

  // Reference run: no faults.
  const dc::MvrGraph clean =
      dc::RelationshipMiner(tiny_miner()).mine(languages);
  ASSERT_EQ(clean.edges().size(), 6u);
  ASSERT_TRUE(clean.failures().empty());
  const auto clean_bleu = bleu_by_pair(clean);

  // Pair 0 always throws; pair 3 always diverges (poisoned learning rate).
  auto& inj = dr::FaultInjector::instance();
  inj.arm("miner.pair", 0, dr::FaultAction::kThrow);
  inj.arm("miner.pair", 3, dr::FaultAction::kDiverge);

  auto& failed = desmine::obs::metrics().counter("miner.pair.failed");
  const auto failed_before = failed.value();

  dc::MinerConfig cfg = tiny_miner();
  cfg.retry.max_retries = 1;
  const dc::MvrGraph graph = dc::RelationshipMiner(cfg).mine(languages);

  // mine() completed despite two poisoned pairs.
  EXPECT_EQ(graph.edges().size(), 4u);
  ASSERT_EQ(graph.failures().size(), 2u);
  EXPECT_EQ(failed.value() - failed_before, 2u);
  for (const auto& f : graph.failures()) {
    EXPECT_EQ(f.attempts, 2u);  // first attempt + one retry
    EXPECT_FALSE(f.reason.empty());
  }

  // The surviving pairs trained from untouched forked seeds: their BLEU is
  // bit-identical to the clean run.
  const auto faulty_bleu = bleu_by_pair(graph);
  for (const auto& [pair, bleu] : faulty_bleu) {
    ASSERT_EQ(clean_bleu.count(pair), 1u);
    EXPECT_EQ(bleu, clean_bleu.at(pair));
  }
}

TEST_F(RobustMiner, TransientFaultIsRetriedToSuccess) {
  const auto languages = make_languages(3, 5);
  auto& inj = dr::FaultInjector::instance();
  inj.arm("miner.pair", 2, dr::FaultAction::kThrow, /*times=*/1);

  auto& retries = desmine::obs::metrics().counter("miner.pair.retries");
  const auto retries_before = retries.value();

  dc::MinerConfig cfg = tiny_miner();
  cfg.retry.max_retries = 2;
  const dc::MvrGraph graph = dc::RelationshipMiner(cfg).mine(languages);

  EXPECT_EQ(graph.edges().size(), 6u);
  EXPECT_TRUE(graph.failures().empty());
  EXPECT_GE(retries.value() - retries_before, 1u);
}

TEST_F(RobustMiner, DeadlineFailsPairsWithoutRetry) {
  const auto languages = make_languages(3, 5);
  dc::MinerConfig cfg = tiny_miner();
  cfg.pair_timeout_s = 1e-9;  // expires on the first training step
  cfg.retry.max_retries = 3;
  const dc::MvrGraph graph = dc::RelationshipMiner(cfg).mine(languages);

  EXPECT_TRUE(graph.edges().empty());
  ASSERT_EQ(graph.failures().size(), 6u);
  for (const auto& f : graph.failures()) {
    EXPECT_EQ(f.attempts, 1u) << "deadline overruns must not be retried";
    EXPECT_NE(f.reason.find("deadline"), std::string::npos) << f.reason;
  }
}

// ---------------------------------------------------- crash-resume parity ---

TEST_F(RobustMiner, CrashThenResumeYieldsBitIdenticalGraph) {
  const auto languages = make_languages(3, 5);

  // Reference: one uninterrupted run.
  const dc::MvrGraph reference =
      dc::RelationshipMiner(tiny_miner()).mine(languages);
  const auto reference_bleu = bleu_by_pair(reference);

  const TempFile checkpoint("resume.jsonl");

  // Crash run: abort right after pair 2 is journaled (threads=1 keeps the
  // pair order deterministic).
  auto& inj = dr::FaultInjector::instance();
  inj.arm("miner.pair.done", 2, dr::FaultAction::kAbort, 1);
  dc::MinerConfig crash_cfg = tiny_miner();
  crash_cfg.checkpoint_path = checkpoint.path;
  EXPECT_THROW(dc::RelationshipMiner(crash_cfg).mine(languages),
               dr::Interrupted);
  inj.clear();

  const auto journaled = dr::load_checkpoint(checkpoint.path);
  EXPECT_EQ(journaled.completed.size(), 3u);  // pairs 0..2 survived

  // Resume: skip the journaled pairs, train the rest.
  auto& skipped =
      desmine::obs::metrics().counter("checkpoint.pairs_skipped");
  const auto skipped_before = skipped.value();

  dc::MinerConfig resume_cfg = tiny_miner();
  resume_cfg.checkpoint_path = checkpoint.path;
  resume_cfg.resume = true;
  std::size_t resumed_events = 0;
  resume_cfg.on_pair = [&](const dc::PairEvent& e) {
    if (e.resumed) ++resumed_events;
  };
  const dc::MvrGraph resumed =
      dc::RelationshipMiner(resume_cfg).mine(languages);

  EXPECT_EQ(skipped.value() - skipped_before, 3u);
  EXPECT_EQ(resumed_events, 3u);
  EXPECT_TRUE(resumed.failures().empty());
  ASSERT_EQ(resumed.edges().size(), 6u);
  const auto resumed_bleu = bleu_by_pair(resumed);
  for (const auto& [pair, bleu] : reference_bleu) {
    ASSERT_EQ(resumed_bleu.count(pair), 1u);
    EXPECT_EQ(resumed_bleu.at(pair), bleu)
        << "pair (" << pair.first << ", " << pair.second
        << ") BLEU must be bit-identical after resume";
  }

  // The restored edges carry usable models (reloaded from the sidecars).
  for (const auto& e : resumed.edges()) {
    EXPECT_TRUE(e.model != nullptr);
  }
}

TEST_F(RobustMiner, ResumeRefusesForeignCheckpoint) {
  const auto languages = make_languages(3, 5);
  const TempFile checkpoint("foreign.jsonl");
  {
    dr::CheckpointJournal journal(checkpoint.path, false);
    journal.write_header(/*fingerprint=*/12345, 6);
  }
  dc::MinerConfig cfg = tiny_miner();
  cfg.checkpoint_path = checkpoint.path;
  cfg.resume = true;
  EXPECT_THROW(dc::RelationshipMiner(cfg).mine(languages),
               desmine::RuntimeError);
}

TEST_F(RobustMiner, CorruptSidecarModelTriggersRetrainNotFailure) {
  const auto languages = make_languages(3, 6);
  const TempFile checkpoint("sidecar.jsonl");

  dc::MinerConfig cfg = tiny_miner();
  cfg.checkpoint_path = checkpoint.path;
  const dc::MvrGraph first = dc::RelationshipMiner(cfg).mine(languages);
  const auto first_bleu = bleu_by_pair(first);

  // Corrupt one sidecar artifact; resume must retrain that pair (same seed,
  // same BLEU) instead of failing or loading garbage weights.
  {
    std::ofstream os(dr::checkpoint_model_file(checkpoint.path, 1),
                     std::ios::trunc | std::ios::binary);
    os << "garbage";
  }
  dc::MinerConfig resume_cfg = tiny_miner();
  resume_cfg.checkpoint_path = checkpoint.path;
  resume_cfg.resume = true;
  const dc::MvrGraph resumed =
      dc::RelationshipMiner(resume_cfg).mine(languages);
  ASSERT_EQ(resumed.edges().size(), 6u);
  const auto resumed_bleu = bleu_by_pair(resumed);
  for (const auto& [pair, bleu] : first_bleu) {
    EXPECT_EQ(resumed_bleu.at(pair), bleu);
  }
}
