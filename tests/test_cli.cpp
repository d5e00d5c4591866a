// Integration tests for the desmine_cli exit-code contract (README.md):
//   0    success
//   1    runtime failure
//   2    usage error
//   3    training completed but some pairs permanently failed
//   4    detection completed degraded (windows below the coverage quorum)
// desmine_serve shares the usage-error contract for options it does not
// take. The binary paths are injected by CMake as DESMINE_CLI_PATH and
// DESMINE_SERVE_PATH; faults are injected into the spawned process via the
// DESMINE_FAULTS environment variable (see robust::FaultInjector).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/online.h"
#include "io/serialize.h"
#include "obs/json.h"

namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_cli_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Run `tool` with `args` (and an optional DESMINE_FAULTS value for the
/// child only) and return its exit code; -1 if it died on a signal.
int run_tool(const std::string& tool, const std::string& args,
             const std::string& faults = "") {
  std::string cmd;
  if (!faults.empty()) cmd += "DESMINE_FAULTS='" + faults + "' ";
  cmd += tool + " " + args + " >/dev/null 2>&1 </dev/null";
  const int status = std::system(cmd.c_str());
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Exit code of `tool` with `args`; its stderr lands in `*err`.
int run_tool_stderr(const std::string& tool, const std::string& args,
                    std::string* err) {
  const TempFile log("stderr.txt");
  const int status = std::system(
      (tool + " " + args + " >/dev/null 2>" + log.path + " </dev/null")
          .c_str());
  std::ifstream in(log.path);
  std::stringstream text;
  text << in.rdbuf();
  *err = text.str();
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

int run_cli(const std::string& args, const std::string& faults = "") {
  return run_tool(DESMINE_CLI_PATH, args, faults);
}

/// Tiny plant CSVs shared by the train tests (generated once).
struct Corpora {
  TempFile train{"train.csv"};
  TempFile dev{"dev.csv"};
  Corpora() {
    EXPECT_EQ(run_cli("generate --out " + train.path +
                      " --days 2 --minutes 40 --seed 7 --components 1"),
              0);
    EXPECT_EQ(run_cli("generate --out " + dev.path +
                      " --days 1 --minutes 40 --seed 8 --components 1"),
              0);
  }
};

Corpora& corpora() {
  static Corpora c;
  return c;
}

/// train invocation small enough for an integration test.
std::string tiny_train_args(const std::string& out) {
  return "train --train " + corpora().train.path + " --dev " +
         corpora().dev.path + " --out " + out +
         " --word 3 --sentence 4 --sentence-stride 4"
         " --embedding 8 --hidden 8 --layers 1 --dropout 0"
         " --steps 5 --batch 4 --threads 1 --max-retries 1";
}

}  // namespace

TEST(CliExitCodes, NoArgumentsIsUsageError) { EXPECT_EQ(run_cli(""), 2); }

TEST(CliExitCodes, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_cli("frobnicate"), 2);
}

TEST(CliExitCodes, MissingOptionValueIsUsageError) {
  EXPECT_EQ(run_cli("generate --out"), 2);
}

TEST(CliExitCodes, UnknownOptionIsUsageError) {
  // A misspelled option must not silently fall back to its default.
  const TempFile csv("typo.csv");
  EXPECT_EQ(run_cli("generate --out " + csv.path +
                    " --days 1 --minutes 40 --dayz 7 --precison int8"),
            2);
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --days=1 --dayz=7"), 2);
  // Nothing ran: the check precedes the command's work.
  EXPECT_FALSE(std::ifstream(csv.path).good());
}

TEST(ServeExitCodes, UnknownOptionIsUsageError) {
  EXPECT_EQ(run_tool(DESMINE_SERVE_PATH, "--dump-config"), 0);
  EXPECT_EQ(run_tool(DESMINE_SERVE_PATH, "--dump-config --kernelz scalar"), 2);
  // Rejected before the model is opened, so no artifact is needed.
  EXPECT_EQ(run_tool(DESMINE_SERVE_PATH,
                     "--model /tmp/desmine_cli_no_such_model.bin "
                     "--precision int8"),
            2);
}

TEST(ServeExitCodes, MalformedNumbersAreUsageErrorsNamingTheFlag) {
  // Each is rejected before --dump-config prints: a negative or junk
  // integer, a fraction out of its range, and a non-number.
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {{"--max-batch -3", "--max-batch"},
               {"--min-coverage 7", "--min-coverage"},
               {"--workers 4x", "--workers"},
               {"--workers abc", "--workers"},
               {"--decode-cache 2.5", "--decode-cache"},
               {"--lo 1e999", "--lo"}};
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(run_tool_stderr(DESMINE_SERVE_PATH,
                              std::string(c.args) + " --dump-config", &err),
              2)
        << c.args;
    EXPECT_NE(err.find(c.flag), std::string::npos) << c.args << ": " << err;
  }
}

TEST(CliExitCodes, MalformedNumbersAreUsageErrors) {
  std::string err;
  EXPECT_EQ(run_tool_stderr(DESMINE_CLI_PATH,
                            "detect --min-coverage 7 --dump-config", &err),
            2);
  EXPECT_NE(err.find("--min-coverage"), std::string::npos) << err;
  const TempFile csv("bad_days.csv");
  EXPECT_EQ(run_tool_stderr(DESMINE_CLI_PATH,
                            "generate --out " + csv.path + " --days 3x", &err),
            2);
  EXPECT_NE(err.find("--days"), std::string::npos) << err;
  EXPECT_FALSE(std::ifstream(csv.path).good());
}

/// Exit code of `tool` with `args`; its stdout lands in `*out`.
int run_tool_stdout(const std::string& tool, const std::string& args,
                    std::string* out) {
  const TempFile log("stdout.txt");
  const int status = std::system(
      (tool + " " + args + " >" + log.path + " 2>/dev/null </dev/null")
          .c_str());
  std::ifstream in(log.path);
  std::stringstream text;
  text << in.rdbuf();
  *out = text.str();
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

TEST(ToolConfig, OutOfRangeFlagsAreUsageErrorsNamingFlagAndKey) {
  // Each value parses as a number but lies outside its key's range, which
  // a config file holding it would fail: the tool must refuse it before
  // --dump-config prints, naming the flag and the dotted key.
  const std::string cli = DESMINE_CLI_PATH;
  const std::string serve = DESMINE_SERVE_PATH;
  const struct {
    const std::string* tool;
    const char* args;
    const char* flag;
    const char* key;
  } cases[] = {
      {&cli, "train --word 0", "--word", "window.word_length"},
      {&cli, "train --word-stride 0", "--word-stride", "window.word_stride"},
      {&cli, "train --sentence 0", "--sentence", "window.sentence_length"},
      {&cli, "train --sentence-stride 0", "--sentence-stride",
       "window.sentence_stride"},
      {&cli, "train --embedding 0", "--embedding", "miner.model.embedding_dim"},
      {&cli, "train --hidden 0", "--hidden", "miner.model.hidden_dim"},
      {&cli, "train --layers 0", "--layers", "miner.model.num_layers"},
      {&cli, "train --dropout 1.5", "--dropout", "miner.model.dropout"},
      {&cli, "train --dropout 1", "--dropout", "miner.model.dropout"},
      {&cli, "train --steps 0", "--steps", "miner.trainer.steps"},
      {&cli, "train --batch 0", "--batch", "miner.trainer.batch_size"},
      {&cli, "train --lr 0", "--lr", "miner.trainer.lr"},
      {&cli, "train --pair-timeout-s -1", "--pair-timeout-s",
       "miner.pair_timeout_s"},
      {&cli, "train --tolerance -1", "--tolerance", "detector.tolerance"},
      {&cli, "train --lo 95 --hi 90", "--lo", "detector.valid_hi"},
      {&cli, "detect --min-coverage 1.5", "--min-coverage",
       "detector.min_coverage"},
      {&cli, "detect --tolerance -1", "--tolerance", "detector.tolerance"},
      {&cli, "detect --hi 10", "--hi", "detector.valid_lo"},
      {&cli, "detect --health-drop-after 0", "--health-drop-after",
       "health.drop_after_missing"},
      {&cli, "detect --health-unk-rate 1.5", "--health-unk-rate",
       "health.max_unk_rate"},
      {&cli, "detect --health-unk-window 0", "--health-unk-window",
       "health.unk_window"},
      {&cli, "detect --health-readmit-after 0", "--health-readmit-after",
       "health.readmit_after"},
      {&serve, "--min-coverage 1.5", "--min-coverage",
       "detector.min_coverage"},
      {&serve, "--tolerance -1", "--tolerance", "detector.tolerance"},
      {&serve, "--lo 95 --hi 90", "--hi", "detector.valid_lo"},
      {&serve, "--health-drop-after 0", "--health-drop-after",
       "health.drop_after_missing"},
      {&serve, "--health-unk-rate 1.5", "--health-unk-rate",
       "health.max_unk_rate"},
      {&serve, "--health-unk-window 0", "--health-unk-window",
       "health.unk_window"},
      {&serve, "--health-readmit-after 0", "--health-readmit-after",
       "health.readmit_after"},
      {&serve, "--max-batch 0", "--max-batch", "serve.max_batch"},
      {&serve, "--max-pending 0", "--max-pending",
       "serve.max_pending_windows"},
      {&serve, "--max-consecutive-shed 0", "--max-consecutive-shed",
       "serve.max_consecutive_shed"},
      {&serve, "--max-queue-delay-ms -1", "--max-queue-delay-ms",
       "serve.max_queue_delay_ms"},
      {&serve, "--circuit-probe-after 0", "--circuit-probe-after",
       "serve.circuit_probe_after"},
      {&serve, "--slow-window-ms -1", "--slow-window-ms",
       "serve.slow_window_ms"},
      {&serve, "--sliding-window-s 0", "--sliding-window-s",
       "serve.sliding_window_s"},
      {&serve, "--sliding-epochs 0", "--sliding-epochs",
       "serve.sliding_epochs"},
      {&cli, "train --kernels bogus", "--kernels", "tensor.kernels"},
      {&cli, "detect --kernels bogus", "--kernels", "tensor.kernels"},
      {&serve, "--kernels bogus", "--kernels", "tensor.kernels"},
  };
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(run_tool_stderr(*c.tool, std::string(c.args) + " --dump-config",
                              &err),
              2)
        << c.args;
    EXPECT_NE(err.find(c.flag), std::string::npos) << c.args << ": " << err;
    EXPECT_NE(err.find(c.key), std::string::npos) << c.args << ": " << err;
  }
}

TEST(ToolConfig, DumpUnderValidFlagsReparsesToTheSameBytes) {
  // What --dump-config prints under any accepted flags is a config file
  // the tool takes back unchanged.
  const std::string cli = DESMINE_CLI_PATH;
  const std::string serve = DESMINE_SERVE_PATH;
  const struct {
    const std::string* tool;
    const char* args;
  } cases[] = {
      {&cli, "train --word 3 --word-stride 2 --sentence 4 "
             "--sentence-stride 3 --embedding 6 --hidden 5 --layers 2 "
             "--dropout 0.25 --steps 7 --batch 3 --lr 0.5 "
             "--pair-timeout-s 1.5 --max-retries 4 --lo 40 --hi 60 "
             "--tolerance 2"},
      {&cli, "detect --lo 70 --hi 95 --tolerance 1 --min-coverage 0.75 "
             "--health-drop-after 2 --health-stale-after 9 "
             "--health-unk-rate 0.25 --health-unk-window 16 "
             "--health-readmit-after 3"},
      {&serve, "--lo 70 --hi 95 --min-coverage 0.25 --health-unk-rate 1 "
               "--workers 2 --max-batch 1 --decode-cache 0 --max-pending 1 "
               "--max-consecutive-shed 2 --max-global-pending 5 "
               "--max-queue-delay-ms 2.5 --circuit-open-after 0 "
               "--circuit-probe-after 1 --telemetry-port 65535 "
               "--resident-bytes 1024 --resident-edges 3 "
               "--slow-window-ms 0 --sliding-window-s 0.5 "
               "--sliding-epochs 1 --reject-when-full"},
  };
  const TempFile dumped("dumped.json");
  for (const auto& c : cases) {
    std::string first;
    ASSERT_EQ(run_tool_stdout(*c.tool, std::string(c.args) + " --dump-config",
                              &first),
              0)
        << c.args;
    ASSERT_FALSE(first.empty()) << c.args;
    std::ofstream(dumped.path) << first;
    // The subcommand (if any) leads; flags are dropped on the way back.
    const std::string args = c.args;
    const std::string command =
        args.rfind("--", 0) == 0 ? "" : args.substr(0, args.find(' ')) + " ";
    std::string second;
    EXPECT_EQ(run_tool_stdout(*c.tool,
                              command + "--config " + dumped.path +
                                  " --dump-config",
                              &second),
              0)
        << c.args;
    EXPECT_EQ(second, first) << c.args;
  }
}

TEST(ToolConfig, CliBoolFlagWinsOverTheConfigFile) {
  const TempFile file("resume.json");
  std::ofstream(file.path)
      << R"({"miner": {"resume": true, "checkpoint_path": "ckpt.jsonl"}})";
  std::string out;
  ASSERT_EQ(run_tool_stdout(DESMINE_CLI_PATH,
                            "train --config " + file.path +
                                " --resume=false --dump-config",
                            &out),
            0);
  EXPECT_NE(out.find("\"resume\": false"), std::string::npos) << out;
  // A bare flag still means true.
  std::ofstream(file.path) << R"({"miner": {"checkpoint_path": "c.jsonl"}})";
  ASSERT_EQ(run_tool_stdout(DESMINE_CLI_PATH,
                            "train --config " + file.path +
                                " --resume --dump-config",
                            &out),
            0);
  EXPECT_NE(out.find("\"resume\": true"), std::string::npos) << out;
}

TEST(ToolConfig, ServeBoolFlagWinsOverTheConfigFile) {
  const TempFile file("reject.json");
  std::ofstream(file.path) << R"({"serve": {"reject_when_full": true}})";
  std::string out;
  ASSERT_EQ(run_tool_stdout(DESMINE_SERVE_PATH,
                            "--config " + file.path +
                                " --reject-when-full=false --dump-config",
                            &out),
            0);
  EXPECT_NE(out.find("\"reject_when_full\": false"), std::string::npos)
      << out;
  ASSERT_EQ(run_tool_stdout(DESMINE_SERVE_PATH,
                            "--reject-when-full --dump-config", &out),
            0);
  EXPECT_NE(out.find("\"reject_when_full\": true"), std::string::npos)
      << out;
}

TEST(ToolConfig, RemovedKeysAreUnknownKeys) {
  // The pipeline has one BLEU, one training schedule and retries without
  // sleeps: a file naming a key of the settings that went is refused, not
  // read and ignored.
  const char* const removed[] = {
      "miner.bleu.max_order",         "miner.bleu.smooth",
      "detector.bleu.max_order",      "detector.bleu.smooth",
      "miner.trainer.lr_decay_start", "miner.trainer.lr_decay_every",
      "miner.trainer.eval_every",     "miner.trainer.patience",
      "miner.retry.base_delay_ms",    "miner.retry.multiplier",
      "miner.retry.max_delay_ms",     "miner.retry.jitter",
  };
  const TempFile file("removed_key.json");
  for (const std::string path : removed) {
    // {"a": {"b": {"c": 1}}} for "a.b.c".
    std::string json = "1";
    std::size_t end = path.size();
    while (true) {
      const std::size_t dot = path.rfind('.', end - 1);
      const std::size_t first = dot == std::string::npos ? 0 : dot + 1;
      json = "{\"" + path.substr(first, end - first) + "\": " + json + "}";
      if (dot == std::string::npos) break;
      end = dot;
    }
    std::ofstream(file.path) << json;
    for (const auto& [tool, command] :
         {std::pair{DESMINE_CLI_PATH, "train "},
          std::pair{DESMINE_SERVE_PATH, ""}}) {
      std::string err;
      EXPECT_EQ(run_tool_stderr(tool,
                                std::string(command) + "--config " +
                                    file.path + " --dump-config",
                                &err),
                2)
          << tool << " " << json;
      // The first segment nothing declares is the one named.
      const std::size_t at = err.find("unknown key '");
      ASSERT_NE(at, std::string::npos) << tool << ": " << err;
      const std::size_t from = at + std::strlen("unknown key '");
      const std::string named = err.substr(from, err.find('\'', from) - from);
      EXPECT_NE(named.find('.'), std::string::npos) << named;
      EXPECT_EQ(path.rfind(named, 0), 0u) << named << " vs " << path;
    }
  }
}

TEST(ToolConfig, NonFiniteConfigNumberIsAUsageErrorNamingTheKey) {
  // 1e999 parses as infinity: both tools must refuse the file before
  // --dump-config could print an `inf`, which is not JSON.
  const TempFile file("infinite.json");
  std::ofstream(file.path) << R"({"detector": {"valid_hi": 1e999}})";
  const struct {
    const char* tool;
    const char* command;
  } cases[] = {{DESMINE_CLI_PATH, "detect "}, {DESMINE_SERVE_PATH, ""}};
  for (const auto& c : cases) {
    std::string err;
    EXPECT_EQ(run_tool_stderr(c.tool,
                              std::string(c.command) + "--config " +
                                  file.path + " --dump-config",
                              &err),
              2)
        << c.tool;
    EXPECT_NE(err.find("detector.valid_hi"), std::string::npos)
        << c.tool << ": " << err;
    EXPECT_NE(err.find("finite number"), std::string::npos)
        << c.tool << ": " << err;
  }
}

namespace {

/// An option that overrides a config key: the dotted key it sets, its kind,
/// and the values the key accepts, [lo, hi] with the open sides excluded.
struct Knob {
  const char* flag;
  const char* key;
  enum Kind { kInt, kDouble, kFloat, kBool, kText, kBackend } kind;
  double lo = 0.0;
  double hi = 0.0;
  bool lo_open = false;
  bool hi_open = false;
};

constexpr double kMaxInt = 9007199254740992.0;  // 2^53
constexpr double kMaxDouble = std::numeric_limits<double>::max();
constexpr double kMaxFloat = std::numeric_limits<float>::max();

bool in_range(const Knob& k, double v) {
  return (k.lo_open ? v > k.lo : v >= k.lo) &&
         (k.hi_open ? v < k.hi : v <= k.hi);
}

/// The value the tool should store for `text` (floats are read as doubles
/// and narrowed, like the tools do).
double number_of(const Knob& k, const std::string& text) {
  const double d = std::strtod(text.c_str(), nullptr);
  return k.kind == Knob::kFloat ? static_cast<float>(d) : d;
}

/// One random in-range value as option text: a bound, a large integer
/// (>= 10^12 where the range allows), a number with 17 significant digits
/// on a log scale, or a small one.
std::string draw(const Knob& k, std::mt19937_64& rng) {
  const int mode = std::uniform_int_distribution<int>(0, 3)(rng);
  switch (k.kind) {
    case Knob::kBool:
      return mode % 2 == 0 ? "false" : "true";
    case Knob::kBackend: {
      const char* names[] = {"auto", "scalar", "avx2"};
      return names[mode % 3];
    }
    case Knob::kText:
      return "ckpt_" + std::to_string(rng() % 100000) + ".jsonl";
    case Knob::kInt: {
      const auto lo = static_cast<std::uint64_t>(k.lo);
      const auto hi = static_cast<std::uint64_t>(k.hi);
      const auto uniform = [&](std::uint64_t a, std::uint64_t b) {
        return std::uniform_int_distribution<std::uint64_t>(a, b)(rng);
      };
      const std::uint64_t big = 1000000000000ull;
      const std::uint64_t v =
          mode == 0   ? lo
          : mode == 1 ? hi
          : mode == 2 && hi >= big ? uniform(std::max(lo, big), hi)
                                   : uniform(lo, std::min(hi, lo + 1000));
      return std::to_string(v);
    }
    case Knob::kDouble:
    case Knob::kFloat:
      break;
  }
  const bool narrow = k.kind == Knob::kFloat;
  const auto step = [&](double from, double to) {
    return narrow ? static_cast<double>(std::nextafter(
                        static_cast<float>(from), static_cast<float>(to)))
                  : std::nextafter(from, to);
  };
  double v = 0.0;
  if (mode == 0) {
    v = k.lo_open ? step(k.lo, k.hi) : k.lo;
  } else if (mode == 1) {
    v = k.hi_open ? step(k.hi, k.lo) : k.hi;
  } else if (mode == 2) {
    v = std::uniform_real_distribution<double>(1.0, 10.0)(rng) *
        std::pow(10.0, std::uniform_int_distribution<int>(-30, 30)(rng));
    if (k.lo < 0.0 && rng() % 2 == 0) v = -v;
  } else {
    v = std::uniform_real_distribution<double>(std::max(k.lo, -1000.0),
                                               std::min(k.hi, 1000.0))(rng);
  }
  char text[40];
  std::snprintf(text, sizeof(text), narrow ? "%.9g" : "%.17g",
                narrow ? static_cast<double>(static_cast<float>(v)) : v);
  if (!in_range(k, number_of(k, text))) {
    std::snprintf(text, sizeof(text), "%.17g",
                  k.lo_open ? step(k.lo, k.hi) : k.lo);
  }
  return text;
}

/// The member at a dotted path of a parsed dump, or null.
const desmine::obs::JsonValue* at_path(const desmine::obs::JsonValue& doc,
                                       const std::string& path) {
  const desmine::obs::JsonValue* v = &doc;
  std::size_t start = 0;
  while (v != nullptr) {
    const std::size_t dot = path.find('.', start);
    v = v->find(path.substr(start, dot - start));
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return v;
}

/// The options all three commands take; the band comes first.
const Knob kSharedKnobs[] = {
    {"lo", "detector.valid_lo", Knob::kDouble, -kMaxDouble, kMaxDouble},
    {"hi", "detector.valid_hi", Knob::kDouble, -kMaxDouble, kMaxDouble},
    {"tolerance", "detector.tolerance", Knob::kDouble, 0, kMaxDouble},
    {"kernels", "tensor.kernels", Knob::kBackend},
};

/// detect and serve only: the coverage quorum and sensor health.
const Knob kHealthKnobs[] = {
    {"min-coverage", "detector.min_coverage", Knob::kDouble, 0, 1},
    {"health-drop-after", "health.drop_after_missing", Knob::kInt, 1, kMaxInt},
    {"health-stale-after", "health.stale_after", Knob::kInt, 0, kMaxInt},
    {"health-unk-rate", "health.max_unk_rate", Knob::kDouble, 0, 1},
    {"health-unk-window", "health.unk_window", Knob::kInt, 1, kMaxInt},
    {"health-readmit-after", "health.readmit_after", Knob::kInt, 1, kMaxInt},
};

const Knob kTrainKnobs[] = {
    {"word", "window.word_length", Knob::kInt, 1, kMaxInt},
    {"word-stride", "window.word_stride", Knob::kInt, 1, kMaxInt},
    // train sets miner.model.max_decode_length to sentence + 2, which must
    // stay within 2^53 too.
    {"sentence", "window.sentence_length", Knob::kInt, 1, kMaxInt - 2},
    {"sentence-stride", "window.sentence_stride", Knob::kInt, 1, kMaxInt},
    {"embedding", "miner.model.embedding_dim", Knob::kInt, 1, kMaxInt},
    {"hidden", "miner.model.hidden_dim", Knob::kInt, 1, kMaxInt},
    {"layers", "miner.model.num_layers", Knob::kInt, 1, kMaxInt},
    {"dropout", "miner.model.dropout", Knob::kFloat, 0, 1, false, true},
    {"steps", "miner.trainer.steps", Knob::kInt, 1, kMaxInt},
    {"batch", "miner.trainer.batch_size", Knob::kInt, 1, kMaxInt},
    {"lr", "miner.trainer.lr", Knob::kFloat, 0, kMaxFloat, true},
    {"seed", "miner.seed", Knob::kInt, 0, kMaxInt},
    {"threads", "miner.threads", Knob::kInt, 0, kMaxInt},
    {"checkpoint", "miner.checkpoint_path", Knob::kText},
    {"resume", "miner.resume", Knob::kBool},
    {"pair-timeout-s", "miner.pair_timeout_s", Knob::kDouble, 0, kMaxDouble},
    {"max-retries", "miner.max_retries", Knob::kInt, 0, kMaxInt},
};

const Knob kServeKnobs[] = {
    {"workers", "serve.workers", Knob::kInt, 0, kMaxInt},
    {"max-batch", "serve.max_batch", Knob::kInt, 1, kMaxInt},
    {"decode-cache", "serve.decode_cache", Knob::kInt, 0, kMaxInt},
    {"max-pending", "serve.max_pending_windows", Knob::kInt, 1, kMaxInt},
    {"reject-when-full", "serve.reject_when_full", Knob::kBool},
    {"max-consecutive-shed", "serve.max_consecutive_shed", Knob::kInt, 1,
     kMaxInt},
    {"max-global-pending", "serve.max_global_pending", Knob::kInt, 0, kMaxInt},
    {"max-queue-delay-ms", "serve.max_queue_delay_ms", Knob::kDouble, 0,
     kMaxDouble},
    {"circuit-open-after", "serve.circuit_open_after", Knob::kInt, 0, kMaxInt},
    {"circuit-probe-after", "serve.circuit_probe_after", Knob::kInt, 1,
     kMaxInt},
    {"telemetry-port", "serve.telemetry_port", Knob::kInt, 0, 65535},
    {"resident-bytes", "serve.resident_bytes", Knob::kInt, 0, kMaxInt},
    {"resident-edges", "serve.resident_edges", Knob::kInt, 0, kMaxInt},
    {"slow-window-ms", "serve.slow_window_ms", Knob::kDouble, 0, kMaxDouble},
    {"sliding-window-s", "serve.sliding_window_s", Knob::kDouble, 0,
     kMaxDouble, true},
    {"sliding-epochs", "serve.sliding_epochs", Knob::kInt, 1, kMaxInt},
};

}  // namespace

TEST(ToolConfig, DumpUnderRandomFlagsIsLosslessAndReparsesToTheSameBytes) {
  // Every option a command takes that overrides a config key, drawn at
  // random within the key's range: the dump must hold each value exactly
  // and read back to the same bytes.
  const std::string cli = DESMINE_CLI_PATH;
  const std::string serve = DESMINE_SERVE_PATH;
  std::vector<Knob> train(std::begin(kSharedKnobs), std::end(kSharedKnobs));
  train.insert(train.end(), std::begin(kTrainKnobs), std::end(kTrainKnobs));
  std::vector<Knob> detect(std::begin(kSharedKnobs), std::end(kSharedKnobs));
  detect.insert(detect.end(), std::begin(kHealthKnobs), std::end(kHealthKnobs));
  std::vector<Knob> served = detect;
  served.insert(served.end(), std::begin(kServeKnobs), std::end(kServeKnobs));
  const struct {
    const std::string* tool;
    const char* command;
    const std::vector<Knob>* knobs;
  } commands[] = {{&cli, "train ", &train},
                  {&cli, "detect ", &detect},
                  {&serve, "", &served}};
  std::mt19937_64 rng(20261019);
  const TempFile dumped("random_dump.json");
  for (const auto& c : commands) {
    for (int round = 0; round < 12; ++round) {
      std::vector<std::string> texts;
      for (const Knob& k : *c.knobs) texts.push_back(draw(k, rng));
      // The band needs valid_lo <= valid_hi.
      if (std::strtod(texts[0].c_str(), nullptr) >
          std::strtod(texts[1].c_str(), nullptr)) {
        std::swap(texts[0], texts[1]);
      }
      std::string args = c.command;
      for (std::size_t i = 0; i < texts.size(); ++i) {
        args += "--" + std::string((*c.knobs)[i].flag) + "=" + texts[i] + " ";
      }
      std::string first;
      ASSERT_EQ(run_tool_stdout(*c.tool, args + "--dump-config", &first), 0)
          << args;
      const desmine::obs::JsonValue doc = desmine::obs::parse_json(first);
      for (std::size_t i = 0; i < texts.size(); ++i) {
        const Knob& k = (*c.knobs)[i];
        const desmine::obs::JsonValue* v = at_path(doc, k.key);
        ASSERT_NE(v, nullptr) << k.key;
        if (k.kind == Knob::kBool) {
          EXPECT_EQ(v->boolean, texts[i] == "true") << k.flag;
        } else if (k.kind == Knob::kText || k.kind == Knob::kBackend) {
          EXPECT_EQ(v->string, texts[i]) << k.flag;
        } else {
          // Floats print with 12 digits: read back, they narrow exactly.
          const double back = k.kind == Knob::kFloat
                                  ? static_cast<float>(v->number)
                                  : v->number;
          EXPECT_EQ(back, number_of(k, texts[i]))
              << "--" << k.flag << "=" << texts[i] << " dumped as "
              << v->number;
        }
      }
      std::ofstream(dumped.path) << first;
      std::string second;
      EXPECT_EQ(run_tool_stdout(*c.tool,
                                std::string(c.command) + "--config " +
                                    dumped.path + " --dump-config",
                                &second),
                0)
          << args;
      EXPECT_EQ(second, first) << args;
    }
  }
}

TEST(CliExitCodes, MissingRequiredOptionIsUsageError) {
  EXPECT_EQ(run_cli("generate"), 2);
}

TEST(CliExitCodes, ResumeWithoutCheckpointIsUsageError) {
  const TempFile model("resume_model.bin");
  EXPECT_EQ(run_cli(tiny_train_args(model.path) + " --resume"), 2);
}

TEST(CliExitCodes, MissingInputFileIsRuntimeError) {
  EXPECT_EQ(run_cli("detect --model /tmp/desmine_cli_no_such_model.bin "
                    "--test /tmp/desmine_cli_no_such_test.csv"),
            1);
}

TEST(CliExitCodes, GenerateSucceeds) {
  const TempFile csv("gen.csv");
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --days 1 --minutes 40"),
            0);
}

TEST(CliExitCodes, CleanTrainingSucceeds) {
  const TempFile model("ok_model.bin");
  EXPECT_EQ(run_cli(tiny_train_args(model.path)), 0);
  // The artifact is loadable afterwards.
  EXPECT_EQ(run_cli("inspect --model " + model.path), 0);
}

TEST(CliExitCodes, PermanentPairFailureExitsThreeButSavesArtifact) {
  const TempFile model("faulty_model.bin");
  // Pair 1 throws on every attempt -> permanently failed -> exit 3; the
  // artifact must still be written with the surviving edges.
  EXPECT_EQ(run_cli(tiny_train_args(model.path), "miner.pair:1=throw"), 3);
  EXPECT_EQ(run_cli("inspect --model " + model.path), 0);
}

TEST(CliExitCodes, TransientFaultIsRetriedToSuccess) {
  const TempFile model("retry_model.bin");
  EXPECT_EQ(run_cli(tiny_train_args(model.path), "miner.pair:1=throw*1"), 0);
}

namespace {

/// One trained artifact + clean test series shared by the detect tests.
struct DetectFixture {
  TempFile model{"detect_model.bin"};
  TempFile test{"detect_test.csv"};
  DetectFixture() {
    EXPECT_EQ(run_cli(tiny_train_args(model.path)), 0);
    EXPECT_EQ(run_cli("generate --out " + test.path +
                      " --days 1 --minutes 40 --seed 9 --components 1"),
              0);
  }
};

DetectFixture& detect_fixture() {
  static DetectFixture f;
  return f;
}

/// Detect invocation with a wide-open band so edges always qualify.
std::string detect_args(const std::string& test_csv) {
  return "detect --model " + detect_fixture().model.path + " --test " +
         test_csv + " --lo 0 --hi 100.5";
}

/// Copy `src` to `dst`, inserting a ragged "BAD" row after `after_rows`
/// data rows.
void corrupt_csv(const std::string& src, const std::string& dst,
                 std::size_t after_rows) {
  std::ifstream in(src);
  std::ofstream out(dst);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    out << line << "\n";
    if (++n == after_rows + 1) out << "BAD\n";  // +1 skips the header
  }
}

}  // namespace

TEST(CliExitCodes, StrictDetectOnCleanSeriesSucceeds) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path)), 0);
}

TEST(CliExitCodes, MalformedRowInStrictModeIsRuntimeError) {
  TempFile bad("detect_bad.csv");
  corrupt_csv(detect_fixture().test.path, bad.path, 20);
  EXPECT_EQ(run_cli(detect_args(bad.path)), 1);
}

TEST(CliExitCodes, DegradedCleanRunSucceeds) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) + " --degraded"),
            0);
}

TEST(CliExitCodes, DegradedQuarantineRunExitsFour) {
  TempFile bad("detect_hole.csv");
  TempFile journal("detect_hole.quarantine.jsonl");
  corrupt_csv(detect_fixture().test.path, bad.path, 20);
  // The quarantined row blanks a mid-stream tick for every sensor: windows
  // covering it lose all edges, fall below the quorum, and the run reports
  // "completed degraded".
  EXPECT_EQ(run_cli(detect_args(bad.path) +
                    " --degraded --on-bad-row quarantine --quarantine " +
                    journal.path),
            4);
  std::ifstream in(journal.path);
  EXPECT_TRUE(in.good());  // journal was written
}

TEST(CliExitCodes, SkipModeDetectSucceedsDespiteBadRow) {
  TempFile bad("detect_skip.csv");
  corrupt_csv(detect_fixture().test.path, bad.path, 20);
  // Skipping removes the tick for every sensor, so alignment (and strict
  // scoring) survives.
  EXPECT_EQ(run_cli(detect_args(bad.path) + " --on-bad-row skip"), 0);
}

TEST(CliExitCodes, RetiredPrecisionOptionIsUsageError) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) +
                    " --precision int8"),
            2);
}

TEST(CliExitCodes, RetiredBlockedKernelsIsUsageError) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) +
                    " --kernels blocked"),
            2);
}

TEST(CliExitCodes, BadOnBadRowValueIsUsageError) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) +
                    " --on-bad-row bogus"),
            2);
}

TEST(CliExitCodes, ModelLoadFaultIsRuntimeError) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path),
                    "model.load:0=throw"),
            1);
}

// ------------------------------------------------ desmine_serve protocol ---
//
// The JSON-lines protocol driven over stdin: a script of request lines in,
// the response and window-event lines out.

namespace {

namespace dc = desmine::core;
namespace dobs = desmine::obs;

/// A coupled pair whose states are not ASCII (follow repeats lead two ticks
/// later) plus an ASCII noise sensor, so a state sent as a \u escape only
/// scores right when it decodes to the bytes the encrypter was fitted on.
dc::MultivariateSeries utf8_series(std::size_t ticks, std::uint32_t seed) {
  std::mt19937 rng(seed);
  dc::EventSequence lead, follow, noise;
  bool on = false;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t % 13 == 0) on = !on;
    lead.push_back(on ? "\xe4\xb8\xad" : "OFF");  // U+4E2D
    follow.push_back(t >= 2 && lead[t - 2] != "OFF" ? "\xf0\x9f\x98\x80"
                                                    : "OFF");  // U+1F600
    noise.push_back(rng() % 2 == 0 ? "ON" : "OFF");
  }
  return {{"lead", lead}, {"follow", follow}, {"noise", noise}};
}

/// One small framework fitted on utf8_series and saved once, the way
/// test_inspect's fitted_framework() builds its own.
struct ServeFixture {
  TempFile artifact{"serve_model.bin"};
  dc::Framework framework{[] {
    dc::FrameworkConfig c;
    c.window = {4, 1, 4, 4};
    c.miner.translation.model.embedding_dim = 12;
    c.miner.translation.model.hidden_dim = 12;
    c.miner.translation.model.num_layers = 1;
    c.miner.translation.model.dropout = 0.0f;
    c.miner.translation.trainer.steps = 60;
    c.miner.translation.trainer.batch_size = 8;
    c.miner.seed = 3;
    c.detector.valid_lo = 0.0;
    c.detector.valid_hi = 100.5;
    c.detector.tolerance = 10.0;
    c.detector.threads = 1;
    return c;
  }()};
  ServeFixture() {
    framework.fit(utf8_series(400, 1), utf8_series(200, 2));
    desmine::io::save_framework(framework, artifact.path);
  }
};

ServeFixture& serve_fixture() {
  static ServeFixture f;
  return f;
}

/// Run desmine_serve over stdin with `script` (request lines, each ending
/// in '\n') and return its stdout lines.
std::vector<std::string> serve_script(const std::string& script) {
  const TempFile in("serve_in.jsonl");
  const TempFile out("serve_out.jsonl");
  {
    std::ofstream os(in.path, std::ios::binary);
    os << script;
  }
  const std::string cmd = std::string(DESMINE_SERVE_PATH) + " --model " +
                          serve_fixture().artifact.path +
                          " --lo 0 --hi 100.5 --tolerance 10 --workers 1 <" +
                          in.path + " >" + out.path + " 2>/dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::ifstream is(out.path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// open, one ingest line per tick of `series`, close.
std::string session_script(const dc::MultivariateSeries& series) {
  std::string script = "{\"op\":\"open\"}\n";
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    dobs::JsonWriter w;
    w.begin_object().key("op").value("ingest");
    w.key("session").value(std::uint64_t{1});
    for (const auto& sensor : series) w.key(sensor.name).value(sensor.events[t]);
    w.end_object();
    script += w.str() + "\n";
  }
  return script + "{\"op\":\"close\",\"session\":1}\n";
}

std::string ok_field(const std::string& line) {
  const dobs::JsonValue doc = dobs::parse_json(line);
  const dobs::JsonValue* ok = doc.find("ok");
  return ok == nullptr ? "absent" : ok->boolean ? "true" : "false";
}

}  // namespace

TEST(ServeProtocol, WindowEventsMatchAnOnlineReplayAtThePrintedPrecision) {
  const ServeFixture& f = serve_fixture();
  const dc::MultivariateSeries series = utf8_series(160, 9);
  const std::vector<std::string> lines = serve_script(session_script(series));

  dc::OnlineDetector online(f.framework.graph(), f.framework.encrypter(),
                            f.framework.config().window,
                            f.framework.config().detector);
  std::vector<dc::OnlineDetector::WindowResult> expected;
  for (std::size_t t = 0; t < series.front().events.size(); ++t) {
    std::map<std::string, std::string> tick;
    for (const auto& sensor : series) tick[sensor.name] = sensor.events[t];
    if (auto r = online.push(tick)) expected.push_back(std::move(*r));
  }
  ASSERT_GT(expected.size(), 10u);

  // open ack, one event per window, close ack.
  ASSERT_EQ(lines.size(), expected.size() + 2);
  EXPECT_EQ(lines.front(), R"({"ok":true,"op":"open","session":1})");
  EXPECT_EQ(lines.back(), R"({"ok":true,"op":"close","session":1,"windows":)" +
                              std::to_string(expected.size()) + "}");
  const auto& names = f.framework.encrypter().kept_sensors();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const dobs::JsonValue event = dobs::parse_json(lines[i + 1]);
    const dc::OnlineDetector::WindowResult& r = expected[i];
    ASSERT_EQ(event.find("event")->string, "window") << lines[i + 1];
    EXPECT_EQ(event.find("window")->number, static_cast<double>(r.window_index));
    EXPECT_EQ(event.find("end_tick")->number, static_cast<double>(r.end_tick));
    dobs::JsonWriter printed;
    printed.value(r.anomaly_score);
    EXPECT_EQ(event.find("score")->number,
              dobs::parse_json(printed.str()).number)
        << lines[i + 1];
    EXPECT_EQ(event.find("coverage")->number, 1.0);
    EXPECT_FALSE(event.find("degraded")->boolean);
    std::string broken;
    for (const auto& [src, dst] : r.broken) {
      if (!broken.empty()) broken += ' ';
      broken += names[src] + "->" + names[dst];
    }
    EXPECT_EQ(event.find("broken")->string, broken) << lines[i + 1];
  }
}

TEST(ServeProtocol, EscapedStatesScoreLikeRawUtf8States) {
  const std::string raw = session_script(utf8_series(120, 5));
  // The same script with every non-ASCII state sent the way Python's
  // json.dumps sends it: a \u escape, and a surrogate pair above the BMP.
  std::string escaped = raw;
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\xe4\xb8\xad", "\\u4e2d"}, {"\xf0\x9f\x98\x80", "\\ud83d\\ude00"}}) {
    for (std::size_t at = 0; (at = escaped.find(from, at)) != std::string::npos;) {
      escaped.replace(at, from.size(), to);
    }
  }
  ASSERT_TRUE(std::none_of(escaped.begin(), escaped.end(), [](char c) {
    return static_cast<unsigned char>(c) >= 0x80;
  }));
  const std::vector<std::string> expected = serve_script(raw);
  ASSERT_GT(expected.size(), 10u);
  EXPECT_EQ(serve_script(escaped), expected);
}

TEST(ServeProtocol, MalformedLinesGetAnErrorAndTheNextLineIsServed) {
  const char* const bad[] = {
      R"({"op":"ping"} x)",                        // trailing text
      R"({"op":"ping","session":1abc})",           // invalid number
      R"({"op":"ping","nested":{"a":1}})",         // nested value
      R"({"op":"ping","list":[1]})",
      R"({"op":"ping","op":"ping"})",              // duplicate key
      R"({"op":"ping","s":"\ud83d"})",             // lone surrogate
  };
  // Each error names the lexer's byte offset and reason.
  const char* const errors[] = {
      "malformed JSON line at byte 14: trailing characters after document",
      "malformed JSON line at byte 24: expected '}'",
      "malformed JSON line at byte 22: nested value",
      "malformed JSON line at byte 20: nested value",
      "malformed JSON line at byte 24: duplicate key",
      "malformed JSON line at byte 24: lone high surrogate",
  };
  static_assert(std::size(errors) == std::size(bad));
  std::string script = "{\"op\":\"open\"}\n";
  for (const char* line : bad) script += std::string(line) + "\n{\"op\":\"ping\"}\n";
  // A session id is decimal digits, not a prefix of them.
  script += "{\"op\":\"stats\",\"session\":\"1x\"}\n{\"op\":\"ping\"}\n";
  const std::vector<std::string> lines = serve_script(script);
  const std::size_t n = std::size(bad) + 1;
  ASSERT_EQ(lines.size(), 1 + 2 * n);
  EXPECT_EQ(ok_field(lines[0]), "true");
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ok_field(lines[1 + 2 * i]), "false") << lines[1 + 2 * i];
    EXPECT_EQ(lines[2 + 2 * i], R"({"ok":true,"op":"ping"})");
  }
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    EXPECT_EQ(lines[1 + 2 * i],
              std::string(R"({"ok":false,"error":")") + errors[i] + "\"}")
        << bad[i];
  }
}

TEST(ServeProtocol, OverLongLineIsAnsweredOnceAndSkipped) {
  const std::string pad(2u << 20, 'x');  // 2 MiB
  const std::vector<std::string> lines = serve_script(
      "{\"op\":\"ping\",\"pad\":\"" + pad + "\"}\n{\"op\":\"ping\"}\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(ok_field(lines[0]), "false");
  EXPECT_NE(lines[0].find("line longer than 1048576 bytes"), std::string::npos)
      << lines[0];
  EXPECT_EQ(lines[1], R"({"ok":true,"op":"ping"})");
}
