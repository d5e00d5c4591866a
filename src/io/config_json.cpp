#include "io/config_json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <system_error>
#include <type_traits>
#include <variant>

#include "obs/json.h"
#include "util/error.h"

namespace desmine::io {
namespace {

using obs::JsonValue;

// ---------------------------------------------------------------------------
// The field tables. Each config struct has one table that lists its keys in
// document order. A key that holds a struct points at that struct's table.
// Emit, parse, validate and the flag overrides are each one walk over them.

struct Table;

/// A key whose value is a JSON object: the struct and its table.
struct Object {
  void* base;
  const Table* table;
};

/// Where a key's value lives. Integer members (std::size_t, std::uint64_t)
/// are one of the two unsigned 64-bit types.
using Ref = std::variant<unsigned long*, unsigned long long*, double*, float*,
                         bool*, std::string*, nn::AttentionScore*, Object>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The values a key accepts. Numbers lie in [lo, hi] (an open side excludes
/// its bound, an infinite side is not checked); `backend` asks a string for
/// a compute-kernel backend name.
struct Rule {
  double lo = -kInf;
  bool lo_open = false;
  double hi = kInf;
  bool hi_open = false;
  bool backend = false;
};

constexpr Rule kAny{};
constexpr Rule kPositive{.lo = 0, .lo_open = true};
constexpr Rule kNonNegative{.lo = 0};
constexpr Rule kFraction{.lo = 0, .hi = 1};
constexpr Rule kBackendName{.backend = true};

struct Field {
  const char* key;
  Ref (*at)(void* base);
  Rule rule = kAny;
  const char* flag = nullptr;  ///< the tool option that overrides the key
};

struct Table {
  std::span<const Field> fields;
  /// A cross-key rule, when set: the double at key `le` must be <= the one
  /// at key `ge`.
  const char* le = nullptr;
  const char* ge = nullptr;
};

// The member `m` of the struct S at `base`, and the same for a member that
// is a struct described by `table`.
#define DESMINE_AT(S, m) \
  [](void* base) -> Ref { return &static_cast<S*>(base)->m; }
#define DESMINE_OBJECT(S, m, table) \
  [](void* base) -> Ref { return Object{&static_cast<S*>(base)->m, &table}; }

using Window = core::WindowConfig;
using Model = nmt::Seq2SeqConfig;
using Trainer = nmt::TrainerConfig;
using Miner = core::MinerConfig;
using Detector = core::DetectorConfig;
using Health = robust::HealthConfig;
using Kernels = tensor::kernels::KernelConfig;
using Serve = serve::ServeConfig;
using Drift = lifecycle::DriftConfig;
using Retrain = lifecycle::RetrainConfig;
using Shadow = serve::ShadowConfig;
using Lifecycle = lifecycle::LifecycleConfig;

const Field kWindowFields[] = {
    {"word_length", DESMINE_AT(Window, word_length), kPositive, "word"},
    {"word_stride", DESMINE_AT(Window, word_stride), kPositive, "word-stride"},
    {"sentence_length", DESMINE_AT(Window, sentence_length), kPositive,
     "sentence"},
    {"sentence_stride", DESMINE_AT(Window, sentence_stride), kPositive,
     "sentence-stride"},
};
const Table kWindow{kWindowFields};

const Field kModelFields[] = {
    {"embedding_dim", DESMINE_AT(Model, embedding_dim), kPositive, "embedding"},
    {"hidden_dim", DESMINE_AT(Model, hidden_dim), kPositive, "hidden"},
    {"num_layers", DESMINE_AT(Model, num_layers), kPositive, "layers"},
    {"dropout", DESMINE_AT(Model, dropout), {.lo = 0, .hi = 1, .hi_open = true},
     "dropout"},
    {"init_scale", DESMINE_AT(Model, init_scale), kPositive},
    {"max_decode_length", DESMINE_AT(Model, max_decode_length), kPositive},
    {"attention", DESMINE_AT(Model, attention)},
};
const Table kModel{kModelFields};

const Field kTrainerFields[] = {
    {"steps", DESMINE_AT(Trainer, steps), kPositive, "steps"},
    {"batch_size", DESMINE_AT(Trainer, batch_size), kPositive, "batch"},
    {"lr", DESMINE_AT(Trainer, lr), kPositive, "lr"},
    {"clip_norm", DESMINE_AT(Trainer, clip_norm), kNonNegative},
    {"divergence_factor", DESMINE_AT(Trainer, divergence_factor),
     kNonNegative},
};
const Table kTrainer{kTrainerFields};

const Field kMinerFields[] = {
    {"threads", DESMINE_AT(Miner, threads), kAny, "threads"},
    {"seed", DESMINE_AT(Miner, seed), kAny, "seed"},
    {"pair_timeout_s", DESMINE_AT(Miner, pair_timeout_s), kNonNegative,
     "pair-timeout-s"},
    {"checkpoint_path", DESMINE_AT(Miner, checkpoint_path), kAny, "checkpoint"},
    {"resume", DESMINE_AT(Miner, resume), kAny, "resume"},
    {"max_retries", DESMINE_AT(Miner, max_retries), kAny, "max-retries"},
    {"model", DESMINE_OBJECT(Miner, translation.model, kModel)},
    {"trainer", DESMINE_OBJECT(Miner, translation.trainer, kTrainer)},
};
const Table kMiner{kMinerFields};

const Field kDetectorFields[] = {
    {"valid_lo", DESMINE_AT(Detector, valid_lo), kAny, "lo"},
    {"valid_hi", DESMINE_AT(Detector, valid_hi), kAny, "hi"},
    {"tolerance", DESMINE_AT(Detector, tolerance), kNonNegative, "tolerance"},
    {"min_coverage", DESMINE_AT(Detector, min_coverage), kFraction,
     "min-coverage"},
    {"threads", DESMINE_AT(Detector, threads)},
};
const Table kDetector{kDetectorFields, "valid_lo", "valid_hi"};

const Field kHealthFields[] = {
    {"drop_after_missing", DESMINE_AT(Health, drop_after_missing), kPositive,
     "health-drop-after"},
    {"stale_after", DESMINE_AT(Health, stale_after), kAny,
     "health-stale-after"},
    {"max_unk_rate", DESMINE_AT(Health, max_unk_rate), kFraction,
     "health-unk-rate"},
    {"unk_window", DESMINE_AT(Health, unk_window), kPositive,
     "health-unk-window"},
    {"min_unk_samples", DESMINE_AT(Health, min_unk_samples), kPositive},
    {"readmit_after", DESMINE_AT(Health, readmit_after), kPositive,
     "health-readmit-after"},
};
const Table kHealth{kHealthFields};

const Field kKernelsFields[] = {
    {"kernels", DESMINE_AT(Kernels, kernels), kBackendName, "kernels"},
};
const Table kKernels{kKernelsFields};

const Field kServeFields[] = {
    {"workers", DESMINE_AT(Serve, workers), kAny, "workers"},
    {"max_batch", DESMINE_AT(Serve, max_batch), kPositive, "max-batch"},
    {"decode_cache", DESMINE_AT(Serve, decode_cache), kAny, "decode-cache"},
    {"max_pending_windows", DESMINE_AT(Serve, limits.max_pending_windows),
     kPositive, "max-pending"},
    {"reject_when_full", DESMINE_AT(Serve, limits.reject_when_full), kAny,
     "reject-when-full"},
    {"max_consecutive_shed", DESMINE_AT(Serve, limits.max_consecutive_shed),
     kPositive, "max-consecutive-shed"},
    {"max_global_pending", DESMINE_AT(Serve, max_global_pending), kAny,
     "max-global-pending"},
    {"max_queue_delay_ms", DESMINE_AT(Serve, max_queue_delay_ms), kNonNegative,
     "max-queue-delay-ms"},
    {"circuit_open_after", DESMINE_AT(Serve, circuit_open_after), kAny,
     "circuit-open-after"},
    {"circuit_probe_after", DESMINE_AT(Serve, circuit_probe_after), kPositive,
     "circuit-probe-after"},
    {"telemetry_port", DESMINE_AT(Serve, telemetry_port), {.hi = 65535},
     "telemetry-port"},
    {"resident_bytes", DESMINE_AT(Serve, resident_bytes), kAny,
     "resident-bytes"},
    {"resident_edges", DESMINE_AT(Serve, resident_edges), kAny,
     "resident-edges"},
    {"slow_window_ms", DESMINE_AT(Serve, slow_window_ms), kNonNegative,
     "slow-window-ms"},
    {"sliding_window_s", DESMINE_AT(Serve, sliding_window_s), kPositive,
     "sliding-window-s"},
    {"sliding_epochs", DESMINE_AT(Serve, sliding_epochs), kPositive,
     "sliding-epochs"},
};
const Table kServe{kServeFields};

const Field kDriftFields[] = {
    {"ewma_alpha", DESMINE_AT(Drift, ewma_alpha),
     {.lo = 0, .lo_open = true, .hi = 1}},
    {"min_observations", DESMINE_AT(Drift, min_observations), kPositive},
    {"hysteresis", DESMINE_AT(Drift, hysteresis), kPositive},
    {"drifting_drop", DESMINE_AT(Drift, drifting_drop), kNonNegative},
    {"drifted_drop", DESMINE_AT(Drift, drifted_drop), kNonNegative},
    {"break_rate", DESMINE_AT(Drift, break_rate), kFraction},
    {"max_unk_rate", DESMINE_AT(Drift, max_unk_rate), kFraction},
};
const Table kDrift{kDriftFields, "drifting_drop", "drifted_drop"};

const Field kRetrainFields[] = {
    {"lr_factor", DESMINE_AT(Retrain, lr_factor), kPositive},
    {"steps", DESMINE_AT(Retrain, steps)},
    {"journal_path", DESMINE_AT(Retrain, journal_path)},
    {"warm_start_journal", DESMINE_AT(Retrain, warm_start_journal)},
};
const Table kRetrain{kRetrainFields};

const Field kShadowFields[] = {
    {"sample_rate", DESMINE_AT(Shadow, sample_rate), kPositive},
    {"min_windows", DESMINE_AT(Shadow, min_windows), kPositive},
    {"alert_threshold", DESMINE_AT(Shadow, alert_threshold), kFraction},
    {"max_alert_rate", DESMINE_AT(Shadow, max_alert_rate), kFraction},
    {"min_agreement", DESMINE_AT(Shadow, min_agreement), kFraction},
    {"max_failures", DESMINE_AT(Shadow, max_failures)},
};
const Table kShadow{kShadowFields};

const Field kLifecycleFields[] = {
    {"drift", DESMINE_OBJECT(Lifecycle, drift, kDrift)},
    {"retrain", DESMINE_OBJECT(Lifecycle, retrain, kRetrain)},
    {"shadow", DESMINE_OBJECT(Lifecycle, shadow, kShadow)},
};
const Table kLifecycle{kLifecycleFields};

const Field kRunFields[] = {
    {"window", DESMINE_OBJECT(RunConfig, framework.window, kWindow)},
    {"miner", DESMINE_OBJECT(RunConfig, framework.miner, kMiner)},
    {"detector", DESMINE_OBJECT(RunConfig, framework.detector, kDetector)},
    {"health", DESMINE_OBJECT(RunConfig, health, kHealth)},
    {"tensor", DESMINE_OBJECT(RunConfig, tensor, kKernels)},
    {"serve", DESMINE_OBJECT(RunConfig, serve, kServe)},
    {"lifecycle", DESMINE_OBJECT(RunConfig, lifecycle, kLifecycle)},
};
const Table kRun{kRunFields};

#undef DESMINE_AT
#undef DESMINE_OBJECT

/// The whole config as the root object. Emit and validate only read
/// through it.
Object root(const RunConfig& config) {
  return {const_cast<RunConfig*>(&config), &kRun};
}

/// nn::AttentionScore names, by enumerator value.
constexpr const char* kAttentionNames[] = {"general", "dot"};

/// JSON numbers are doubles: integers above 2^53 do not survive them.
constexpr std::uint64_t kMaxInt = std::uint64_t{1} << 53;

template <typename T>
constexpr bool kIsInt = std::is_integral_v<T> && !std::is_same_v<T, bool>;

std::string join(const std::string& prefix, const char* key) {
  return prefix.empty() ? std::string(key) : prefix + "." + key;
}

/// "config: key 'path' must <rule>", led by the flags that set the key.
[[noreturn]] void bad_key(const std::string& flags, const std::string& path,
                          const std::string& rule) {
  throw PreconditionError((flags.empty() ? "" : flags + ": ") +
                          "config: key '" + path + "' must " + rule);
}

// ---------------------------------------------------------------------------
// Emit. Integers print whole, doubles as the shortest text that reads back
// to the same double, floats with 12 significant digits (enough for a float
// to read back).

template <typename T>
std::string value_text(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return v ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return obs::JsonWriter::quote(v);
  } else if constexpr (std::is_same_v<T, nn::AttentionScore>) {
    return obs::JsonWriter::quote(kAttentionNames[static_cast<int>(v)]);
  } else if constexpr (std::is_same_v<T, float>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", static_cast<double>(v));
    return buf;
  } else {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  }
}

void emit(const Object& object, int depth, std::string& out) {
  const std::span<const Field> fields = object.table->fields;
  out += "{\n";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out.append(static_cast<std::size_t>(depth + 1) * 2, ' ');
    out += obs::JsonWriter::quote(fields[i].key);
    out += ": ";
    std::visit(
        [&](auto p) {
          if constexpr (std::is_same_v<decltype(p), Object>) {
            emit(p, depth + 1, out);
          } else {
            out += value_text(*p);
          }
        },
        fields[i].at(object.base));
    out += i + 1 < fields.size() ? ",\n" : "\n";
  }
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
  out += '}';
}

// ---------------------------------------------------------------------------
// Validate: each key's rule, then the table's cross-key rule. A failing key
// that one of `flags` set is named by its flag too.

std::string flags_of(std::initializer_list<const Field*> fields,
                     const FlagValues& flags) {
  std::string out;
  for (const Field* f : fields) {
    if (f->flag == nullptr || flags.count(f->flag) == 0) continue;
    out += (out.empty() ? "--" : ", --") + std::string(f->flag);
  }
  return out;
}

bool holds(const Rule& r, double v) {
  return (r.lo == -kInf || (r.lo_open ? v > r.lo : v >= r.lo)) &&
         (r.hi == kInf || (r.hi_open ? v < r.hi : v <= r.hi));
}

std::string rule_text(const Rule& r) {
  const auto num = [](double d) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", d);
    return std::string(buf);
  };
  if (r.hi == kInf) return (r.lo_open ? "be > " : "be >= ") + num(r.lo);
  if (r.lo == -kInf) return (r.hi_open ? "be < " : "be <= ") + num(r.hi);
  return std::string("lie in ") + (r.lo_open ? "(" : "[") + num(r.lo) + ", " +
         num(r.hi) + (r.hi_open ? ")" : "]");
}

const Field* find_field(const Table& table, std::string_view key) {
  for (const Field& f : table.fields) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

void validate(const Object& object, const std::string& prefix,
              const FlagValues& flags) {
  const Table& table = *object.table;
  for (const Field& f : table.fields) {
    const std::string path = join(prefix, f.key);
    const auto fail = [&](const std::string& rule) {
      bad_key(flags_of({&f}, flags), path, rule);
    };
    std::visit(
        [&](auto p) {
          using T = std::remove_pointer_t<decltype(p)>;
          if constexpr (std::is_same_v<T, Object>) {
            validate(p, path, flags);
          } else if constexpr (std::is_same_v<T, std::string>) {
            tensor::kernels::Backend backend{};
            if (f.rule.backend && *p != "auto" &&
                !tensor::kernels::parse_backend(*p, &backend)) {
              fail("be \"auto\", \"scalar\", or \"avx2\"");
            }
          } else if constexpr (kIsInt<T> || std::is_floating_point_v<T>) {
            if constexpr (kIsInt<T>) {
              if (*p > kMaxInt) fail("be <= " + std::to_string(kMaxInt));
            }
            if (!holds(f.rule, static_cast<double>(*p))) {
              fail(rule_text(f.rule));
            }
          }
        },
        f.at(object.base));
  }
  if (table.le != nullptr) {
    const Field& le = *find_field(table, table.le);
    const Field& ge = *find_field(table, table.ge);
    if (!(*std::get<double*>(le.at(object.base)) <=
          *std::get<double*>(ge.at(object.base)))) {
      bad_key(flags_of({&le, &ge}, flags), join(prefix, le.key),
              "be <= '" + join(prefix, ge.key) + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// Parse. Each value's type is checked as it is read; each top-level section
// is range-checked once it is read. Every error names the full dotted path.

nn::AttentionScore attention_named(const std::string& name,
                                   const std::string& flags,
                                   const std::string& path) {
  for (std::size_t i = 0; i < std::size(kAttentionNames); ++i) {
    if (name == kAttentionNames[i]) return static_cast<nn::AttentionScore>(i);
  }
  bad_key(flags, path, "be \"general\" or \"dot\"");
}

template <typename T>
void read_json(const JsonValue& v, const std::string& path, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) bad_key("", path, "be a boolean");
    *out = v.boolean;
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, nn::AttentionScore>) {
    if (!v.is_string()) bad_key("", path, "be a string");
    if constexpr (std::is_same_v<T, std::string>) {
      *out = v.string;
    } else {
      *out = attention_named(v.string, "", path);
    }
  } else {
    if (!v.is_number()) bad_key("", path, "be a number");
    // A literal like 1e999 parses as infinity, which no key accepts and
    // no JSON can print back.
    if (!std::isfinite(v.number)) bad_key("", path, "be a finite number");
    if constexpr (kIsInt<T>) {
      const double d = v.number;
      if (d < 0.0 || d != std::floor(d) || d > static_cast<double>(kMaxInt)) {
        bad_key("", path, "be a non-negative integer");
      }
    }
    *out = static_cast<T>(v.number);
  }
}

void parse(const JsonValue& v, const Object& object,
           const std::string& prefix) {
  if (!v.is_object()) {
    if (prefix.empty()) {
      throw PreconditionError("config: document must be a JSON object");
    }
    bad_key("", prefix, "be an object");
  }
  for (const auto& [key, value] : v.object) {
    const std::string path = join(prefix, key.c_str());
    const Field* f = find_field(*object.table, key);
    if (f == nullptr) {
      throw PreconditionError("config: unknown key '" + path + "'");
    }
    std::visit(
        [&](auto p) {
          if constexpr (std::is_same_v<decltype(p), Object>) {
            parse(value, p, path);
            if (prefix.empty()) validate(p, path, {});
          } else {
            read_json(value, path, p);
          }
        },
        f->at(object.base));
  }
}

// ---------------------------------------------------------------------------
// Flags. Each value is the whole option text; integers take the range a
// config file does, [0, 2^53].

template <typename T>
void read_flag(const std::string& text, const std::string& flag,
               const std::string& path, T* out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  if constexpr (std::is_same_v<T, bool>) {
    *out = text != "false" && text != "0";
  } else if constexpr (std::is_same_v<T, std::string>) {
    *out = text;
  } else if constexpr (std::is_same_v<T, nn::AttentionScore>) {
    *out = attention_named(text, flag, path);
  } else if constexpr (kIsInt<T>) {
    std::uint64_t n = 0;
    const auto [end, ec] = std::from_chars(first, last, n);
    if (ec != std::errc{} || end != last || n > kMaxInt) {
      bad_key(flag, path,
              "be an integer in [0, " + std::to_string(kMaxInt) + "], got '" +
                  text + "'");
    }
    *out = static_cast<T>(n);
  } else {
    double d = 0.0;
    const auto [end, ec] = std::from_chars(first, last, d);
    if (ec != std::errc{} || end != last || !std::isfinite(d)) {
      bad_key(flag, path, "be a finite number, got '" + text + "'");
    }
    *out = static_cast<T>(d);
  }
}

void apply(const Object& object, const FlagValues& flags,
           const std::string& prefix) {
  for (const Field& f : object.table->fields) {
    const std::string path = join(prefix, f.key);
    const auto given = f.flag == nullptr ? flags.end() : flags.find(f.flag);
    std::visit(
        [&](auto p) {
          if constexpr (std::is_same_v<decltype(p), Object>) {
            apply(p, flags, path);
          } else if (given != flags.end()) {
            read_flag(given->second, "--" + given->first, path, p);
          }
        },
        f.at(object.base));
  }
}

}  // namespace

std::string run_config_to_json(const RunConfig& config) {
  std::string out;
  emit(root(config), 0, out);
  out += '\n';
  return out;
}

RunConfig run_config_from_json(std::string_view text) {
  const JsonValue doc = obs::parse_json(text);
  RunConfig config;
  parse(doc, {&config, &kRun}, "");
  config.serve.detector = config.framework.detector;
  config.serve.shadow = config.lifecycle.shadow;
  return config;
}

void apply_flags(RunConfig& config, const FlagValues& flags) {
  apply({&config, &kRun}, flags, "");
}

void validate_run_config(const RunConfig& config, const FlagValues& flags) {
  validate(root(config), "", flags);
}

RunConfig load_run_config(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PreconditionError("config: cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return run_config_from_json(buffer.str());
  } catch (const PreconditionError& e) {
    throw PreconditionError(std::string(e.what()) + " (in '" + path +
                                  "')");
  } catch (const RuntimeError& e) {
    throw PreconditionError(std::string(e.what()) + " (in '" + path +
                                  "')");
  }
}

}  // namespace desmine::io
