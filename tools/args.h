// The --option parser shared by the desmine command-line tools.
#pragma once

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <type_traits>

#include "io/config_json.h"
#include "util/error.h"

namespace desmine::tools {

/// Minimal --key value argument map. Accepts "--key value" and "--key=value"
/// for a key in `options`, and a bare "--key" (present means true) for a
/// key in `flags`. Any other key throws PreconditionError naming it, so a
/// misspelled or retired option is a usage error, never a silent default.
class Args {
 public:
  Args(int argc, char** argv, int first, const std::set<std::string>& options,
       const std::set<std::string>& flags) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw PreconditionError("expected --option, got '" + key + "'");
      }
      key = key.substr(2);
      const auto eq = key.find('=');
      std::string value;
      if (eq != std::string::npos) {
        value = key.substr(eq + 1);
        key.resize(eq);
      }
      const bool is_flag = flags.count(key) != 0;
      if (!is_flag && options.count(key) == 0) {
        throw PreconditionError("unknown option --" + key);
      }
      if (eq != std::string::npos) {
        values_[key] = value;
      } else if (is_flag) {
        values_[key] = "true";
      } else if (i + 1 >= argc) {
        throw PreconditionError("missing value for --" + key);
      } else {
        values_[key] = argv[++i];
      }
    }
  }

  std::string get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw PreconditionError("missing required option --" + key);
    }
    return it->second;
  }

  std::string get_or(const std::string& key,
                     const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  /// A finite number: the whole token, else PreconditionError naming the
  /// option.
  double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    double out = 0.0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || end != v.data() + v.size() ||
        !std::isfinite(out)) {
      throw PreconditionError("--" + key + " expects a number, got '" + v +
                              "'");
    }
    return out;
  }

  /// A non-negative integer: the whole token in decimal digits, within T's
  /// range. A sign, a fraction, trailing characters or too many digits
  /// throw PreconditionError naming the option.
  template <typename T = std::size_t>
  T count(const std::string& key, T fallback) const {
    static_assert(std::is_unsigned_v<T>);
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& v = it->second;
    T out = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || end != v.data() + v.size()) {
      throw PreconditionError(
          "--" + key + " expects an integer in [0, " +
          std::to_string(std::numeric_limits<T>::max()) + "], got '" + v +
          "'");
    }
    return out;
  }

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  bool flag(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second != "false" && it->second != "0";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Runs every section of `run` through io/config_json's validators, the
/// checks a config file gets, after the options overrode it. A value out of
/// range is a PreconditionError naming the option that set it as well as
/// the key: "--word: config: key 'window.word_length' must be > 0".
inline void validate_overrides(const Args& args, const io::RunConfig& run) {
  // Dotted key -> the option that overrides it, in either tool.
  static const std::map<std::string, std::string> option_of = {
      {"window.word_length", "word"},
      {"window.word_stride", "word-stride"},
      {"window.sentence_length", "sentence"},
      {"window.sentence_stride", "sentence-stride"},
      {"miner.model.embedding_dim", "embedding"},
      {"miner.model.hidden_dim", "hidden"},
      {"miner.model.num_layers", "layers"},
      {"miner.model.dropout", "dropout"},
      {"miner.trainer.steps", "steps"},
      {"miner.trainer.batch_size", "batch"},
      {"miner.trainer.lr", "lr"},
      {"miner.pair_timeout_s", "pair-timeout-s"},
      {"detector.valid_lo", "lo"},
      {"detector.valid_hi", "hi"},
      {"detector.tolerance", "tolerance"},
      {"detector.min_coverage", "min-coverage"},
      {"health.drop_after_missing", "health-drop-after"},
      {"health.max_unk_rate", "health-unk-rate"},
      {"health.unk_window", "health-unk-window"},
      {"health.readmit_after", "health-readmit-after"},
      {"serve.max_batch", "max-batch"},
      {"serve.max_pending_windows", "max-pending"},
      {"serve.max_consecutive_shed", "max-consecutive-shed"},
      {"serve.max_queue_delay_ms", "max-queue-delay-ms"},
      {"serve.circuit_probe_after", "circuit-probe-after"},
      {"serve.slow_window_ms", "slow-window-ms"},
      {"serve.sliding_window_s", "sliding-window-s"},
      {"serve.sliding_epochs", "sliding-epochs"}};
  try {
    io::validate_window(run.framework.window);
    io::validate_miner(run.framework.miner);
    io::validate_detector(run.framework.detector);
    io::validate_health(run.health);
    io::validate_serve(run.serve);
    io::validate_lifecycle(run.lifecycle);
  } catch (const io::ConfigKeyError& e) {
    std::string options;
    for (const std::string& key : e.keys()) {
      const auto it = option_of.find(key);
      if (it == option_of.end() || !args.has(it->second)) continue;
      options += (options.empty() ? "--" : ", --") + it->second;
    }
    if (options.empty()) throw;
    throw PreconditionError(options + ": " + e.what());
  }
}

}  // namespace desmine::tools
