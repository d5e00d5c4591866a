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

  /// Every option given, by name: the text after it, "true" for a bare flag.
  const std::map<std::string, std::string>& values() const { return values_; }

  bool flag(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second != "false" && it->second != "0";
  }

 private:
  std::map<std::string, std::string> values_;
};

/// --config FILE (when given) as the baseline, then every option the
/// command was given that overrides a config key. Ranges are checked
/// separately, by io::validate_run_config(run, args.values()).
inline io::RunConfig run_config(const Args& args) {
  io::RunConfig run;
  const std::string path = args.get_or("config", "");
  if (!path.empty()) run = io::load_run_config(path);
  io::apply_flags(run, args.values());
  return run;
}

}  // namespace desmine::tools
