// The --option parser shared by the desmine command-line tools.
#pragma once

#include <map>
#include <set>
#include <string>

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

  double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

  bool flag(const std::string& key) const {
    const auto it = values_.find(key);
    return it != values_.end() && it->second != "false" && it->second != "0";
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace desmine::tools
