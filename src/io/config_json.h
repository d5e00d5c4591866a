// JSON round-trip for the run configuration (ISSUE 5 satellite).
//
// RunConfig bundles everything a tool run is parameterised by: the
// FrameworkConfig (window / miner / detector), the degraded-mode
// HealthConfig, the serving-layer ServeConfig, and the continual-mining
// LifecycleConfig (DESIGN.md §14). run_config_to_json
// emits a pretty-printed document with every knob at its current value —
// `desmine_cli --dump-config` uses it to print a complete, editable
// starting point. run_config_from_json parses and validates strictly:
// unknown keys and out-of-range values throw PreconditionError
// naming the offending dotted key (e.g. "miner.trainer.stepz"), so a typo
// never silently falls back to a default. Types are checked as a key is
// read, ranges by one validator per section (validate_window, ...), which
// the tools also run after their flags override a section. Keys that are simply absent keep
// their defaults, which makes partial override files work.
//
// Deliberately NOT covered: callback hooks (MinerConfig::on_pair,
// should_abort), ServeConfig::detector (the detector section is the
// single source of truth; callers mirror it into ServeConfig themselves,
// as run_config_from_json already does), ServeConfig::shadow (mirrored
// from lifecycle.shadow the same way), and RetrainConfig::seed (a test
// determinism knob, not an operator-facing one).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "lifecycle/controller.h"
#include "robust/sensor_health.h"
#include "serve/session_manager.h"
#include "tensor/kernels.h"
#include "util/error.h"

namespace desmine::io {

struct RunConfig {
  core::FrameworkConfig framework{};
  robust::HealthConfig health{};
  /// serve.detector is kept mirrored from framework.detector rather than
  /// serialized separately; serve.shadow is mirrored from lifecycle.shadow.
  serve::ServeConfig serve{};
  lifecycle::LifecycleConfig lifecycle{};
  /// Compute-kernel backend (DESIGN.md §16). Parsing validates the name
  /// only; availability (e.g. avx2 on a non-AVX2 CPU) is checked when a
  /// tool applies the choice via tensor::kernels::select_backend, so a
  /// config file written on one machine still parses on another.
  tensor::kernels::KernelConfig tensor{};
};

/// A value outside its key's range. The message names the dotted key;
/// keys() lists it, and for a cross-key rule (valid_lo <= valid_hi) the key
/// it is compared with, so a tool can name the flags that set them.
class ConfigKeyError : public PreconditionError {
 public:
  ConfigKeyError(std::vector<std::string> keys, const std::string& message)
      : PreconditionError(message), keys_(std::move(keys)) {}
  const std::vector<std::string>& keys() const { return keys_; }

 private:
  std::vector<std::string> keys_;
};

/// The range checks of one section, as run_config_from_json applies them
/// after reading the section. The tools run them again on every section
/// their flags override. Each throws ConfigKeyError for the first value
/// out of range.
void validate_window(const core::WindowConfig& window);
void validate_miner(const core::MinerConfig& miner);
void validate_detector(const core::DetectorConfig& detector);
void validate_health(const robust::HealthConfig& health);
void validate_serve(const serve::ServeConfig& serve);
void validate_lifecycle(const lifecycle::LifecycleConfig& lifecycle);

/// Pretty-printed JSON document covering every RunConfig knob.
std::string run_config_to_json(const RunConfig& config);

/// Parse a config document produced by run_config_to_json (or any subset of
/// it). Throws PreconditionError naming the dotted key for unknown
/// keys, type mismatches, and out-of-range values; RuntimeError for
/// malformed JSON.
RunConfig run_config_from_json(std::string_view text);

/// Read `path` and run_config_from_json its contents; errors mention the
/// file path.
RunConfig load_run_config(const std::string& path);

}  // namespace desmine::io
