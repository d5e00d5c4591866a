// JSON round-trip for the run configuration.
//
// RunConfig bundles everything a tool run is parameterised by: the
// FrameworkConfig (window / miner / detector), the degraded-mode
// HealthConfig, the serving-layer ServeConfig, and the continual-mining
// LifecycleConfig (DESIGN.md §14). run_config_to_json
// emits a pretty-printed document with every knob at its current value —
// `desmine_cli --dump-config` uses it to print a complete, editable
// starting point; every value reads back exactly. run_config_from_json
// parses and validates strictly: unknown keys and out-of-range values
// throw PreconditionError naming the offending dotted key (e.g.
// "miner.trainer.stepz"), so a typo never silently falls back to a
// default. Keys that are simply absent keep their defaults, which makes
// partial override files work.
//
// Each config struct is declared once, as a field table in config_json.cpp:
// per key its name, the member it sets, its type and range rule, and the
// tool option that overrides it. Emit, parse, validate_run_config and
// apply_flags are each one walk over those tables, so a key's type, range
// and flag cannot drift apart between a config file and the command line.
//
// Deliberately NOT covered: callback hooks (MinerConfig::on_pair,
// should_abort), ServeConfig::detector (the detector section is the
// single source of truth; callers mirror it into ServeConfig themselves,
// as run_config_from_json already does), ServeConfig::shadow (mirrored
// from lifecycle.shadow the same way), and RetrainConfig::seed (a test
// determinism knob, not an operator-facing one).
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "core/framework.h"
#include "lifecycle/controller.h"
#include "robust/sensor_health.h"
#include "serve/session_manager.h"
#include "tensor/kernels.h"

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

/// Command-line overrides as the tools collect them: option name (without
/// the leading "--") -> the text given for it.
using FlagValues = std::map<std::string, std::string>;

/// Pretty-printed JSON document covering every RunConfig knob.
std::string run_config_to_json(const RunConfig& config);

/// Parse a config document produced by run_config_to_json (or any subset of
/// it). Throws PreconditionError naming the dotted key for unknown
/// keys, type mismatches, and out-of-range values; RuntimeError for
/// malformed JSON.
RunConfig run_config_from_json(std::string_view text);

/// Set each key whose tool option appears in `flags` from the option's
/// text: integers in [0, 2^53] (the range a config file holds), finite
/// numbers, strings as given, and for a bool `true` unless the text is
/// "false" or "0". Throws PreconditionError naming the option (and, for an
/// integer, the key) when the text is not such a value. Ranges are left to
/// validate_run_config.
void apply_flags(RunConfig& config, const FlagValues& flags);

/// The range checks run_config_from_json applies to each section it reads,
/// over every section of `config`. Throws PreconditionError for the first
/// value out of range, naming the key and, before it, the options among
/// `flags` that set it: "--word: config: key 'window.word_length' must be
/// > 0". For the cross-key rules (detector.valid_lo <= valid_hi,
/// lifecycle.drift.drifting_drop <= drifted_drop) both keys count.
void validate_run_config(const RunConfig& config, const FlagValues& flags = {});

/// Read `path` and run_config_from_json its contents; errors mention the
/// file path.
RunConfig load_run_config(const std::string& path);

}  // namespace desmine::io
