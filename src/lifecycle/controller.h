// The offline half of the continual mining lifecycle (DESIGN.md §14).
//
// The loop:
//   observe ──> DriftMonitor verdicts ──> build_candidate (incremental
//   retrain + atomic candidate artifact) ──> serve::SessionManager::
//   begin_shadow / promote / rollback ──> a new controller over the promoted
//   framework
//
// The controller owns the active framework copy, the drift monitor, and the
// retrainer; the serving half (shadow scoring, gate, hot promotion) lives in
// serve::SessionManager so the two halves can run in different processes —
// the only artifact they exchange is the candidate framework file.
//
// Observation granularity is a "period" — any contiguous slice of traffic,
// typically one day. Each observe() call runs one batch detection pass with
// the ACTIVE graph, folds per-edge decode scores and break rates plus
// per-sensor <unk> rates into the DriftMonitor, and reports the period.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "lifecycle/drift_monitor.h"
#include "lifecycle/retrainer.h"
#include "serve/shadow_scorer.h"

namespace desmine::lifecycle {

/// Everything the lifecycle loop is tuned by — the `lifecycle` section of
/// io::RunConfig. `shadow` is mirrored into serve::ServeConfig::shadow by
/// the config loader so one file drives both halves of the loop.
struct LifecycleConfig {
  DriftConfig drift{};
  RetrainConfig retrain{};
  serve::ShadowConfig shadow{};
};

class LifecycleController {
 public:
  /// `framework` must be fitted (the active mined state). The controller
  /// copies it; the caller's instance is never mutated.
  LifecycleController(const core::Framework& framework,
                      LifecycleConfig config);

  /// Summary of one observed traffic period.
  struct PeriodReport {
    std::size_t windows = 0;
    double mean_score = 0.0;   ///< mean anomaly score over the period
    std::size_t drifting = 0;  ///< edges in kDrifting after this period
    std::size_t drifted = 0;   ///< edges in kDrifted after this period
  };

  /// Feed one period of live traffic (must contain every kept sensor).
  PeriodReport observe(const core::MultivariateSeries& period);

  /// Outcome of one candidate build.
  struct CandidateReport {
    RetrainReport retrain;
    std::string path;             ///< the atomic candidate artifact
    std::size_t edges_total = 0;  ///< active graph edges (retrain fraction)
  };

  /// Incrementally retrain the currently-drifted pairs on fresh normal-
  /// operation data and persist the candidate framework to `path`
  /// (CRC-trailed, temp+fsync+rename — ready for begin_shadow). Throws
  /// PreconditionError when no edge is drifted and robust::Interrupted on
  /// an injected retrain abort (no artifact is written in either case).
  CandidateReport build_candidate(const core::MultivariateSeries& train,
                                  const core::MultivariateSeries& dev,
                                  const std::string& path);

  const DriftMonitor& monitor() const { return monitor_; }
  const core::Framework& framework() const { return framework_; }
  const LifecycleConfig& config() const { return config_; }

  /// (src, dst) pairs currently flagged kDrifted.
  std::vector<std::pair<std::size_t, std::size_t>> drifted_pairs() const {
    return monitor_.drifted_pairs();
  }

 private:
  /// Aligned per-sensor languages (train/dev corpora) for the retrainer.
  std::vector<core::SensorLanguage> languages(
      const core::MultivariateSeries& train,
      const core::MultivariateSeries& dev) const;

  LifecycleConfig config_;
  core::Framework framework_;
  DriftMonitor monitor_;
};

}  // namespace desmine::lifecycle
