// The four workloads (README.md in this directory explains why each one).
#pragma once

#include "common.h"

namespace desmine::e2e {

/// serve-fleet (`diverse` false): 32 sessions replay one low-noise plant at
/// day offsets, so the decode cache serves almost every edge score.
/// serve-diverse (`diverse` true): 32 sessions replay 32 noisy plants, so
/// about half the edge scores need a fresh batched decode.
RunResult run_serve(const Options& options, const Calibration& calibration,
                    bool diverse);

/// detect-batch: Framework::detect over 90-day plant histories.
RunResult run_detect(const Options& options, const Calibration& calibration);

/// mine: encrypter fit and language generation, then RelationshipMiner::mine
/// of the fixture's 72 sensor pairs.
RunResult run_mine(const Options& options, const Calibration& calibration);

/// bench.trace_overhead_pct: how much slower the traced half of a traced
/// run was than its untraced half, in percent of the untraced rate.
inline double trace_overhead_pct(double untraced_rate, double traced_rate) {
  return untraced_rate <= 0.0
             ? 0.0
             : (untraced_rate - traced_rate) / untraced_rate * 100.0;
}

}  // namespace desmine::e2e
