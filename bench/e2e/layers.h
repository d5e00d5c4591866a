// Per-layer probes: each layer's public entry point timed on the running
// workload's own inputs (its ticks, its sentence windows, its models, its
// artifact) after the workload has warmed every cache. Every workload runs
// the same probes, so a layer metric means the same thing on each of them
// and differs only by input.
//
// The host's speed swings by a quarter within a second, so each probe
// reports the median of many short timed blocks, and the probes of layers
// the library runs on kWorkers threads run on kWorkers threads too.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "util/rng.h"

namespace desmine::e2e {

/// What a workload hands to the probes.
struct LayerInputs {
  const core::Framework* framework = nullptr;  ///< fitted, models on edges
  const core::MultivariateSeries* series = nullptr;  ///< >= 6 days of input
  std::string artifact;  ///< the v4 artifact the workload opened or wrote
  std::uint64_t seed = 0;
};

/// Per-call costs the probes measured (bench.layer_accounted_frac).
struct LayerCosts {
  double assemble_us = 0.0;
  double encode_corpora_ms = 0.0;
  double sentence_bleu_us = 0.0;
  std::map<std::size_t, double> batch_row_us;  ///< batch size -> us per row
  double train_step_ms = 0.0;
  double dev_score_ms = 0.0;
};

/// Batch detection's inner loop — B=1 greedy decode, then sentence BLEU,
/// per (edge, window) — on a workload's own windows. Each sample() has every
/// library worker decode and score all windows of one sampled edge at once;
/// a workload can interleave samples with its own measured calls so both
/// see the same moments of host speed.
class EdgeWindowProbe {
 public:
  struct Cost {
    double translate_us = 0.0;  ///< per (edge, window)
    double bleu_us = 0.0;       ///< per (edge, window)
  };

  EdgeWindowProbe(const core::Framework& framework,
                  const core::MultivariateSeries& series, std::uint64_t seed);

  /// One cost per worker, each over one edge's windows.
  std::vector<Cost> sample();

 private:
  std::vector<text::Corpus> corpora_;
  std::vector<const core::MvrEdge*> edges_;
  std::vector<util::Rng> rngs_;  ///< one per worker
};

/// Run every probe with the tracer on, appending its per-layer metrics (and
/// the GEMM shapes' operation counts and bytes moved to the detail metrics).
LayerCosts probe_layers(const LayerInputs& in, RunResult* result);

/// Per-row batched-decode cost at the probed batch size nearest `batch`.
double batch_row_cost_us(const LayerCosts& costs, double batch);

}  // namespace desmine::e2e
