// Drift detection over live traffic (DESIGN.md §14).
//
// Production sensors migrate: phases slip, thresholds get re-tuned, states
// appear that training never saw. The mined s(i, j) baselines then overstate
// what live decoding can achieve and the detector's false-alarm rate creeps
// up. The DriftMonitor watches three signals the pipeline already produces:
//  * per-edge decode score — an EWMA of live f(i, j) against the mined
//    s(i, j) baseline (the primary drift signal);
//  * per-edge break rate — an EWMA of the alert-matrix base rate (fraction
//    of windows where the edge reported broken);
//  * per-sensor <unk> rate — the fraction of encoded characters that mapped
//    to SensorEncrypter::kUnknownChar (states unseen at training time).
// and emits a typed per-edge verdict: stable / drifting / drifted.
//
// Hysteresis: a verdict only changes after `DriftConfig::hysteresis`
// consecutive observation periods agree on the same target state, so a
// transient true anomaly (one bad day) cannot flip an edge to drifted — the
// EWMAs absorb the spike and the streak counter resets when the signal
// clears. Drift, by contrast, is monotone and keeps the deficit pinned.
//
// The monitor watches exactly the valid-band edges (core::in_valid_band) an
// AnomalyDetector and serve::make_generation score, in the same order, so
// observations can be lifted directly from a DetectionResult's valid_edges.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/anomaly.h"
#include "core/mvr_graph.h"

namespace desmine::lifecycle {

enum class DriftState : std::uint8_t {
  kStable = 0,
  kDrifting = 1,  ///< early warning; not yet worth a retrain
  kDrifted = 2,   ///< baseline no longer holds; schedule incremental retrain
};

const char* to_string(DriftState state);

struct DriftConfig {
  /// EWMA smoothing factor for the per-edge decode-score and break-rate
  /// averages and the per-sensor <unk> rates (weight of the newest period).
  /// Keep alpha * worst-single-period-crash below drifting_drop so one
  /// anomalous period cannot push the EWMA over the drift threshold alone.
  double ewma_alpha = 0.1;
  /// Minimum observation periods before any edge may leave kStable.
  std::size_t min_observations = 3;
  /// Consecutive periods that must agree on a new verdict before the edge
  /// transitions (hysteresis against transient anomalies).
  std::size_t hysteresis = 2;
  /// BLEU deficit (baseline - EWMA of live f) that marks an edge drifting.
  double drifting_drop = 5.0;
  /// BLEU deficit that marks an edge drifted (retrain-worthy).
  double drifted_drop = 15.0;
  /// EWMA broken-fraction (alert-matrix base rate) that marks an edge
  /// drifting even while its BLEU deficit is still small.
  double break_rate = 0.5;
  /// <unk>-rate on either endpoint sensor that marks an edge drifting (new
  /// states are appearing that the pair model cannot decode).
  double max_unk_rate = 0.25;
};

/// Published state of one monitored edge.
struct EdgeDrift {
  std::size_t src = 0;
  std::size_t dst = 0;
  double baseline = 0.0;         ///< mined s(src, dst)
  double ewma_bleu = 0.0;        ///< EWMA of live f(src, dst)
  double ewma_break_rate = 0.0;  ///< EWMA of the per-period broken fraction
  double unk_rate = 0.0;         ///< max endpoint <unk> EWMA at last observe
  DriftState state = DriftState::kStable;
  std::size_t observations = 0;  ///< periods with a real score for this edge
};

/// One edge's aggregate over an observation period (e.g. one day of
/// windows). A NaN bleu means the edge produced no score that period (all
/// its windows were health-masked); the EWMAs then hold their value.
struct EdgeObservation {
  double bleu = std::numeric_limits<double>::quiet_NaN();
  double break_rate = 0.0;  ///< fraction of the period's windows broken
};

class DriftMonitor {
 public:
  /// Monitors the valid-band edges of `graph` (core::in_valid_band), in
  /// graph order like AnomalyDetector.
  DriftMonitor(const core::MvrGraph& graph,
               const core::DetectorConfig& detector, DriftConfig config);

  /// Feed one observation period. `edges` must align with edges() (one
  /// entry per monitored edge); `sensor_unk` holds the period's <unk>
  /// fraction per sensor node (graph indexing) and may be empty when
  /// unknown-state tracking is not available.
  void observe(const std::vector<EdgeObservation>& edges,
               const std::vector<double>& sensor_unk = {});

  const std::vector<EdgeDrift>& edges() const { return edges_; }
  std::size_t edge_count() const { return edges_.size(); }

  /// (src, dst) of every edge currently in DriftState::kDrifted.
  std::vector<std::pair<std::size_t, std::size_t>> drifted_pairs() const;

  /// Number of monitored edges currently in `state`.
  std::size_t count(DriftState state) const;

  const DriftConfig& config() const { return config_; }

 private:
  DriftConfig config_;
  std::vector<EdgeDrift> edges_;
  /// Pending verdict + streak per edge (hysteresis bookkeeping).
  std::vector<DriftState> target_;
  std::vector<std::size_t> streak_;
  /// Per-sensor <unk> EWMAs (graph node indexing); NaN until first seen.
  std::vector<double> sensor_unk_;
};

}  // namespace desmine::lifecycle
