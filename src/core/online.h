// Streaming (online) anomaly detection.
//
// The batch AnomalyDetector (Algorithm 2) scores a whole test corpus at
// once; a deployed system instead receives one multivariate sample per tick.
// OnlineDetector layers a WindowAssembler (per-sensor buffering + window
// slicing + strict/degraded health semantics, see window_assembler.h) over
// an AnomalyDetector: whenever the stream completes the next detection
// window (one sentence per sensor, §II-A2), it encodes each sensor's
// character span (encode_span), scores the window immediately through
// AnomalyDetector::detect(EncodedCorpus…) and emits its anomaly score and
// alert set. Detection latency
// therefore equals the sentence stride — exactly the granularity trade-off
// the paper discusses. The detector keeps one decode memo per edge for the
// OnlineDetector's life, so a window decodes only source sentences its edge
// has not seen before (periodic streams repeat theirs), with the bits of a
// fresh decode. For many concurrent streams sharing one model set,
// use serve::SessionManager instead, which defers scoring to a cross-session
// batch scheduler with identical semantics.
//
// Two ingestion contracts (DESIGN.md §8):
//  * strict (default) — a kept sensor missing from a tick raises a typed
//    robust::MissingSensor; scores are bit-identical to the pre-degraded
//    implementation.
//  * degraded (DegradedConfig::enabled) — missing samples feed the
//    robust::SensorHealthTracker instead of throwing; windows touched by a
//    missing tick or an unhealthy sensor exclude that sensor's edges, a_t
//    renormalizes over the survivors, and windows below the min_coverage
//    quorum emit a no-verdict result (degraded flag) instead of a fake 0.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/anomaly.h"
#include "core/encryption.h"
#include "core/event.h"
#include "core/language.h"
#include "core/mvr_graph.h"
#include "core/window_assembler.h"
#include "robust/sensor_health.h"

namespace desmine::core {

class OnlineDetector {
 public:
  /// One completed detection window.
  struct WindowResult {
    std::size_t window_index = 0;  ///< 0-based, in sentence-stride units
    std::size_t end_tick = 0;      ///< tick just past the window's last char
    double anomaly_score = 0.0;
    /// Broken (src, dst) sensor-node pairs at this window.
    std::vector<std::pair<std::size_t, std::size_t>> broken;
    /// Surviving valid edges / total valid edges (1.0 in strict mode).
    double coverage = 1.0;
    /// True when coverage fell below the min_coverage quorum; the
    /// anomaly_score is then a no-verdict placeholder 0.0.
    bool degraded = false;
    /// Node indices whose edges were excluded from this window (degraded
    /// mode only; empty in strict mode).
    std::vector<std::size_t> unhealthy;
    /// (src, dst) edges whose score could not be computed — decode failure
    /// or open circuit breaker. Serving layer only (serve::SessionManager);
    /// always empty from OnlineDetector.
    std::vector<std::pair<std::size_t, std::size_t>> failed;
    /// True when the serving layer shed this window under overload instead
    /// of scoring it late; the anomaly_score is then a no-verdict
    /// placeholder 0.0. Always false from OnlineDetector.
    bool shed = false;
  };

  /// `graph` must carry trained models; `encrypter` must be the one the
  /// graph was mined with (same kept-sensor order).
  OnlineDetector(const MvrGraph& graph, SensorEncrypter encrypter,
                 WindowConfig window, DetectorConfig detector,
                 DegradedConfig degraded = {});

  /// Feed one tick: the categorical state of every kept sensor, keyed by
  /// sensor name (unknown states map to <unk>). In strict mode a missing
  /// kept sensor throws robust::MissingSensor; in degraded mode it is
  /// recorded with the health tracker and the tick proceeds. Returns a
  /// result whenever this tick completed a detection window.
  std::optional<WindowResult> push(
      const std::map<std::string, std::string>& states);

  /// Ticks consumed so far.
  std::size_t ticks() const { return assembler_.ticks(); }
  /// Windows emitted so far.
  std::size_t windows_emitted() const { return assembler_.windows_emitted(); }
  std::size_t valid_model_count() const { return detector_.valid_model_count(); }
  /// Health states (degraded mode; all-healthy in strict mode).
  const robust::SensorHealthTracker& health() const {
    return assembler_.health();
  }

 private:
  WindowAssembler assembler_;
  AnomalyDetector detector_;
};

/// Batch counterpart of the online health tracking: replay `series` through
/// a SensorHealthTracker tick by tick and derive the per-window exclusion
/// mask for AnomalyDetector::detect (a sensor is excluded from a window
/// when any tick the window covers was missing or left the sensor
/// unhealthy). `missing_ticks` lists tick indices where *no* sensor
/// delivered a value — e.g. CSV rows quarantined at ingestion.
HealthMask window_health_mask(const SensorEncrypter& encrypter,
                              const WindowConfig& window,
                              const MultivariateSeries& series,
                              const robust::HealthConfig& health,
                              const std::vector<std::size_t>& missing_ticks = {});

}  // namespace desmine::core
