// Live telemetry: sliding-window histograms and Prometheus exposition.
//
// MetricsRegistry instruments are since-boot cumulatives — the right shape
// for post-mortem dumps, the wrong one for a dashboard ("p99 over the last
// minute", not "p99 since Tuesday"). SlidingHistogram keeps a ring of
// epoch-sized Histograms and rotates them on the steady clock; a snapshot
// merges the live epochs, so quantiles reflect only recent samples.
// TelemetryRegistry names them, mirroring MetricsRegistry (lookup once,
// record forever), and to_prometheus() renders both registries in the
// Prometheus text format (0.0.4): counters as `_total`, histograms with
// cumulative `le` buckets plus `+Inf`, sliding windows as `_recent`
// summaries carrying quantile labels. The exposition walks RegistrySnapshot
// copies, never instrument references, so a scrape holds no registry lock
// while formatting.
//
// Time injection: record_at/snapshot_at take an explicit steady_clock point
// so epoch rotation is testable without sleeping. The production record()
// and snapshot() just pass now().
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace desmine::obs {

/// Distribution over the trailing `window_s` seconds: a ring of `epochs`
/// Histograms, each covering window_s / epochs seconds. record() lands in
/// the current epoch; snapshot() merges every epoch still inside the
/// window. Fully mutex-serialized — sliding instruments sit off the hot
/// path (one record per served window, not per tensor op).
class SlidingHistogram {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SlidingHistogram(double window_s = 60.0, std::size_t epochs = 6);

  void record(double v) { record_at(Clock::now(), v); }
  Histogram::Snapshot snapshot() const { return snapshot_at(Clock::now()); }

  /// Time-injected variants (test seams; rotation is pure arithmetic on the
  /// given clock point, so tests drive it deterministically).
  void record_at(Clock::time_point now, double v);
  Histogram::Snapshot snapshot_at(Clock::time_point now) const;

  double window_s() const { return window_s_; }
  std::size_t epochs() const { return slots_.size(); }

 private:
  std::int64_t epoch_index(Clock::time_point t) const;

  double window_s_;
  Clock::duration epoch_len_;
  Clock::time_point base_;

  mutable std::mutex mutex_;
  /// Slot e % epochs holds epoch e. Slots are recycled lazily: a slot whose
  /// recorded epoch fell out of the window is reset on next use and simply
  /// skipped by snapshots until then.
  mutable std::vector<std::unique_ptr<Histogram>> slots_;
  mutable std::vector<std::int64_t> slot_epoch_;  ///< -1 = never used
  mutable std::int64_t current_ = 0;
};

/// Registry of named sliding histograms, the live-window sibling of
/// MetricsRegistry. References stay valid for the registry's lifetime.
class TelemetryRegistry {
 public:
  /// Window shape for instruments created after this call (existing ones
  /// keep theirs). Serving wires ServeConfig::{sliding_window_s,
  /// sliding_epochs} through here before registering instruments.
  void configure(double window_s, std::size_t epochs);

  SlidingHistogram& sliding(const std::string& name);

  /// Rotated-to-now snapshot of every sliding instrument.
  std::map<std::string, Histogram::Snapshot> snapshot() const;

  /// Drop every instrument (names included). Test/tool helper for private
  /// registries; callers must not hold references across a reset. The
  /// process-wide telemetry() is never reset: serving keeps a function-local
  /// reference to serve.window.latency_ms.
  void reset();

  double window_s() const;
  std::size_t epochs() const;

 private:
  mutable std::mutex mutex_;
  double window_s_ = 60.0;
  std::size_t epochs_ = 6;
  std::map<std::string, std::unique_ptr<SlidingHistogram>> sliding_;
};

/// The process-wide sliding-instrument registry.
TelemetryRegistry& telemetry();

/// Metric name in Prometheus form: "desmine_" prefix, every character
/// outside [A-Za-z0-9_] replaced by '_' ("serve.window.latency_ms" ->
/// "desmine_serve_window_latency_ms").
std::string prometheus_name(std::string_view name);

/// Label-value escaping per the text format: backslash, double quote, and
/// newline become \\, \", and \n.
std::string prometheus_escape_label(std::string_view value);

/// Render both registries as Prometheus text format 0.0.4. Counters emit as
/// `<name>_total`, gauges as-is, histograms with cumulative `le` buckets
/// terminated by `+Inf` plus `_sum`/`_count`, and sliding snapshots as
/// `<name>_recent` summaries with quantile="0.5|0.95|0.99" labels.
std::string to_prometheus(
    const RegistrySnapshot& registry,
    const std::map<std::string, Histogram::Snapshot>& sliding);

/// to_prometheus over the process-wide metrics() and telemetry().
std::string scrape_prometheus();

}  // namespace desmine::obs
