// Process-wide metrics: named counters, gauges, and histograms.
//
// Hot paths hold a reference to an instrument (lookup once, then lock-free
// atomic updates). Histograms use fixed log-scale buckets and shard their
// atomics across cache lines so concurrent writers (e.g. the miner's thread
// pool) don't serialize on one counter. Snapshots and the JSON/text dumps
// are approximate under concurrent writes, exact once writers quiesce.
//
// Robustness instruments emitted by the fault-tolerant pipeline (ISSUE 2):
//   miner.pair.retries          counter: pair training attempts retried
//   miner.pair.failed           counter: pairs that permanently failed
//   checkpoint.pairs_skipped    counter: pairs restored from the journal
//   checkpoint.pairs_journaled  counter: pair records durably appended
//   nmt.train.divergences       counter: divergence-guard trips
//
// Degraded-mode detection instruments (ISSUE 3):
//   detect.sensor.dropped       counter: healthy -> dropped transitions
//   detect.sensor.stale         counter: healthy -> stale transitions
//   detect.sensor.flooding      counter: healthy -> flooding transitions
//   detect.sensor.readmitted    counter: unhealthy -> healthy re-admissions
//   detect.window.degraded      counter: windows below the coverage quorum
//   csv.rows_bad                counter: malformed rows seen in tolerant mode
//   csv.rows_quarantined        counter: malformed rows journaled
//
// Arena instruments for the zero-allocation hot path (ISSUE 4):
//   tensor.workspace.bytes_peak gauge: largest bytes-reserved across all
//                               workspaces (a flat value across training
//                               steps is the zero-steady-state-growth claim)
//   tensor.workspace.rewinds    counter: arena rewinds/resets (reuse events)
//   tensor.workspace.grows      counter: arena chunk allocations (0 when warm)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace desmine::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value that can move both ways (queue depth, learning rate).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free distribution over fixed log2-scale buckets.
///
/// Bucket b (b >= 1) covers (2^(b-1-kExpOffset), 2^(b-kExpOffset)]; bucket 0
/// absorbs everything <= 2^-kExpOffset (including non-positive values). With
/// kExpOffset = 16 the resolvable range is ~1.5e-5 .. 1.4e14, which spans
/// sub-millisecond timer values through multi-hour wall clocks in ms.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr int kExpOffset = 16;

  void record(double v);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when empty
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    /// Estimate of the q-quantile (q in [0, 1]): linear interpolation within
    /// the log2 bucket the rank falls into, clamped to [min, max] so a
    /// single-valued distribution reports that value exactly. quantile(0)
    /// is min and quantile(1) is max by construction.
    double quantile(double q) const;
  };

  Snapshot snapshot() const;
  void reset();

  static std::size_t bucket_of(double v);
  /// Inclusive upper bound of bucket b.
  static double bucket_upper(std::size_t b);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> counts{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  static constexpr std::size_t kShards = 8;

  static Shard& this_thread_shard(std::array<Shard, kShards>& shards);

  std::array<Shard, kShards> shards_;
};

/// Point-in-time copy of every instrument, for exporters that need to walk
/// the registry without holding its lock (obs::to_prometheus, /statusz).
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// Registry of named instruments. Lookup is mutex-protected; returned
/// references stay valid for the registry's lifetime (instruments are never
/// removed, only reset).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copy of every instrument's current value. Approximate under concurrent
  /// writers, like the dumps.
  RegistrySnapshot snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, mean, p50, p95, p99, buckets: [{le, count}...]}}}
  std::string to_json() const;

  /// Human-readable table dump (one section per instrument kind).
  std::string to_text() const;

  /// Zero every instrument (names stay registered). Test/tool helper; not
  /// safe against concurrent writers.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry the pipeline reports into.
MetricsRegistry& metrics();

}  // namespace desmine::obs
