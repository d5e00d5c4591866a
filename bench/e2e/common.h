// Shared pieces of the end-to-end benchmark (README.md in this directory):
// the fixture plant and model configuration, workload options and results,
// exact statistics, memory sampling, output digests, tick replay and the
// calibration file.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/framework.h"
#include "core/miner.h"
#include "data/plant.h"

namespace desmine::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Library worker threads in every workload (ServeConfig::workers,
/// DetectorConfig::threads, MinerConfig::threads). With the generator and
/// the poller (or the memory sampler) a run never exceeds four threads.
inline constexpr std::size_t kWorkers = 2;

/// Set-ups timed per run; setup_s is their median.
inline constexpr std::size_t kSetups = 11;

/// The plant seed that produces the fixture, and the seed the recorded
/// output digests belong to.
inline constexpr std::uint64_t kFixtureSeed = 7;

/// Fixture plant geometry: 240-minute days, mined on days 0-5 with BLEU
/// s(i,j) from days 6-7.
inline constexpr std::size_t kMinutesPerDay = 240;
inline constexpr std::size_t kTrainDays = 6;
inline constexpr std::size_t kDevDays = 2;

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// How a workload run was invoked.
struct Options {
  std::string workload;
  std::uint64_t seed = kFixtureSeed;
  double seconds = 10.0;  ///< measured time of the run
  bool traced = false;
  bool smoke = false;
  std::string cache_dir;  ///< fixture and temporary artifacts
};

/// Everything one workload run reports.
struct RunResult {
  std::vector<Metric> end_to_end;  ///< untraced runs
  std::vector<Metric> per_layer;   ///< traced runs: layers every workload has
  std::vector<Metric> detail;      ///< workload-specific metrics
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;    ///< failed output checks
  std::vector<std::string> warnings;  ///< validity notes, not output errors
  std::vector<std::pair<std::string, double>> phases;  ///< name -> seconds
  std::vector<std::pair<std::string, std::string>> digests;  ///< key -> hex

  /// Close the phase that began at the previous lap (or at construction).
  void lap(std::string name) {
    const auto now = Clock::now();
    phases.emplace_back(std::move(name), seconds_between(phase_start_, now));
    phase_start_ = now;
  }

 private:
  Clock::time_point phase_start_ = Clock::now();
};

// ---- statistics -------------------------------------------------------------

/// Exact q-quantile by linear interpolation between order statistics
/// (0 for an empty sample).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

// ---- memory -----------------------------------------------------------------

/// Resident set of this process in MiB (VmRSS).
double rss_mib();

/// Peak of sampled resident sets above the resident set at construction.
/// sample() may be called from any thread.
class RssPeak {
 public:
  RssPeak();
  void sample();
  double growth_mib() const;

 private:
  double base_mib_;
  std::atomic<double> peak_mib_;
};

/// Samples an RssPeak every 10 ms on its own thread while it lives (for
/// workloads whose threads all block inside the library).
class RssSampler {
 public:
  explicit RssSampler(RssPeak& peak);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

 private:
  RssPeak& peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- output digests ---------------------------------------------------------

std::uint64_t bits_of(double v);

/// FNV-1a over 64-bit words: a compact fingerprint of output bits.
class Digest {
 public:
  void add(std::uint64_t word);
  void add_bits(double v) { add(bits_of(v)); }
  void add_pairs(const std::vector<std::pair<std::size_t, std::size_t>>& pairs);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// ---- fixture ----------------------------------------------------------------

/// The serve plant: 2 components x 3 sensors, 1 popular, 2 lazy and 1
/// constant sensor (9 kept), 240-minute days. `anomalies` keeps the
/// generator's default anomaly days (20 and 27).
data::PlantConfig plant_config(std::uint64_t seed, std::size_t days,
                               double noise, bool anomalies);

/// Window {10,1,20,20}; 1x24 LSTM trained 250 steps; valid band [0, 100.5)
/// so every edge scores; kWorkers library threads.
core::FrameworkConfig framework_config();

/// Days [first, first + count) of a plant history.
core::MultivariateSeries day_slice(const core::MultivariateSeries& series,
                                   std::size_t first, std::size_t count);

/// Encrypter fitted on `train` plus the aligned train/dev corpora of every
/// kept sensor — exactly what Framework::fit builds before mining.
struct Languages {
  core::SensorEncrypter encrypter;
  std::vector<core::SensorLanguage> languages;
};
Languages build_languages(const core::MultivariateSeries& train,
                          const core::MultivariateSeries& dev);

/// Path of the fixture artifact under `cache_dir`, keyed by the library
/// version and a fingerprint of the fixture configuration.
std::string fixture_path(const std::string& cache_dir);

/// Mine the fixture (the mine workload at kFixtureSeed) and save it as a
/// v4 artifact when it is not cached yet. Returns its path.
std::string ensure_fixture(const std::string& cache_dir);

/// The fixture as a fitted framework (io::load_framework, bench detector).
core::Framework load_fixture(const std::string& path);

// ---- tick replay ------------------------------------------------------------

/// A plant history as kept-sensor state indices: row t holds each kept
/// sensor's state at tick t. Compact enough to pre-generate every stream a
/// run replays.
struct TickTable {
  std::vector<std::string> sensors;              ///< kept, encrypter order
  std::vector<std::vector<std::string>> states;  ///< per sensor: names
  std::vector<std::uint8_t> rows;                ///< ticks x sensors

  std::size_t ticks() const { return rows.size() / sensors.size(); }
  static TickTable from_series(const core::MultivariateSeries& series,
                               const std::vector<std::string>& kept);
};

/// One tick map per stream, values assigned in place: the states are short
/// strings, so filling allocates nothing while the clock runs.
class TickFeed {
 public:
  explicit TickFeed(const std::vector<std::string>& sensors);
  TickFeed(const TickFeed&) = delete;
  TickFeed& operator=(const TickFeed&) = delete;

  const std::map<std::string, std::string>& fill(const TickTable& table,
                                                 std::size_t row);

 private:
  std::map<std::string, std::string> map_;
  std::vector<std::string*> values_;
};

/// Window w of a stream covers ticks [w * stride, w * stride + span).
inline constexpr std::size_t kWindowStride = 20;
inline constexpr std::size_t kWindowSpan = 29;

// ---- calibration ------------------------------------------------------------

/// bench/e2e/calibration.json: the calibration host's speed index, ladder
/// rates, the latency limit and the output digests recorded at
/// kFixtureSeed, per kernel backend.
struct Calibration {
  double host_speed_ref = 1.0;
  double latency_limit_ms = 50.0;
  std::map<std::string, std::vector<double>> ladder_wps;
  std::map<std::string, std::map<std::string, std::string>> digests;
};
Calibration load_calibration(const std::string& path);

/// The active kernel backend's name.
std::string backend();

/// Record `hex` under `key` and, at kFixtureSeed, compare it with the
/// digest recorded for the active backend (a mismatch is an error; a
/// digest not recorded yet is a warning).
void check_digest(const Calibration& calibration, const Options& options,
                  const std::string& key, const std::string& hex,
                  RunResult* result);

}  // namespace desmine::e2e
