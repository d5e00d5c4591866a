// End-to-end facade over the paper's analytics framework (Fig. 1):
// multivariate discrete event sequences -> sensor languages -> pairwise NMT
// models -> multivariate relationship graph -> anomaly detection.
//
// Typical use:
//   Framework fw(config);
//   fw.fit(train_series, dev_series);           // offline (Algorithm 1)
//   auto result = fw.detect(test_series);       // online  (Algorithm 2)
//   const MvrGraph& g = fw.graph();             // knowledge discovery
#pragma once

#include <optional>

#include "core/anomaly.h"
#include "core/encryption.h"
#include "core/event.h"
#include "core/language.h"
#include "core/miner.h"
#include "core/mvr_graph.h"
#include "robust/sensor_health.h"

namespace desmine::core {

struct FrameworkConfig {
  WindowConfig window{};
  MinerConfig miner{};
  DetectorConfig detector{};
};

class Framework {
 public:
  explicit Framework(FrameworkConfig config);

  /// Offline training: fit the encrypter on `train` (dropping constant
  /// sensors), build languages, and mine the relationship graph. BLEU
  /// scores s(i,j) are measured on `dev` (both from normal operation).
  void fit(const MultivariateSeries& train, const MultivariateSeries& dev);

  /// Online detection over a test series (must contain every kept sensor).
  DetectionResult detect(const MultivariateSeries& test) const;

  /// Degraded-mode batch detection (DESIGN.md §8): replay the test series
  /// through a sensor-health tracker, exclude unhealthy sensors per window,
  /// renormalize a_t over the surviving edges, and gate verdicts on
  /// config().detector.min_coverage. `missing_ticks` lists tick indices
  /// whose source rows were quarantined at ingestion (io::CsvReport).
  DetectionResult detect_degraded(
      const MultivariateSeries& test, const robust::HealthConfig& health,
      const std::vector<std::size_t>& missing_ticks = {}) const;

  /// Aligned sentence corpora for the kept sensors, indexed like the graph's
  /// nodes. Exposed for benches that score custom windows.
  std::vector<text::Corpus> to_corpora(const MultivariateSeries& series) const;

  /// Restore a previously fitted state (used by io::load_framework). The
  /// encrypter and graph must come from a matching fit() run.
  void restore(SensorEncrypter encrypter, MvrGraph graph);

  bool fitted() const { return encrypter_.has_value(); }
  const SensorEncrypter& encrypter() const;
  const MvrGraph& graph() const;
  const LanguageGenerator& language() const { return language_; }
  const FrameworkConfig& config() const { return config_; }

 private:
  FrameworkConfig config_;
  LanguageGenerator language_;
  std::optional<SensorEncrypter> encrypter_;
  std::optional<MvrGraph> graph_;
};

}  // namespace desmine::core
