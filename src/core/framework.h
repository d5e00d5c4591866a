// End-to-end facade over the paper's analytics framework (Fig. 1):
// multivariate discrete event sequences -> sensor languages -> pairwise NMT
// models -> multivariate relationship graph -> anomaly detection.
//
// Typical use:
//   Framework fw(config);
//   fw.fit(train_series, dev_series);           // offline (Algorithm 1)
//   auto result = fw.detect(test_series);       // batch   (Algorithm 2)
//   const MvrGraph& g = fw.graph();             // knowledge discovery
#pragma once

#include <memory>
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

  /// Batch detection over a test series (must contain every kept sensor):
  /// Algorithm 2 on every window of the series.
  ///
  /// Builds no string corpora: each kept sensor is encrypted to its
  /// character stream, window t's sentence is the words of its characters
  /// [sentence_start(t), + sentence_span()) (LanguageGenerator), and each
  /// distinct span is encoded once by core::encode_span, on the detector's
  /// pool (encode() below). The bits are those of scoring each window's
  /// string words encoded by core::encode_sentence, which the tests check.
  ///
  /// Both detect calls score on one AnomalyDetector per fitted graph, built
  /// by the first of them (a Framework that never detects starts no
  /// threads) and shared by copies until fit() or restore() replaces the
  /// graph. Its pool threads keep their decode arenas from call to call,
  /// and its edges keep one decode memo each (AnomalyDetector): a call
  /// decodes only sentences no earlier call on this detector decoded, with
  /// the same bits as decoding them afresh. fit() and restore() drop the
  /// memos with the detector; copies share them.
  /// Building it validates the graph: a graph with an edge off its sensors'
  /// vocabularies throws robust::VocabularyMismatch from every call.
  /// Concurrent calls are safe and take turns scoring, since the graph's
  /// models decode in place and the memos fill in place.
  DetectionResult detect(const MultivariateSeries& test) const;

  /// Degraded-mode batch detection (DESIGN.md §8): replay the test series
  /// through a sensor-health tracker, exclude unhealthy sensors per window,
  /// renormalize a_t over the surviving edges, and gate verdicts on
  /// config().detector.min_coverage. `missing_ticks` lists tick indices
  /// whose source rows were quarantined at ingestion (io::CsvReport).
  DetectionResult detect_degraded(
      const MultivariateSeries& test, const robust::HealthConfig& health,
      const std::vector<std::size_t>& missing_ticks = {}) const;

  /// The kept sensors' windows of `series`, encoded for `detector`'s
  /// vocabularies straight from each sensor's character stream, on its
  /// pool: the one input AnomalyDetector::detect takes. detect() scores
  /// through it with the framework's own detector; a caller that wants
  /// another valid band builds its own AnomalyDetector over graph() and
  /// runs `detector.detect(fw.encode(series, detector), options)`. That
  /// detector shares the graph's models, so its calls must not overlap
  /// this framework's detect calls.
  ///
  /// Throws PreconditionError before fit() or restore(), when `detector`
  /// was built over a graph with another sensor count than the kept
  /// sensors, or when `series` lacks a kept sensor. A series shorter than
  /// one sentence span gives corpora of zero windows, which detect()
  /// scores to an empty result.
  std::vector<EncodedCorpus> encode(const MultivariateSeries& series,
                                    const AnomalyDetector& detector) const;

  /// Aligned string corpora for the kept sensors, indexed like the graph's
  /// nodes: one sentence per window. No detection path goes through them;
  /// outside the tests, their callers are the lifecycle retrainer, which
  /// mines its training corpora from them, and bench/e2e's layer probes.
  /// Once a detect call has built the detector, the sensors are encoded in
  /// parallel on its pool.
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
  struct DetectorSlot;

  /// The graph's detector, built first if `build`; null when not built.
  std::shared_ptr<const AnomalyDetector> detector(bool build) const;

  DetectionResult detect(const MultivariateSeries& test,
                         const DetectOptions& options) const;

  FrameworkConfig config_;
  LanguageGenerator language_;
  std::optional<SensorEncrypter> encrypter_;
  std::optional<MvrGraph> graph_;
  /// The lazily built detector of graph_, with its decode memos; fit() and
  /// restore() start a new slot, so a copy holding the old graph keeps the
  /// old detector and memos.
  std::shared_ptr<DetectorSlot> slot_;
};

}  // namespace desmine::core
