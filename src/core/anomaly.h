// Online anomaly detection — Algorithm 2 of the paper.
//
// A pair model g(i,j) is *valid* when its training BLEU s(i,j) lies in a
// user-selected band (the paper finds [80, 90) best, §III-C). At each test
// window t, every valid model translates sensor i's sentence and scores it
// against sensor j's sentence; the relationship is *broken* when the test
// BLEU f(i,j) falls below s(i,j) (minus an optional tolerance). The anomaly
// score a_t is the fraction of valid relationships broken at t, and the
// alert status W_t records which edges broke — the input to fault diagnosis.
//
// Degraded-mode extension (deviation from the paper, see DESIGN.md §8):
// detect() optionally takes a per-window health mask naming unhealthy
// sensors. Edges incident to an unhealthy sensor are *excluded* from that
// window's valid set — not scored, not counted as broken — and a_t is
// renormalized over the surviving edges. Each window reports its coverage
// (surviving / total valid edges); when coverage falls below the
// min_coverage quorum the window is flagged degraded and emits a
// no-verdict score of 0.0 that consumers must gate on the flag.
//
// Decode memo: a detector keeps one DecodeCache (edge_scorer.h) per valid
// edge for as long as it lives — empty until the first detect() fills it,
// bounded by EdgeScorer::Options::cache_capacity sources and as many
// (candidate, reference) pairs per edge — so repeated calls, and
// OnlineDetector's one call per window, decode only sources the edge has
// never seen, and score no pair twice once its candidate is memoised: a
// warm call on repeated sentences decodes nothing and runs no sentence
// BLEU. Greedy decoding is a pure function of the input ids, and f(i,j) of
// the candidate's and reference's ids, so a memo hit gives the bits of a
// fresh decode and score.
//
// Work follows the distinct sentences, not the windows: detect() scores
// EncodedCorpus inputs (each sensor's distinct sentences, encoded once, and
// per window an index into them), and each edge scores each distinct
// (source, reference) pair of its windows once. Encoded windows are its only
// input: Framework::encode cuts them from a series' character streams with
// core::encode_span, for the framework's own detector or for one built with
// another valid band.
//
// detect() is not reentrant: it decodes with the graph's models in place
// and updates the memos from its pool threads, so calls on one detector (or
// on copies, which share both) must take turns.
//
// The decisions themselves — config validation, the valid band, the health
// exclusion, the broken rule and the window verdict (a_t, coverage, quorum)
// — are the free functions below. AnomalyDetector (batch and online),
// serve::Session, serve::ShadowScorer, serve::make_generation and
// lifecycle::DriftMonitor all decide through them; none keeps a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/edge_scorer.h"
#include "core/mvr_graph.h"
#include "text/bleu.h"

namespace desmine::util {
class ThreadPool;
}  // namespace desmine::util

namespace desmine::core {

struct DetectorConfig {
  double valid_lo = 80.0;  ///< valid-model band lower BLEU bound (inclusive)
  double valid_hi = 90.0;  ///< upper bound (exclusive)
  double tolerance = 0.0;  ///< broken when f < s - tolerance
  /// Quorum for degraded-mode detection: a window whose surviving-edge
  /// coverage falls below this fraction emits no verdict (degraded flag set,
  /// score forced to 0.0). Only consulted when a health mask is supplied.
  double min_coverage = 0.5;
  text::BleuOptions bleu{};  ///< sentence-BLEU options (smoothing on)
  /// Edge-scoring threads (0 = hardware concurrency). The pool is created
  /// once per AnomalyDetector, not per detect() call.
  std::size_t threads = 0;
};

/// Throws PreconditionError unless valid_lo <= valid_hi and min_coverage
/// lies in [0, 1].
void validate(const DetectorConfig& config);

/// Algorithm 2's valid-model predicate: s(i,j) in [valid_lo, valid_hi).
inline bool in_valid_band(const DetectorConfig& config, double s) {
  return s >= config.valid_lo && s < config.valid_hi;
}

/// Algorithm 2's broken rule: f(i,j) < s(i,j) - tolerance.
inline bool is_broken(const DetectorConfig& config, double f, double s) {
  return f < s - config.tolerance;
}

/// The health exclusion as per-sensor flags: `sensors` entries, 1 for every
/// node listed in `unhealthy` (empty when none is). Throws
/// PreconditionError when a node is >= sensors.
std::vector<std::uint8_t> unhealthy_flags(
    const std::vector<std::size_t>& unhealthy, std::size_t sensors);

/// True when edge src -> dst leaves the window's valid set: an endpoint is
/// flagged unhealthy. Empty flags exclude nothing.
inline bool is_excluded(const std::vector<std::uint8_t>& flags,
                        std::size_t src, std::size_t dst) {
  return !flags.empty() && (flags[src] != 0 || flags[dst] != 0);
}

/// Algorithm 2's decision on one window.
struct WindowVerdict {
  double anomaly_score = 0.0;  ///< a_t; placeholder 0.0 when degraded
  double coverage = 0.0;       ///< surviving / total valid edges
  bool degraded = false;       ///< below the min_coverage quorum: no verdict
};

/// The verdict on a window with `total` valid edges, of which `surviving`
/// were scored (neither excluded nor failed) and `broken` of those broke
/// (is_broken). The quorum applies only when `quorum` is set — a health mask
/// is in force or an edge failed to score; strict windows always get a
/// verdict. With no valid or no surviving edges coverage / a_t are 0.
WindowVerdict window_verdict(const DetectorConfig& config, std::size_t total,
                             std::size_t surviving, std::size_t broken,
                             bool quorum);

/// Per-window exclusion mask for degraded-mode detection: mask[t] holds the
/// sensor node indices (graph indexing) considered unhealthy at window t.
using HealthMask = std::vector<std::vector<std::size_t>>;

struct DetectionResult {
  /// Anomaly score a_t per test window, in [0, 1]. For a degraded window
  /// (see `degraded`) the score is a placeholder 0.0 — no verdict, not
  /// "no anomaly".
  std::vector<double> anomaly_scores;
  /// W_t: per window, the indices (into valid_edges) of broken edges.
  /// Edges excluded by the health mask are never listed.
  std::vector<std::vector<std::size_t>> broken_edges;
  /// The valid edges used (src, dst, training BLEU; models not retained).
  std::vector<MvrEdge> valid_edges;
  /// f(i,j) per valid edge per window: edge_bleu[e][t]. Stays 0.0 for
  /// (edge, window) pairs excluded by the health mask (never scored).
  std::vector<std::vector<double>> edge_bleu;
  /// Surviving valid edges / total valid edges per window (1.0 when no
  /// health mask excluded anything; 0.0 when there are no valid edges).
  std::vector<double> coverage;
  /// 1 when the window's coverage fell below DetectorConfig::min_coverage
  /// (degraded-mode runs only; always 0 without a health mask).
  std::vector<std::uint8_t> degraded;
};

/// Per-call options for AnomalyDetector::detect. A struct rather than bare
/// defaulted pointer arguments so call sites stay readable and future knobs
/// don't multiply overloads.
struct DetectOptions {
  /// Per-window exclusion mask for degraded-mode detection; must hold one
  /// entry per window when set. Null = strict scoring (no exclusions, the
  /// degraded quorum never fires). The pointed-to mask must outlive the
  /// detect() call.
  const HealthMask* unhealthy = nullptr;
};

class AnomalyDetector {
 public:
  /// `graph` must carry trained models on its edges, every valid edge of a
  /// sensor on the sensor's one vocabulary (robust::VocabularyMismatch
  /// otherwise). Spawns the scoring pool unless config.threads == 1 or at
  /// most one edge is valid.
  AnomalyDetector(const MvrGraph& graph, DetectorConfig config);

  /// Algorithm 2 on encoded windows: `corpora[k]` holds sensor node k's
  /// sentences (same node indexing as the graph), encoded against
  /// vocabulary(k) at a max_order of at least config().bleu.max_order, and
  /// every corpus one entry per window (robust::MisalignedCorpus naming the
  /// offending sensor otherwise). Zero windows give an empty result. With
  /// DetectOptions::unhealthy set, edges incident to a listed sensor are
  /// excluded from that window and a_t is renormalized over the survivors
  /// (see DetectionResult::coverage). Each edge scores each of its
  /// distinct (source, reference) sentence pairs once, over the windows
  /// the health mask leaves it, and hands f(i,j) to every such window.
  /// Decoding runs the graph's models in place and fills the decode memos,
  /// so calls that share a model or a memo must not overlap
  /// (Framework::detect takes turns for its own).
  DetectionResult detect(const std::vector<EncodedCorpus>& corpora,
                         const DetectOptions& options) const;

  /// The vocabulary sensor node k's sentences are encoded against; null
  /// when no valid edge touches k (its sentences are never scored).
  const text::Vocabulary* vocabulary(std::size_t k) const {
    return k < vocabs_.size() ? vocabs_[k].get() : nullptr;
  }
  /// Sensor nodes of the graph the detector was built over.
  std::size_t sensor_count() const { return names_.size(); }
  const DetectorConfig& config() const { return config_; }
  std::size_t valid_model_count() const { return valid_edges_.size(); }
  const std::vector<MvrEdge>& valid_edges() const { return valid_edges_; }
  /// The scoring pool (null when scoring runs on the calling thread).
  util::ThreadPool* pool() const { return pool_.get(); }

 private:
  struct Memos;

  DetectorConfig config_;
  std::vector<MvrEdge> valid_edges_;  ///< edges within the valid band
  std::vector<std::string> names_;    ///< sensor names, graph node indexing
  SensorVocabularies vocabs_;         ///< of the valid edges' sensors
  /// Edge-scoring pool (null = score on the calling thread). Shared by
  /// copies; ThreadPool::parallel_for is safe for concurrent callers.
  std::shared_ptr<util::ThreadPool> pool_;
  /// One decode memo per valid edge, for the detector's life. Shared by
  /// copies, like the models it memoises.
  std::shared_ptr<Memos> memos_;
};

}  // namespace desmine::core
