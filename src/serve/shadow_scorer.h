// Shadow scoring of a candidate model generation (DESIGN.md §14).
//
// Before a retrained candidate graph is promoted into serving, it must
// prove itself on live traffic without any client-visible effect. The
// ShadowScorer holds the candidate ModelGeneration and mirrors a sampled
// slice of delivered live windows: for each sampled window it encodes the
// window's character spans against the candidate's vocabularies
// (encode_window), scores them with the candidate's edge models, decides
// the window with the verdict serving uses (core::is_excluded,
// core::is_broken, core::window_verdict — quorum included), and
// accumulates a promotion gate:
//  * quietness — the fraction of sampled windows where the candidate's
//    anomaly score reaches `alert_threshold` must stay at or below
//    `max_alert_rate`. This is the core precision gate: a good candidate is
//    quiet on drifted-but-normal traffic, while during a true fault it
//    alerts heavily and the gate blocks promotion — the loop can never
//    promote a graph into masking a live anomaly.
//  * agreement — the fraction of sampled windows where candidate and active
//    alert verdicts match must reach `min_agreement` (0 disables; under
//    drift the active generation false-alarms, so demanding agreement with
//    it would block exactly the promotion the lifecycle exists for).
//  * volume & health — at least `min_windows` sampled windows, at most
//    `max_failures` windows with candidate decode failures.
//
// Client-visible output is untouched: sampling and candidate decoding run
// after the window's result was finalized and delivered, on the scoring
// worker that delivered it, serialized by the scorer's mutex (the candidate
// models are not thread-safe). The active side of each sample is the score
// Session::finalize delivered; a window whose session was already erased is
// never delivered and so never mirrored. `sample_rate` bounds the added
// decode load, and each candidate edge keeps a decode memo
// (core::DecodeCache) for the scorer's life, so a sample decodes only
// sources its edge has not seen — with the bits of a fresh decode.
// `serve.shadow.decoded` counts the decodes.
//
// Fault injection: point "serve.shadow" keyed by edge name "src->dst"
// (throw = candidate decode failure, drop = edge silently excluded,
// delay = stalled decode) — used by chaos tests to prove a poisoned
// candidate fails the gate instead of reaching the active generation.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/edge_scorer.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"

namespace desmine::serve {

struct ShadowConfig {
  /// Fraction of delivered windows mirrored to the candidate (deterministic
  /// 1-in-round(1/rate) stride; >= 1 mirrors every window).
  double sample_rate = 0.25;
  /// Sampled windows required before the gate can pass.
  std::size_t min_windows = 64;
  /// Anomaly score at or above this counts as an alert (both generations).
  double alert_threshold = 0.5;
  /// Max fraction of sampled windows where the candidate alerts.
  double max_alert_rate = 0.05;
  /// Min fraction of sampled windows where candidate and active verdicts
  /// agree (0 disables the agreement criterion).
  double min_agreement = 0.0;
  /// Max sampled windows with candidate decode failures.
  std::size_t max_failures = 0;
};

/// One mirrored window: the sentence characters and health mask copied out
/// of the PendingWindow before Session::finalize consumes it, and the ACTIVE
/// generation's anomaly score that finalize delivered.
struct ShadowSample {
  core::WindowSpans spans;              ///< per sensor node
  std::vector<std::size_t> unhealthy;   ///< node indices excluded
  bool masked = false;                  ///< degraded-mode semantics
  double active_score = 0.0;
};

class ShadowScorer {
 public:
  /// `candidate` is the generation under evaluation (its id must be the
  /// active generation's id + 1 at promote time); `source_path` names the
  /// artifact it was loaded from, for status reporting.
  ShadowScorer(std::shared_ptr<const ModelGeneration> candidate,
               ShadowConfig config, std::string source_path);

  /// Sampling decision for one window about to be delivered. Returns true
  /// when the window should be mirrored (observe); shed windows and windows
  /// arriving after seal() never sample. Thread-safe.
  bool admit(const PendingWindow& window);

  /// Score one admitted sample against the candidate generation and fold it
  /// into the gate. Never throws (a failing candidate edge is recorded, not
  /// propagated); serialized internally. No-op after seal().
  void observe(ShadowSample sample);

  /// Block until any in-flight observe() finishes, then refuse further
  /// samples. Called before the candidate's models are promoted into the
  /// scheduler (they are single-threaded; promotion must not race a decode).
  void seal();

  struct Status {
    std::string path;            ///< artifact the candidate came from
    std::uint64_t candidate_id = 0;
    std::size_t observed = 0;    ///< scoreable windows seen while armed
    std::size_t sampled = 0;     ///< windows mirrored to the candidate
    std::size_t candidate_alerts = 0;
    std::size_t active_alerts = 0;
    std::size_t agreements = 0;  ///< sampled windows with matching verdicts
    std::size_t failures = 0;    ///< sampled windows with failed cand edges
    double candidate_mean = 0.0; ///< mean candidate score over samples
    double active_mean = 0.0;    ///< mean active score over samples
    double alert_rate() const {
      return sampled == 0 ? 0.0
                          : static_cast<double>(candidate_alerts) /
                                static_cast<double>(sampled);
    }
    double agreement() const {
      return sampled == 0 ? 0.0
                          : static_cast<double>(agreements) /
                                static_cast<double>(sampled);
    }
  };
  Status status() const;

  /// True when every gate criterion currently holds.
  bool gate_passed() const;
  /// Human-readable reason the gate is (not) passing, for statusz/ops:
  /// the first failing criterion, or "gate passed".
  std::string gate_reason() const;

  const std::shared_ptr<const ModelGeneration>& candidate() const {
    return candidate_;
  }
  const ShadowConfig& config() const { return config_; }

 private:
  /// The first failing gate criterion, empty when the gate passes.
  std::string gate_failure_locked() const;

  const std::shared_ptr<const ModelGeneration> candidate_;
  const ShadowConfig config_;
  const std::string path_;
  const std::size_t stride_;

  mutable std::mutex mu_;
  bool sealed_ = false;
  std::size_t observed_ = 0;
  std::size_t sampled_ = 0;
  std::size_t candidate_alerts_ = 0;
  std::size_t active_alerts_ = 0;
  std::size_t agreements_ = 0;
  std::size_t failures_ = 0;
  double candidate_sum_ = 0.0;
  double active_sum_ = 0.0;
  /// One decode memo per candidate edge, for the candidate's life: a
  /// sample decodes only the sources its edge has not seen.
  std::vector<core::DecodeCache> memos_;
};

}  // namespace desmine::serve
