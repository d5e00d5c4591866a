#include "serve/shadow_scorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/edge_scorer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "robust/fault_injector.h"
#include "util/error.h"

namespace desmine::serve {

namespace {

std::string edge_name(std::size_t src, std::size_t dst) {
  return std::to_string(src) + "->" + std::to_string(dst);
}

}  // namespace

ShadowScorer::ShadowScorer(std::shared_ptr<const ModelGeneration> candidate,
                           ShadowConfig config, std::string source_path)
    : candidate_(std::move(candidate)),
      config_(config),
      path_(std::move(source_path)),
      stride_(config.sample_rate >= 1.0
                  ? 1
                  : static_cast<std::size_t>(std::max(
                        1.0, std::round(1.0 / std::max(1e-9,
                                                       config.sample_rate))))) {
  DESMINE_EXPECTS(candidate_ != nullptr, "shadow needs a candidate generation");
  DESMINE_EXPECTS(config_.sample_rate > 0.0, "sample_rate must be positive");
  DESMINE_EXPECTS(!candidate_->edges.empty(),
                  "candidate generation has no valid-band edges");
  memos_.resize(candidate_->edges.size());
}

bool ShadowScorer::admit(const PendingWindow& window) {
  if (window.shed) return false;  // no score to mirror
  std::lock_guard lock(mu_);
  if (sealed_) return false;
  const bool take = (observed_ % stride_) == 0;
  ++observed_;
  return take;
}

void ShadowScorer::observe(ShadowSample sample) {
  std::lock_guard lock(mu_);
  if (sealed_) return;

  // Candidate scoring with the semantics the candidate would serve with:
  // health-masked edges excluded, failed decodes excluded, and the verdict
  // (renormalization and quorum) of core::window_verdict.
  const core::DetectorConfig& detector = candidate_->detector;
  const std::vector<std::uint8_t> bad =
      core::unhealthy_flags(sample.unhealthy, sample.spans.sensors());
  // The candidate scores on its own vocabularies, which a retrain may have
  // left different from the active generation's.
  const std::vector<core::EncodedSentence> encoded =
      encode_window(*candidate_, sample.spans);
  const core::EdgeScorer scorer({});
  std::size_t surviving = 0;
  std::size_t broken = 0;
  bool any_failed = false;
  obs::Counter& decoded = obs::metrics().counter("serve.shadow.decoded");
  for (std::size_t i = 0; i < candidate_->edges.size(); ++i) {
    const EdgeModel& edge = candidate_->edges[i];
    if (core::is_excluded(bad, edge.src, edge.dst)) continue;
    try {
      switch (robust::fire_fault("serve.shadow", edge_name(edge.src,
                                                           edge.dst))) {
        case robust::FaultAction::kThrow:
        case robust::FaultAction::kDiverge:
        case robust::FaultAction::kAbort:
          throw RuntimeError("injected serve.shadow fault");
        case robust::FaultAction::kDrop:
          continue;  // edge silently excluded from this sample
        case robust::FaultAction::kDelay:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(robust::kDelayMillis));
          break;
        default:
          break;
      }
      const core::EdgeScorer::Result r =
          scorer.score([&edge] { return edge.acquire(); },
                       {&encoded[edge.src]}, {&encoded[edge.dst]},
                       &memos_[i]);
      decoded.inc(r.decoded);
      const double f = r.bleu.front();
      ++surviving;
      if (core::is_broken(detector, f, edge.train_bleu)) ++broken;
    } catch (const std::exception& e) {
      any_failed = true;
      obs::metrics().counter("serve.shadow.edge_failures").inc();
      DESMINE_LOG_WARN("shadow candidate edge failed",
                       {obs::kv("edge", edge_name(edge.src, edge.dst)),
                        obs::kv("error", e.what())});
    }
  }
  const double candidate_score =
      core::window_verdict(detector, candidate_->edges.size(), surviving,
                           broken, sample.masked || any_failed)
          .anomaly_score;

  ++sampled_;
  if (any_failed) ++failures_;
  candidate_sum_ += candidate_score;
  active_sum_ += sample.active_score;
  const bool cand_alert = candidate_score >= config_.alert_threshold;
  const bool active_alert = sample.active_score >= config_.alert_threshold;
  if (cand_alert) ++candidate_alerts_;
  if (active_alert) ++active_alerts_;
  if (cand_alert == active_alert) ++agreements_;

  obs::metrics().counter("serve.shadow.windows").inc();
  if (cand_alert) obs::metrics().counter("serve.shadow.alerts").inc();
  if (any_failed) obs::metrics().counter("serve.shadow.failures").inc();
  if (cand_alert == active_alert) {
    obs::metrics().counter("serve.shadow.agreements").inc();
  } else {
    obs::metrics().counter("serve.shadow.disagreements").inc();
  }
  obs::metrics().gauge("serve.shadow.agreement")
      .set(sampled_ == 0 ? 0.0
                         : static_cast<double>(agreements_) /
                               static_cast<double>(sampled_));
}

void ShadowScorer::seal() {
  std::lock_guard lock(mu_);
  sealed_ = true;
}

ShadowScorer::Status ShadowScorer::status() const {
  std::lock_guard lock(mu_);
  Status s;
  s.path = path_;
  s.candidate_id = candidate_->id;
  s.observed = observed_;
  s.sampled = sampled_;
  s.candidate_alerts = candidate_alerts_;
  s.active_alerts = active_alerts_;
  s.agreements = agreements_;
  s.failures = failures_;
  s.candidate_mean =
      sampled_ == 0 ? 0.0 : candidate_sum_ / static_cast<double>(sampled_);
  s.active_mean =
      sampled_ == 0 ? 0.0 : active_sum_ / static_cast<double>(sampled_);
  return s;
}

bool ShadowScorer::gate_passed() const {
  std::lock_guard lock(mu_);
  return gate_failure_locked().empty();
}

std::string ShadowScorer::gate_reason() const {
  std::lock_guard lock(mu_);
  std::string failure = gate_failure_locked();
  return failure.empty() ? "gate passed" : failure;
}

std::string ShadowScorer::gate_failure_locked() const {
  if (sampled_ < config_.min_windows) {
    return "insufficient shadow volume (" + std::to_string(sampled_) + "/" +
           std::to_string(config_.min_windows) + " windows)";
  }
  if (failures_ > config_.max_failures) {
    return "candidate decode failures (" + std::to_string(failures_) + " > " +
           std::to_string(config_.max_failures) + ")";
  }
  const double alert_rate = static_cast<double>(candidate_alerts_) /
                            static_cast<double>(sampled_);
  if (alert_rate > config_.max_alert_rate) {
    return "candidate alert rate " + std::to_string(alert_rate) +
           " exceeds max_alert_rate " + std::to_string(config_.max_alert_rate);
  }
  if (config_.min_agreement > 0.0) {
    const double agreement = static_cast<double>(agreements_) /
                             static_cast<double>(sampled_);
    if (agreement < config_.min_agreement) {
      return "agreement " + std::to_string(agreement) +
             " below min_agreement " + std::to_string(config_.min_agreement);
    }
  }
  return {};
}

}  // namespace desmine::serve
