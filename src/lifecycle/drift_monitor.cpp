#include "lifecycle/drift_monitor.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "util/error.h"

namespace desmine::lifecycle {

const char* to_string(DriftState state) {
  switch (state) {
    case DriftState::kStable:
      return "stable";
    case DriftState::kDrifting:
      return "drifting";
    case DriftState::kDrifted:
      return "drifted";
  }
  return "unknown";
}

DriftMonitor::DriftMonitor(const core::MvrGraph& graph,
                           const core::DetectorConfig& detector,
                           DriftConfig config)
    : config_(config) {
  DESMINE_EXPECTS(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
                  "ewma_alpha must lie in (0, 1]");
  DESMINE_EXPECTS(config_.hysteresis > 0, "hysteresis must be >= 1");
  DESMINE_EXPECTS(config_.drifting_drop <= config_.drifted_drop,
                  "drifting_drop must not exceed drifted_drop");
  for (const core::MvrEdge& edge : graph.edges()) {
    if (!core::in_valid_band(detector, edge.bleu)) continue;
    EdgeDrift e;
    e.src = edge.src;
    e.dst = edge.dst;
    e.baseline = edge.bleu;
    e.ewma_bleu = edge.bleu;  // start at the mined baseline (zero deficit)
    edges_.push_back(e);
  }
  target_.assign(edges_.size(), DriftState::kStable);
  streak_.assign(edges_.size(), 0);
  sensor_unk_.assign(graph.sensor_count(),
                     std::numeric_limits<double>::quiet_NaN());
  obs::metrics().gauge("lifecycle.drift.stable")
      .set(static_cast<double>(edges_.size()));
  obs::metrics().gauge("lifecycle.drift.drifting").set(0.0);
  obs::metrics().gauge("lifecycle.drift.drifted").set(0.0);
}

void DriftMonitor::observe(const std::vector<EdgeObservation>& edges,
                           const std::vector<double>& sensor_unk) {
  DESMINE_EXPECTS(edges.size() == edges_.size(),
                  "edge observations must align with the monitored edges");
  DESMINE_EXPECTS(sensor_unk.empty() || sensor_unk.size() == sensor_unk_.size(),
                  "sensor_unk must cover every sensor node (or be empty)");
  const double a = config_.ewma_alpha;
  for (std::size_t k = 0; k < sensor_unk.size(); ++k) {
    sensor_unk_[k] = std::isnan(sensor_unk_[k])
                         ? sensor_unk[k]
                         : (1.0 - a) * sensor_unk_[k] + a * sensor_unk[k];
  }
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    EdgeDrift& e = edges_[i];
    const EdgeObservation& obs = edges[i];
    if (!std::isnan(obs.bleu)) {
      e.ewma_bleu = (1.0 - a) * e.ewma_bleu + a * obs.bleu;
      e.ewma_break_rate =
          (1.0 - a) * e.ewma_break_rate + a * obs.break_rate;
      ++e.observations;
    }
    const double src_unk = sensor_unk_[e.src];
    const double dst_unk = sensor_unk_[e.dst];
    e.unk_rate = std::max(std::isnan(src_unk) ? 0.0 : src_unk,
                          std::isnan(dst_unk) ? 0.0 : dst_unk);

    const double deficit = e.baseline - e.ewma_bleu;
    DriftState target = DriftState::kStable;
    if (deficit >= config_.drifted_drop) {
      target = DriftState::kDrifted;
    } else if (deficit >= config_.drifting_drop ||
               e.ewma_break_rate >= config_.break_rate ||
               e.unk_rate >= config_.max_unk_rate) {
      target = DriftState::kDrifting;
    }

    // Hysteresis: only a streak of `hysteresis` consecutive periods agreeing
    // on the same new verdict commits a transition (and never before
    // min_observations real scores have accumulated).
    if (target == e.state) {
      streak_[i] = 0;
      target_[i] = target;
      continue;
    }
    streak_[i] = (target == target_[i]) ? streak_[i] + 1 : 1;
    target_[i] = target;
    if (streak_[i] >= config_.hysteresis &&
        e.observations >= config_.min_observations) {
      e.state = target;
      streak_[i] = 0;
    }
  }
  obs::metrics().gauge("lifecycle.drift.stable")
      .set(static_cast<double>(count(DriftState::kStable)));
  obs::metrics().gauge("lifecycle.drift.drifting")
      .set(static_cast<double>(count(DriftState::kDrifting)));
  obs::metrics().gauge("lifecycle.drift.drifted")
      .set(static_cast<double>(count(DriftState::kDrifted)));
}

std::vector<std::pair<std::size_t, std::size_t>> DriftMonitor::drifted_pairs()
    const {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const EdgeDrift& e : edges_) {
    if (e.state == DriftState::kDrifted) pairs.emplace_back(e.src, e.dst);
  }
  return pairs;
}

std::size_t DriftMonitor::count(DriftState state) const {
  std::size_t n = 0;
  for (const EdgeDrift& e : edges_) {
    if (e.state == state) ++n;
  }
  return n;
}

}  // namespace desmine::lifecycle
