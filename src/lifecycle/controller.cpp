#include "lifecycle/controller.h"

#include <cmath>
#include <utility>

#include "core/encryption.h"
#include "io/serialize.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/error.h"

namespace desmine::lifecycle {

LifecycleController::LifecycleController(const core::Framework& framework,
                                         LifecycleConfig config)
    : config_(std::move(config)),
      framework_(framework),
      monitor_(framework_.graph(), framework_.config().detector,
               config_.drift) {
  DESMINE_EXPECTS(framework.fitted(),
                  "lifecycle needs a fitted (mined) framework");
}

LifecycleController::PeriodReport LifecycleController::observe(
    const core::MultivariateSeries& period) {
  const obs::ScopedTimer timer("lifecycle.observe");
  const core::DetectionResult detection = framework_.detect(period);
  DESMINE_ENSURES(detection.valid_edges.size() == monitor_.edge_count(),
                  "detection valid edges disagree with the drift monitor");
  const std::size_t windows = detection.anomaly_scores.size();

  // Per-edge aggregates: mean live f(i, j) and broken fraction across the
  // period's windows.
  std::vector<EdgeObservation> observations(monitor_.edge_count());
  if (windows > 0) {
    for (std::size_t e = 0; e < observations.size(); ++e) {
      double sum = 0.0;
      for (std::size_t t = 0; t < windows; ++t) {
        sum += detection.edge_bleu[e][t];
      }
      observations[e].bleu = sum / static_cast<double>(windows);
    }
    for (const std::vector<std::size_t>& broken : detection.broken_edges) {
      for (std::size_t e : broken) observations[e].break_rate += 1.0;
    }
    for (EdgeObservation& obs : observations) {
      obs.break_rate /= static_cast<double>(windows);
    }
  }

  // Per-sensor <unk> rates from the encoded character streams.
  const std::vector<std::string> encoded =
      framework_.encrypter().encode_all(period);
  std::vector<double> sensor_unk(encoded.size(), 0.0);
  for (std::size_t k = 0; k < encoded.size(); ++k) {
    if (encoded[k].empty()) continue;
    std::size_t unknown = 0;
    for (char c : encoded[k]) {
      if (c == core::SensorEncrypter::kUnknownChar) ++unknown;
    }
    sensor_unk[k] = static_cast<double>(unknown) /
                    static_cast<double>(encoded[k].size());
  }

  monitor_.observe(observations, sensor_unk);

  PeriodReport report;
  report.windows = windows;
  if (windows > 0) {
    double sum = 0.0;
    for (double s : detection.anomaly_scores) sum += s;
    report.mean_score = sum / static_cast<double>(windows);
  }
  report.drifting = monitor_.count(DriftState::kDrifting);
  report.drifted = monitor_.count(DriftState::kDrifted);
  return report;
}

std::vector<core::SensorLanguage> LifecycleController::languages(
    const core::MultivariateSeries& train,
    const core::MultivariateSeries& dev) const {
  const std::vector<text::Corpus> train_corpora = framework_.to_corpora(train);
  const std::vector<text::Corpus> dev_corpora = framework_.to_corpora(dev);
  const std::vector<std::string>& names = framework_.graph().sensor_names();
  DESMINE_ENSURES(train_corpora.size() == names.size() &&
                      dev_corpora.size() == names.size(),
                  "corpora misaligned with the graph's sensor nodes");
  std::vector<core::SensorLanguage> langs(names.size());
  for (std::size_t k = 0; k < names.size(); ++k) {
    langs[k].name = names[k];
    langs[k].train = train_corpora[k];
    langs[k].dev = dev_corpora[k];
  }
  return langs;
}

LifecycleController::CandidateReport LifecycleController::build_candidate(
    const core::MultivariateSeries& train,
    const core::MultivariateSeries& dev, const std::string& path) {
  const std::vector<std::pair<std::size_t, std::size_t>> drifted =
      monitor_.drifted_pairs();
  DESMINE_EXPECTS(!drifted.empty(),
                  "no drifted edges — nothing to retrain");
  const obs::ScopedTimer timer("lifecycle.candidate",
                               {obs::kv("drifted", drifted.size())});

  IncrementalRetrainer retrainer(config_.retrain,
                                 framework_.config().miner.translation);
  CandidateReport report;
  report.edges_total = framework_.graph().edges().size();
  const core::MvrGraph candidate = retrainer.retrain(
      framework_.graph(), languages(train, dev), drifted, &report.retrain);

  // Persist the candidate as a whole-framework artifact: CRC-trailed and
  // temp+fsync+renamed, so serve::begin_shadow either sees the complete
  // candidate or the previous file — never a torn write.
  core::Framework fw(framework_.config());
  fw.restore(framework_.encrypter(), candidate);
  io::save_framework(fw, path);
  report.path = path;

  DESMINE_LOG_INFO(
      "candidate artifact written",
      {obs::kv("path", path), obs::kv("drifted", drifted.size()),
       obs::kv("retrained", report.retrain.retrained),
       obs::kv("failed", report.retrain.failed),
       obs::kv("edges_total", report.edges_total)});
  return report;
}

}  // namespace desmine::lifecycle
