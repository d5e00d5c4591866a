// Disk-failure prediction — the paper's case study II in miniature:
// continuous SMART features are discretized (§IV-C), a relationship graph is
// mined over the feature "sensors", and failing drives are flagged by sharp
// anomaly-score increases before their failure date.
//
//   $ ./disk_failure
#include <iostream>

#include "core/framework.h"
#include "data/smart.h"
#include "util/strings.h"

using namespace desmine;

int main() {
  data::SmartConfig smart_cfg;
  smart_cfg.num_drives = 10;
  smart_cfg.days = 90;
  smart_cfg.failure_fraction = 0.3;
  smart_cfg.degradation_days = 10;
  smart_cfg.failure_window_days = 30;
  smart_cfg.seed = 77;
  const data::SmartDataset smart = data::generate_smart(smart_cfg);

  // Discretize per feature on the first 2 months (§IV-C schemes).
  const std::size_t train_days = 45, dev_days = 15;
  const auto discretizers = data::fit_discretizers(smart, train_days);
  std::cout << "discretized " << discretizers.size()
            << " SMART features (binary for zero-inflated error counters, "
               "quintiles otherwise)\n";

  // Pool training/dev sentences across drives. To keep the demo fast we
  // mine over the 6 failure-relevant features only; the benches use all 16.
  const std::vector<int> features = {5, 9, 187, 192, 197, 198};
  core::FrameworkConfig cfg;
  cfg.window = {5, 1, 7, 1};  // word=5 days, sentence=7 words (§IV-C)
  cfg.miner.translation.model.embedding_dim = 16;
  cfg.miner.translation.model.hidden_dim = 16;
  cfg.miner.translation.model.num_layers = 1;
  cfg.miner.translation.model.dropout = 0.0f;
  cfg.miner.translation.model.max_decode_length = 9;
  cfg.miner.translation.trainer.steps = 200;
  cfg.miner.translation.trainer.batch_size = 8;
  cfg.miner.seed = 9;
  cfg.detector.valid_lo = 0.0;
  cfg.detector.valid_hi = 100.5;
  cfg.detector.tolerance = 10.0;

  std::map<int, core::Discretizer> selected;
  for (int id : features) selected.emplace(id, discretizers.at(id));

  // Build pooled language corpora (aligned within each drive).
  core::MultivariateSeries pooled;
  for (const auto& drive : smart.drives) {
    auto series = core::slice(data::drive_to_series(smart, drive, selected),
                              0, train_days);
    if (pooled.empty()) {
      pooled = series;
    } else {
      for (std::size_t k = 0; k < pooled.size(); ++k) {
        pooled[k].events.insert(pooled[k].events.end(),
                                series[k].events.begin(),
                                series[k].events.end());
      }
    }
  }
  core::MultivariateSeries pooled_dev;
  for (const auto& drive : smart.drives) {
    auto series =
        core::slice(data::drive_to_series(smart, drive, selected), train_days,
                    train_days + dev_days);
    if (pooled_dev.empty()) {
      pooled_dev = series;
    } else {
      for (std::size_t k = 0; k < pooled_dev.size(); ++k) {
        pooled_dev[k].events.insert(pooled_dev[k].events.end(),
                                    series[k].events.begin(),
                                    series[k].events.end());
      }
    }
  }

  std::cout << "mining the feature relationship graph...\n";
  core::Framework framework(cfg);
  framework.fit(pooled, pooled_dev);
  std::cout << "  " << framework.graph().edges().size()
            << " directional models over " << features.size()
            << " features\n\n";

  // Per-drive detection over the final month.
  std::cout << "per-drive anomaly trajectories (final month):\n";
  std::size_t detected = 0, failures = 0;
  for (const auto& drive : smart.drives) {
    const auto series = data::drive_to_series(smart, drive, selected);
    const auto tail =
        core::slice(series, train_days + dev_days, drive.observed_days());
    const auto result = framework.detect(tail);
    bool sharp = false;
    for (std::size_t t = 1; t < result.anomaly_scores.size(); ++t) {
      sharp |= result.anomaly_scores[t] - result.anomaly_scores[t - 1] >= 0.3;
    }
    std::cout << "  " << drive.serial
              << (drive.failed ? " [FAILED] " : " [healthy]") << " scores: ";
    for (double s : result.anomaly_scores) {
      std::cout << util::fixed(s, 2) << " ";
    }
    std::cout << (sharp ? " <- sharp increase" : "") << "\n";
    if (drive.failed) {
      ++failures;
      detected += sharp ? 1 : 0;
    }
  }
  std::cout << "\nrecall on failed drives: " << detected << "/" << failures
            << "\n";
  return 0;
}
