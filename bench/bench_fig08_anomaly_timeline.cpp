// Figure 8 — anomaly-score timeline over the 17-day test window for global
// subgraphs at BLEU [80,90) and [90,100].
//
// Paper: the [80,90) band cleanly detects the day-21 and day-28 anomalies
// (scores near 0.8, normal days below 0.2, early-warning spikes on the
// preceding days); the [90,100] band stays flat and useless because its
// targets are trivially translatable.
#include <iostream>

#include "common.h"
#include "core/anomaly.h"
#include "core/online.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace db = desmine::bench;
namespace dc = desmine::core;
namespace dd = desmine::data;
namespace du = desmine::util;

namespace {

void run_band(const dc::Framework& fw, const dd::PlantDataset& plant,
              double lo, double hi, const std::string& label) {
  dc::DetectorConfig cfg = fw.config().detector;
  cfg.valid_lo = lo;
  cfg.valid_hi = hi;
  const dc::AnomalyDetector detector(fw.graph(), cfg);
  std::cout << "band " << label << ": " << detector.valid_model_count()
            << " valid models\n";
  if (detector.valid_model_count() == 0) {
    std::cout << "  (no models in band; skipping)\n\n";
    return;
  }

  const std::size_t first_test_day = db::kPlantTrainDays + db::kPlantDevDays;
  const std::size_t test_days = plant.days - first_test_day;
  const auto result = detector.detect(
      fw.encode(plant.days_slice(first_test_day, test_days), detector), {});

  const std::size_t windows_per_day = result.anomaly_scores.size() / test_days;
  du::Table t({"day", "mean score", "max score", "label"});
  double normal_mean = 0.0, anomaly_mean = 0.0;
  std::size_t normal_n = 0, anomaly_n = 0;
  for (std::size_t d = 0; d < test_days; ++d) {
    std::vector<double> day_scores(
        result.anomaly_scores.begin() +
            static_cast<long>(d * windows_per_day),
        result.anomaly_scores.begin() +
            static_cast<long>((d + 1) * windows_per_day));
    const auto s = du::summarize(day_scores);
    const std::size_t abs_day = first_test_day + d;
    const bool anomalous = plant.is_anomalous_day(abs_day);
    t.add_row({std::to_string(abs_day + 1), du::fixed(s.mean, 3),
               du::fixed(s.max, 3),
               anomalous ? "ANOMALY (ground truth)" : ""});
    if (anomalous) {
      anomaly_mean += s.mean;
      ++anomaly_n;
    } else {
      normal_mean += s.mean;
      ++normal_n;
    }
  }
  std::cout << t.to_text("Fig 8: per-day anomaly scores, band " + label);
  if (anomaly_n > 0 && normal_n > 0) {
    std::cout << "  mean score on anomalous days: "
              << du::fixed(anomaly_mean / anomaly_n, 3)
              << " | on normal days: " << du::fixed(normal_mean / normal_n, 3)
              << " | separation: "
              << du::fixed((anomaly_mean / anomaly_n) -
                               (normal_mean / normal_n),
                           3)
              << "\n\n";
  }
}

/// Dropout variant (ISSUE 3): a healthy sensor starts emitting a state the
/// encrypter never saw (a plumbing fault, not a plant fault) for one normal
/// test day. Plain detection counts the sensor's broken pair models as
/// anomalies; degraded-mode detection floods the sensor out of the valid
/// set and keeps the normal day quiet.
void run_dropout(const dc::Framework& fw, const dd::PlantDataset& plant,
                 double lo, double hi) {
  dc::DetectorConfig cfg = fw.config().detector;
  cfg.valid_lo = lo;
  cfg.valid_hi = hi;
  cfg.min_coverage = 0.25;
  const dc::AnomalyDetector detector(fw.graph(), cfg);
  if (detector.valid_model_count() == 0) {
    std::cout << "dropout variant: no models in band; skipping\n\n";
    return;
  }

  const std::size_t first_test_day = db::kPlantTrainDays + db::kPlantDevDays;
  const std::size_t test_days = plant.days - first_test_day;
  dc::MultivariateSeries test = plant.days_slice(first_test_day, test_days);
  const std::size_t ticks = dc::series_length(test);
  const std::size_t per_day = ticks / test_days;

  // Fault a busy sensor across the first *normal* test day.
  std::size_t fault_day = 0;
  for (std::size_t d = 0; d < test_days; ++d) {
    if (!plant.is_anomalous_day(first_test_day + d)) {
      fault_day = d;
      break;
    }
  }
  const std::string victim = fw.encrypter().kept_sensors().front();
  for (auto& sensor : test) {
    if (sensor.name != victim) continue;
    for (std::size_t t = fault_day * per_day; t < (fault_day + 1) * per_day;
         ++t) {
      sensor.events[t] = "SENSOR_FAULT";  // unseen in training -> <unk>
    }
  }

  const auto corpora = fw.encode(test, detector);
  const auto plain = detector.detect(corpora, {});
  const dc::HealthMask mask = dc::window_health_mask(
      fw.encrypter(), fw.config().window, test, desmine::robust::HealthConfig{});
  const auto degraded =
      detector.detect(corpora, dc::DetectOptions{.unhealthy = &mask});

  const std::size_t windows_per_day = plain.anomaly_scores.size() / test_days;
  const auto day_mean = [&](const dc::DetectionResult& r, std::size_t d) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t w = d * windows_per_day; w < (d + 1) * windows_per_day;
         ++w) {
      if (r.degraded[w]) continue;  // no-verdict windows carry no score
      sum += r.anomaly_scores[w];
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  std::size_t degraded_windows = 0;
  double faultday_coverage = 0.0;
  for (std::size_t w = 0; w < degraded.degraded.size(); ++w) {
    if (degraded.degraded[w]) ++degraded_windows;
  }
  for (std::size_t w = fault_day * windows_per_day;
       w < (fault_day + 1) * windows_per_day; ++w) {
    faultday_coverage += degraded.coverage[w];
  }
  faultday_coverage /= static_cast<double>(windows_per_day);

  std::cout << "dropout variant: sensor '" << victim
            << "' floods (unseen states) on normal test day "
            << first_test_day + fault_day + 1 << "\n";
  du::Table t({"mode", "fault-day mean score", "fault-day coverage",
               "degraded windows"});
  t.add_row({"plain detect", du::fixed(day_mean(plain, fault_day), 3),
             du::fixed(1.0, 2), "0"});
  t.add_row({"degraded detect", du::fixed(day_mean(degraded, fault_day), 3),
             du::fixed(faultday_coverage, 2),
             std::to_string(degraded_windows)});
  std::cout << t.to_text("Fig 8 dropout variant, band [" + du::fixed(lo, 0) +
                         ", " + du::fixed(hi, 0) + ")");
  db::expectation(
      "degraded mode suppresses plumbing faults",
      "excluding the flooding sensor keeps the normal day's score near the "
      "other normal days instead of spiking on broken plumbing",
      "degraded-mode fault-day mean <= plain fault-day mean; coverage < 1 "
      "records what was excluded");
}

}  // namespace

int main() {
  std::cout << "=== Figure 8: anomaly detection timeline ===\n";
  db::enable_observability();
  const dd::PlantDataset plant = dd::generate_plant(db::mini_plant_config());
  const auto fw = db::plant_framework(plant);

  run_band(fw, plant, 80.0, 90.0, "[80, 90)");
  run_band(fw, plant, 90.0, 100.5, "[90, 100]");
  run_dropout(fw, plant, 80.0, 90.0);

  db::expectation("[80,90) band detects days 21 & 28",
                  "scores ~0.8 on anomalies, <0.2 normally, plus "
                  "early-warning spikes on preceding days",
                  "see per-day table: anomalous-day scores exceed normal-day "
                  "scores by a wide margin");
  db::expectation("[90,100] band fails",
                  "flat, too low to signal anomalies",
                  "smaller separation than [80,90) (trivially translatable "
                  "targets keep scoring high)");
  db::dump_observability("fig08");
  return 0;
}
