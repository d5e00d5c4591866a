// Ablation — which BLEU band of valid models detects best (§III-C).
//
// Paper: [80,90) is best; [90,100] fails (trivially translatable targets);
// weaker bands (<80) detect but with more false positives. We sweep the
// valid-model band and report anomalous-vs-normal score separation and a
// false-positive measure.
#include <iostream>

#include "common.h"
#include "core/anomaly.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace db = desmine::bench;
namespace dc = desmine::core;
namespace dd = desmine::data;
namespace du = desmine::util;

int main() {
  std::cout << "=== Ablation: detection quality per BLEU band ===\n";
  const dd::PlantDataset plant = dd::generate_plant(db::mini_plant_config());
  const auto fw = db::plant_framework(plant);

  const std::size_t first_test_day = db::kPlantTrainDays + db::kPlantDevDays;
  const std::size_t test_days = plant.days - first_test_day;
  const auto test = plant.days_slice(first_test_day, test_days);

  struct Band {
    double lo, hi;
    const char* label;
  };
  const Band bands[] = {{0, 60, "[0, 60)"},    {60, 70, "[60, 70)"},
                        {70, 80, "[70, 80)"},  {80, 90, "[80, 90)"},
                        {90, 100.5, "[90, 100]"}, {60, 100.5, "[60, 100]"}};

  du::Table t({"band", "valid models", "mean score anomalous days",
               "mean score normal days", "separation",
               "false-positive rate (normal windows > 0.3)"});
  for (const Band& band : bands) {
    dc::DetectorConfig cfg = fw.config().detector;
    cfg.valid_lo = band.lo;
    cfg.valid_hi = band.hi;
    const dc::AnomalyDetector detector(fw.graph(), cfg);
    if (detector.valid_model_count() == 0) {
      t.add_row({band.label, "0", "-", "-", "-", "-"});
      continue;
    }
    const auto result = detector.detect(fw.encode(test, detector), {});
    const std::size_t windows_per_day =
        result.anomaly_scores.size() / test_days;

    double anom = 0.0, norm = 0.0;
    std::size_t anom_n = 0, norm_n = 0, fp = 0;
    for (std::size_t d = 0; d < test_days; ++d) {
      const bool anomalous = plant.is_anomalous_day(first_test_day + d);
      for (std::size_t w = d * windows_per_day;
           w < (d + 1) * windows_per_day; ++w) {
        const double s = result.anomaly_scores[w];
        if (anomalous) {
          anom += s;
          ++anom_n;
        } else {
          norm += s;
          ++norm_n;
          fp += s > 0.3 ? 1 : 0;
        }
      }
    }
    anom /= static_cast<double>(anom_n);
    norm /= static_cast<double>(norm_n);
    t.add_row({band.label, std::to_string(detector.valid_model_count()),
               du::fixed(anom, 3), du::fixed(norm, 3),
               du::fixed(anom - norm, 3),
               du::fixed(static_cast<double>(fp) / norm_n, 3)});
  }
  std::cout << t.to_text();

  db::expectation("best band", "[80, 90)",
                  "strong separation with low false positives (see table; "
                  "the exact winner can shift at mini scale)");
  db::expectation("[90, 100]", "useless — scores too low to signal",
                  "smallest separation among populated bands");
  db::expectation("weak bands (<80)", "detect but with more false positives",
                  "false-positive column");
  return 0;
}
