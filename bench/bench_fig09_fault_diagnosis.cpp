// Figure 9 — fault diagnosis with local subgraphs on the two anomalous days:
// broken relationships localize the fault to sensor clusters.
//
// Paper: on Nov 21 two clusters are problematic (localized anomaly); on
// Nov 28 almost all relationships break (severe, system-wide anomaly).
#include <iostream>

#include "common.h"
#include "core/anomaly.h"
#include "core/diagnosis.h"
#include "util/strings.h"
#include "util/table.h"

namespace db = desmine::bench;
namespace dc = desmine::core;
namespace dd = desmine::data;
namespace du = desmine::util;

int main() {
  std::cout << "=== Figure 9: fault diagnosis on anomalous days ===\n";
  const dd::PlantDataset plant = dd::generate_plant(db::mini_plant_config());
  const auto fw = db::plant_framework(plant);
  const auto& g = fw.graph();

  // Wide valid band so intra-cluster edges are available for localization;
  // the paper diagnoses on the local subgraph of the detection band.
  dc::DetectorConfig cfg = fw.config().detector;
  cfg.valid_lo = 60.0;
  cfg.valid_hi = 100.5;
  const dc::AnomalyDetector detector(g, cfg);

  const std::size_t first_test_day = db::kPlantTrainDays + db::kPlantDevDays;
  const std::size_t test_days = plant.days - first_test_day;
  const auto result = detector.detect(
      fw.encode(plant.days_slice(first_test_day, test_days), detector), {});
  const std::size_t windows_per_day = result.anomaly_scores.size() / test_days;

  // Local subgraph for clustering: same band minus popular sensors.
  const auto band = g.filter_bleu(60.0, 100.5);
  const auto local = band.without_sensors(
      band.popular_sensors(db::popular_threshold(g.sensor_count())));
  dc::DiagnosisConfig dcfg;
  dcfg.faulty_threshold = 0.3;
  const dc::FaultDiagnoser diagnoser(local, dcfg);

  for (const auto& anomaly : plant.anomalies) {
    const std::size_t day_offset = anomaly.day - first_test_day;
    // Worst window of the anomalous day.
    std::size_t worst = day_offset * windows_per_day;
    for (std::size_t w = worst; w < (day_offset + 1) * windows_per_day; ++w) {
      if (result.anomaly_scores[w] > result.anomaly_scores[worst]) worst = w;
    }
    const auto diag = diagnoser.diagnose(result, worst);

    std::cout << "\nday " << anomaly.day + 1 << " ("
              << (anomaly.components.empty()
                      ? "system-wide anomaly"
                      : "anomaly in components " +
                            [&] {
                              std::string s;
                              for (std::size_t c : anomaly.components) {
                                s += "c" + std::to_string(c) + " ";
                              }
                              return s;
                            }())
              << "), worst window score "
              << du::fixed(result.anomaly_scores[worst], 3) << ":\n";

    du::Table t({"cluster", "sensors", "broken/total edges", "fraction",
                 "faulty?"});
    for (std::size_t c = 0; c < diag.clusters.size(); ++c) {
      const auto& cluster = diag.clusters[c];
      if (cluster.sensors.empty()) continue;
      std::vector<std::string> names;
      for (std::size_t v : cluster.sensors) names.push_back(g.name(v));
      const bool faulty = std::find(diag.faulty.begin(), diag.faulty.end(),
                                    c) != diag.faulty.end();
      t.add_row({std::to_string(c), du::join(names, " "),
                 std::to_string(cluster.edges_broken) + "/" +
                     std::to_string(cluster.edges_total),
                 du::fixed(cluster.broken_fraction(), 2),
                 faulty ? "YES" : ""});
    }
    std::cout << t.to_text();
    std::cout << "  overall broken fraction: "
              << du::fixed(diag.overall_broken_fraction, 3) << "\n";
  }

  db::expectation("localized anomaly (day 21)",
                  "a subset of clusters circled as faulty (Fig. 9a)",
                  "faulty clusters contain the disturbed components c0/c1");
  db::expectation("severe anomaly (day 28)",
                  "almost all relationships broken (Fig. 9b)",
                  "higher overall broken fraction; most clusters faulty");
  return 0;
}
