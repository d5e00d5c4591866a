// Shared setup for the benchmark harness.
//
// Every bench binary regenerates one table or figure of the paper. The
// expensive artifact — the mined multivariate relationship graph with its
// hundreds of trained NMT models — is produced once and cached on disk via
// io::save_framework; whichever bench needs it first mines it, later benches
// reload it. All scales/settings used here are recorded in EXPERIMENTS.md.
//
// Scale note (see DESIGN.md §2): the paper's plant has 128 sensors sampled
// per minute for 30 days and trains 32.5k pair models on a cluster; this
// harness runs the same pipeline on a 17-sensor mini-plant with shorter days
// (240 min) and small NMT models so a 2-core container finishes in minutes.
#pragma once

#include <string>
#include <vector>

#include "core/framework.h"
#include "data/plant.h"
#include "data/smart.h"
#include "util/table.h"

namespace desmine::bench {

// ---- dataset scales ---------------------------------------------------------

/// Paper-scale plant for statistics-only benches (Figs. 2-3): 128 sensors,
/// 30 days x 1440 min, anomalies on days 21 & 28 (1-based).
data::PlantConfig full_plant_config();

/// Mining-scale plant for NMT benches: 17 sensors (12 component + 2 popular
/// + 2 lazy + 1 constant), 30 days x 240 min, same anomaly layout.
data::PlantConfig mini_plant_config();

/// SMART dataset for case study II: 24 drives x 120 days, failures in the
/// last month (the paper's train-2mo / dev-1mo / test-1mo split).
data::SmartConfig smart_config();

// ---- paper splits -----------------------------------------------------------

inline constexpr std::size_t kPlantTrainDays = 10;  // §III-A2
inline constexpr std::size_t kPlantDevDays = 3;
inline constexpr std::size_t kSmartTrainDays = 60;  // §IV-C (2 months)
inline constexpr std::size_t kSmartDevDays = 30;

// ---- pipeline configs -------------------------------------------------------

/// Window + NMT settings for the plant pipeline (mini scale).
core::FrameworkConfig plant_framework_config();

/// Window + NMT settings for the SMART pipeline (word=5, sentence=7,
/// strides 1, as in §IV-C).
core::FrameworkConfig smart_framework_config();

/// Popular-sensor in-degree threshold, scaled from the paper's 100-of-127
/// (~79% of potential sources) to the given graph size.
std::size_t popular_threshold(std::size_t sensor_count);

// ---- cached artifacts -------------------------------------------------------

/// Fitted plant framework: loads bench_artifacts/plant_mvrg.bin or mines it
/// (train days 0-9, dev days 10-12) and saves it.
core::Framework plant_framework(const data::PlantDataset& plant);

/// Fitted SMART framework over per-feature languages pooled across drives.
core::Framework smart_framework(const data::SmartDataset& smart);

/// Per-window anomaly scores of one drive from `from_day` to its last
/// observed day, using the given valid-model band.
std::vector<double> smart_drive_scores(const core::Framework& fw,
                                       const data::SmartDataset& smart,
                                       const data::DriveRecord& drive,
                                       std::size_t from_day,
                                       const core::DetectorConfig& detector);

/// The paper's disk-failure criterion: a sharp increase (>= `jump`) between
/// consecutive anomaly scores (§IV-D2 uses ~0.5 increments on daily scores).
bool sharp_increase(const std::vector<double>& scores, double jump);

// ---- output helpers ---------------------------------------------------------

/// Print a "paper expectation vs measured" line.
void expectation(const std::string& what, const std::string& paper,
                 const std::string& measured);

/// Render an empirical CDF as table rows (value, fraction).
void print_cdf(const std::string& title, const std::vector<double>& samples,
               const std::vector<double>& probe_values);

/// Directory where bench artifacts are cached.
std::string artifact_dir();

// ---- observability ----------------------------------------------------------

/// Turn on span tracing and raise logging to `level` for this bench process.
/// Call at the top of main, before any pipeline work.
void enable_observability(const std::string& level = "info");

/// Write the phase timings gathered while the bench ran:
///   bench_artifacts/BENCH_<name>_metrics.json  (metrics registry dump)
///   bench_artifacts/BENCH_<name>_trace.json    (chrome://tracing spans)
void dump_observability(const std::string& bench_name);

}  // namespace desmine::bench
