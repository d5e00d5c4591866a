// desmine command-line tool.
//
// Subcommands:
//   generate --out plant.csv [--days N --minutes M --seed S]
//       Emit a synthetic plant series as CSV (for trying the tool offline).
//   train --train a.csv --dev b.csv --out model.bin [options]
//       Fit the framework (Algorithm 1) on CSV event series and save the
//       artifact.
//   detect --model model.bin --test c.csv [--lo L --hi H --tolerance T]
//       Score a CSV test series (Algorithm 2); prints one line per window.
//       Degraded-mode options (DESIGN.md §8): --degraded enables sensor
//       health tracking; unhealthy sensors are excluded per window, scores
//       renormalized over the survivors, and windows below --min-coverage
//       emit "no-verdict" instead of a fake score. --on-bad-row
//       throw|skip|quarantine selects the CSV tolerant mode; quarantined
//       rows are journaled to --quarantine FILE (default
//       <test>.quarantine.jsonl) and surface as missing ticks.
//   inspect --model model.bin [--lo L --hi H]
//       Print graph statistics (per-band edges, degrees, popular sensors).
//
// Observability options (any subcommand):
//   --log-level trace|debug|info|warn|error|off   (default info)
//   --log-json FILE       structured JSON-lines log in addition to stderr
//   --metrics-out FILE    dump the metrics registry as JSON on exit
//   --metrics-interval-s N  additionally re-write --metrics-out atomically
//                         every N seconds while the command runs
//   --trace-out FILE      record spans; dump chrome://tracing JSON on exit
//
// Exit codes (documented in README.md):
//   0    success
//   1    runtime failure (I/O error, corrupt artifact, ...)
//   2    usage error (unknown command, an option the command does not take,
//        bad/missing option, precondition)
//   3    training completed but some pairs permanently failed
//   4    detection completed degraded (some windows below the coverage
//        quorum emitted no verdict)
//   130  interrupted (SIGINT/SIGTERM); checkpoint and metrics are flushed
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "core/framework.h"
#include "data/plant.h"
#include "io/config_json.h"
#include "io/csv.h"
#include "io/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/errors.h"
#include "robust/interrupt.h"
#include "tensor/kernels.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

using namespace desmine;
using tools::Args;

namespace {

/// What one subcommand reads: options that take a value, and valueless
/// flags. Anything else on its command line is a usage error.
struct CommandOptions {
  std::set<std::string> options;
  std::set<std::string> flags;
};

const std::map<std::string, CommandOptions>& command_options() {
  static const std::map<std::string, CommandOptions> commands = [] {
    std::map<std::string, CommandOptions> m = {
        {"generate",
         {{"out", "days", "minutes", "seed", "components", "anomaly-day"}, {}}},
        {"train",
         {{"config", "kernels", "train", "dev", "out", "word", "word-stride",
           "sentence", "sentence-stride", "embedding", "hidden", "layers",
           "dropout", "steps", "batch", "lr", "seed", "threads", "checkpoint",
           "pair-timeout-s", "max-retries", "lo", "hi", "tolerance"},
          {"dump-config", "resume"}}},
        {"detect",
         {{"config", "kernels", "model", "test", "lo", "hi", "tolerance",
           "min-coverage", "on-bad-row", "max-bad-rows", "quarantine",
           "health-drop-after", "health-stale-after", "health-unk-rate",
           "health-unk-window", "health-readmit-after"},
          {"dump-config", "degraded"}}},
        {"inspect", {{"model", "lo", "hi"}, {}}},
    };
    for (auto& [name, command] : m) {
      command.options.insert({"log-level", "log-json", "metrics-out",
                              "metrics-interval-s", "trace-out"});
    }
    return m;
  }();
  return commands;
}

int cmd_generate(const Args& args) {
  data::PlantConfig cfg;
  cfg.days = args.count("days", std::size_t{10});
  cfg.minutes_per_day =
      args.count("minutes", std::size_t{240});
  cfg.seed = args.count<std::uint64_t>("seed", 7);
  cfg.num_components = args.count("components", std::size_t{3});
  cfg.sensors_per_component = 3;
  cfg.num_popular = 1;
  cfg.num_lazy = 2;
  cfg.num_constant = 1;
  cfg.anomalies.clear();
  if (!args.get_or("anomaly-day", "").empty()) {
    cfg.anomalies.push_back({args.count("anomaly-day", std::size_t{0}), {}});
  }
  const auto plant = data::generate_plant(cfg);
  io::write_series_csv(args.get("out"), plant.series);
  std::cout << "wrote " << plant.series.size() << " sensors x "
            << cfg.days * cfg.minutes_per_day << " ticks to "
            << args.get("out") << "\n";
  return 0;
}

int cmd_train(const Args& args) {
  io::RunConfig run = tools::run_config(args);
  core::MinerConfig& miner = run.framework.miner;
  miner.translation.model.max_decode_length =
      run.framework.window.sentence_length + 2;
  if (miner.resume && miner.checkpoint_path.empty()) {
    throw PreconditionError("--resume requires --checkpoint FILE");
  }
  io::validate_run_config(run, args.values());
  if (args.flag("dump-config")) {
    std::cout << io::run_config_to_json(run);
    return 0;
  }
  tensor::kernels::select_backend(run.tensor.kernels);
  obs::logger().info("compute kernels selected",
                     {obs::kv("backend", tensor::kernels::backend_name(
                                             tensor::kernels::active_backend()))});
  const auto train_series = io::read_series_csv(args.get("train"));
  const auto dev_series = io::read_series_csv(args.get("dev"));
  core::FrameworkConfig cfg = run.framework;

  // Ctrl-C unwinds mining gracefully: the miner stops scheduling pairs and
  // throws robust::Interrupted after the checkpoint journal is flushed.
  robust::install_signal_flag();
  cfg.miner.should_abort = [] { return robust::interrupted(); };

  // Per-pair progress through the logger (visible at --log-level info;
  // the miner also emits per-pair debug records with step counts).
  cfg.miner.on_pair = [](const core::PairEvent& e) {
    obs::logger().info(
        "pair " + std::to_string(e.pair_index + 1) + "/" +
            std::to_string(e.pair_count) + (e.resumed ? " (resumed)" : ""),
        {obs::kv("src", e.src_name), obs::kv("dst", e.dst_name),
         obs::kv("bleu", e.bleu), obs::kv("wall_ms", e.wall_ms),
         obs::kv("steps", e.steps_run), obs::kv("attempts", e.attempts)});
  };

  std::cout << "training pairwise models over " << train_series.size()
            << " sensors...\n";
  core::Framework fw(cfg);
  fw.fit(train_series, dev_series);
  io::save_framework(fw, args.get("out"));
  std::cout << "trained " << fw.graph().edges().size()
            << " directional models ("
            << fw.encrypter().dropped_sensors().size()
            << " constant sensors dropped); saved to " << args.get("out")
            << "\n";

  const auto& failures = fw.graph().failures();
  if (!failures.empty()) {
    std::cerr << failures.size()
              << " pair(s) permanently failed (artifact saved without "
                 "those edges):\n";
    for (const auto& f : failures) {
      std::cerr << "  " << fw.graph().name(f.src) << " -> "
                << fw.graph().name(f.dst) << " after " << f.attempts
                << " attempt(s): " << f.reason << "\n";
    }
    return 3;
  }
  return 0;
}

io::OnBadRow parse_on_bad_row(const std::string& v) {
  if (v == "throw") return io::OnBadRow::kThrow;
  if (v == "skip") return io::OnBadRow::kSkip;
  if (v == "quarantine") return io::OnBadRow::kQuarantine;
  throw PreconditionError("--on-bad-row must be throw|skip|quarantine, got '" +
                          v + "'");
}

int cmd_detect(const Args& args) {
  io::RunConfig run = tools::run_config(args);
  io::validate_run_config(run, args.values());
  if (args.flag("dump-config")) {
    std::cout << io::run_config_to_json(run);
    return 0;
  }
  core::FrameworkConfig cfg;
  cfg.detector = run.framework.detector;
  const robust::HealthConfig& health = run.health;
  tensor::kernels::select_backend(run.tensor.kernels);
  obs::logger().info(
      "compute kernels selected",
      {obs::kv("backend", tensor::kernels::backend_name(
                              tensor::kernels::active_backend()))});

  const bool degraded_mode = args.flag("degraded");
  io::CsvOptions csv_opts;
  csv_opts.on_bad_row = parse_on_bad_row(args.get_or("on-bad-row", "throw"));
  csv_opts.max_bad_rows =
      args.count("max-bad-rows", std::size_t{1000});
  if (csv_opts.on_bad_row == io::OnBadRow::kQuarantine) {
    csv_opts.quarantine_path =
        args.get_or("quarantine", args.get("test") + ".quarantine.jsonl");
  }

  // Pre-register the degraded-mode audit counters so --metrics-out always
  // carries them (zero-valued on a clean run).
  obs::metrics().counter("csv.rows_bad");
  obs::metrics().counter("csv.rows_quarantined");
  obs::metrics().counter("detect.window.degraded");
  obs::metrics().counter("detect.sensor.dropped");

  core::Framework fw = io::load_framework(args.get("model"), cfg);
  io::CsvReport report;
  const auto test_series =
      io::read_series_csv(args.get("test"), csv_opts, &report);
  if (report.rows_bad > 0) {
    std::cerr << report.rows_bad << " malformed CSV row(s) "
              << (csv_opts.on_bad_row == io::OnBadRow::kQuarantine
                      ? "quarantined to " + csv_opts.quarantine_path
                      : "skipped")
              << "\n";
  }

  const auto result =
      degraded_mode
          ? fw.detect_degraded(test_series, health, report.missing_ticks)
          : fw.detect(test_series);

  std::size_t degraded_windows = 0;
  if (degraded_mode) {
    util::Table t({"window", "anomaly score", "broken", "valid", "coverage"});
    for (std::size_t w = 0; w < result.anomaly_scores.size(); ++w) {
      const bool no_verdict = result.degraded[w] != 0;
      if (no_verdict) ++degraded_windows;
      t.add_row({std::to_string(w),
                 no_verdict ? "no-verdict"
                            : util::fixed(result.anomaly_scores[w], 3),
                 std::to_string(result.broken_edges[w].size()),
                 std::to_string(result.valid_edges.size()),
                 util::fixed(result.coverage[w], 2)});
    }
    std::cout << t.to_text("detection (band [" +
                           util::fixed(cfg.detector.valid_lo, 0) + ", " +
                           util::fixed(cfg.detector.valid_hi, 0) +
                           "), degraded mode)");
  } else {
    util::Table t({"window", "anomaly score", "broken", "valid"});
    for (std::size_t w = 0; w < result.anomaly_scores.size(); ++w) {
      t.add_row({std::to_string(w), util::fixed(result.anomaly_scores[w], 3),
                 std::to_string(result.broken_edges[w].size()),
                 std::to_string(result.valid_edges.size())});
    }
    std::cout << t.to_text("detection (band [" +
                           util::fixed(cfg.detector.valid_lo, 0) + ", " +
                           util::fixed(cfg.detector.valid_hi, 0) + "))");
  }

  if (degraded_mode) {
    std::cerr << "sensor dropouts: "
              << obs::metrics().counter("detect.sensor.dropped").value()
              << ", rows quarantined: "
              << obs::metrics().counter("csv.rows_quarantined").value()
              << ", degraded windows: " << degraded_windows << "\n";
  }
  if (degraded_mode && degraded_windows > 0) {
    std::cerr << degraded_windows << " of " << result.anomaly_scores.size()
              << " window(s) emitted no verdict (coverage below "
              << util::fixed(cfg.detector.min_coverage, 2) << ")\n";
    return 4;
  }
  return 0;
}

int cmd_inspect(const Args& args) {
  core::Framework fw = io::load_framework(args.get("model"));
  const auto& g = fw.graph();
  std::cout << "sensors: " << g.sensor_count()
            << ", directional models: " << g.edges().size()
            << ", kernels: "
            << tensor::kernels::backend_name(
                   tensor::kernels::active_backend())
            << "\n";

  util::Table t({"BLEU band", "edges", "active sensors", "max in-degree"});
  const double edges_total = static_cast<double>(g.edges().size());
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {0, 60}, {60, 70}, {70, 80}, {80, 90}, {90, 100.5}}) {
    const auto sub = g.filter_bleu(lo, hi);
    const auto in = sub.in_degrees();
    std::size_t max_in = 0;
    for (std::size_t v : in) max_in = std::max(max_in, v);
    t.add_row({"[" + util::fixed(lo, 0) + ", " + util::fixed(hi, 0) + ")",
               std::to_string(sub.edges().size()) + " (" +
                   util::fixed(100.0 * sub.edges().size() / edges_total, 1) +
                   "%)",
               std::to_string(sub.active_sensors().size()),
               std::to_string(max_in)});
  }
  std::cout << t.to_text("band decomposition");

  const double lo = args.number("lo", 80.0), hi = args.number("hi", 90.0);
  const auto band = g.filter_bleu(lo, hi);
  const auto in = band.in_degrees();
  std::cout << "in-degrees in [" << lo << ", " << hi << "):";
  for (std::size_t v = 0; v < g.sensor_count(); ++v) {
    if (in[v] > 0) std::cout << " " << g.name(v) << "=" << in[v];
  }
  std::cout << "\n";
  return 0;
}

void usage() {
  std::cerr
      << "usage: desmine_cli <generate|train|detect|inspect> [--option value]...\n"
         "  generate --out plant.csv [--days N --minutes M --seed S --anomaly-day D]\n"
         "  train    --train a.csv --dev b.csv --out model.bin\n"
         "           [--word 10 --word-stride 1 --sentence 20 --sentence-stride 20\n"
         "            --hidden 64 --embedding 64 --layers 2 --dropout 0.2\n"
         "            --steps 1000 --batch 16 --lr 0.01 --seed 42 --threads 0]\n"
         "           [--checkpoint FILE [--resume] --pair-timeout-s 0\n"
         "            --max-retries 2]\n"
         "  detect   --model model.bin --test c.csv [--lo 80 --hi 90 --tolerance 0]\n"
         "           [--degraded --min-coverage 0.5 --on-bad-row throw|skip|quarantine\n"
         "            --quarantine FILE --max-bad-rows 1000 --health-drop-after 3\n"
         "            --health-stale-after 0 --health-unk-rate 0.5\n"
         "            --health-unk-window 64 --health-readmit-after 8]\n"
         "  inspect  --model model.bin [--lo 80 --hi 90]\n"
         "config files (train/detect):\n"
         "  --config FILE        JSON config as the option baseline (explicit\n"
         "                       flags still win); see --dump-config\n"
         "  --dump-config        print the effective config as JSON and exit\n"
         "                       (also: desmine_cli --dump-config for defaults)\n"
         "compute kernels (train/detect; config key tensor.kernels):\n"
         "  --kernels auto|scalar|avx2   backend for the dense kernels\n"
         "                       (default auto: DESMINE_KERNELS env, else best\n"
         "                       available for this CPU)\n"
         "observability (any subcommand; --key=value also accepted):\n"
         "  --log-level trace|debug|info|warn|error|off   (default info)\n"
         "  --log-json FILE      JSON-lines log in addition to stderr\n"
         "  --metrics-out FILE   dump counters/gauges/histograms JSON on exit\n"
         "  --metrics-interval-s N  also re-write --metrics-out atomically\n"
         "                       every N seconds during the run\n"
         "  --trace-out FILE     dump chrome://tracing span JSON on exit\n"
         "exit codes: 0 ok | 1 runtime error | 2 usage error (including an\n"
         "            option the command does not take) |\n"
         "            3 trained with permanently failed pairs |\n"
         "            4 detection completed degraded | 130 interrupted\n";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw RuntimeError("cannot write " + path);
  out << content << "\n";
}

/// Configure the obs layer from the shared flags before a command runs.
void setup_observability(const Args& args) {
  obs::logger().set_level(obs::parse_level(args.get_or("log-level", "info")));
  const std::string log_json = args.get_or("log-json", "");
  if (!log_json.empty()) {
    obs::logger().add_sink(std::make_shared<obs::JsonLinesSink>(log_json));
  }
  if (!args.get_or("trace-out", "").empty()) obs::tracer().enable();
  // Pre-register the arena instruments so every --metrics-out dump carries
  // them, even for commands that never touch the numeric hot path.
  obs::metrics().gauge("tensor.workspace.bytes_peak");
  obs::metrics().counter("tensor.workspace.rewinds");
}

/// Background metrics flusher for long runs: while a command executes,
/// re-write --metrics-out every interval via io::write_file_atomic, so an
/// external watcher always reads a complete JSON document mid-run (a plain
/// ofstream would expose torn half-written files). Tool-level on purpose —
/// the obs layer stays io-free.
class PeriodicMetricsWriter {
 public:
  PeriodicMetricsWriter(std::string path, double interval_s)
      : path_(std::move(path)) {
    DESMINE_EXPECTS(interval_s > 0.0, "--metrics-interval-s must be > 0");
    worker_ = std::thread([this, interval_s] {
      std::unique_lock lock(mu_);
      const auto interval = std::chrono::duration<double>(interval_s);
      while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
        lock.unlock();
        try {
          io::write_file_atomic(path_, obs::metrics().to_json());
        } catch (const std::exception& e) {
          // A failed flush must not kill the run; the exit dump still runs.
          obs::logger().warn("periodic metrics write failed",
                             {obs::kv("path", path_), obs::kv("error", e.what())});
        }
        lock.lock();
      }
    });
  }

  ~PeriodicMetricsWriter() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

 private:
  const std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread worker_;
};

/// Export metrics/trace dumps after a command finished.
void dump_observability(const Args& args) {
  const std::string metrics_out = args.get_or("metrics-out", "");
  if (!metrics_out.empty()) {
    write_file(metrics_out, obs::metrics().to_json());
    obs::logger().info("metrics written", {obs::kv("path", metrics_out)});
  }
  const std::string trace_out = args.get_or("trace-out", "");
  if (!trace_out.empty()) {
    write_file(trace_out, obs::tracer().to_chrome_json());
    write_file(trace_out + ".tree.json", obs::tracer().to_tree_json());
    obs::logger().info("trace written", {obs::kv("path", trace_out)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--dump-config" || command == "dump-config") {
    std::cout << io::run_config_to_json({});
    return 0;
  }
  const auto options = command_options().find(command);
  if (options == command_options().end()) {
    usage();
    return 2;
  }
  std::unique_ptr<Args> args;
  try {
    args = std::make_unique<Args>(argc, argv, 2, options->second.options,
                                  options->second.flags);
    setup_observability(*args);
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  }
  try {
    // --metrics-interval-s N: flush --metrics-out atomically every N
    // seconds while the command runs (long mining runs become observable).
    std::unique_ptr<PeriodicMetricsWriter> metrics_writer;
    const double metrics_interval = args->number("metrics-interval-s", 0.0);
    const std::string metrics_out = args->get_or("metrics-out", "");
    if (metrics_interval > 0.0) {
      if (metrics_out.empty()) {
        throw PreconditionError(
            "--metrics-interval-s requires --metrics-out");
      }
      metrics_writer = std::make_unique<PeriodicMetricsWriter>(
          metrics_out, metrics_interval);
    }

    const int rc = command == "generate" ? cmd_generate(*args)
                   : command == "train"  ? cmd_train(*args)
                   : command == "detect" ? cmd_detect(*args)
                                         : cmd_inspect(*args);
    dump_observability(*args);
    return rc;
  } catch (const robust::Interrupted& e) {
    // Completed pairs are already durable in the checkpoint journal; flush
    // the observability dumps so an interrupted run is still inspectable.
    std::cerr << "interrupted: " << e.what() << "\n";
    try {
      dump_observability(*args);
    } catch (const std::exception& dump_error) {
      std::cerr << "error: " << dump_error.what() << "\n";
    }
    return 130;
  } catch (const PreconditionError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
