// bench_e2e: the repository's end-to-end and per-layer benchmark
// (README.md in this directory).
//
//   bench_e2e --workload serve-fleet|serve-diverse|detect-batch|mine
//             --seed N [--seconds S] [--traced] [--smoke]
//             [--out DIR] [--cache DIR]
//   bench_e2e --prepare [--cache DIR]      mine + cache the fixture only
//
// Prints every metric by name with its unit, checks the outputs, and writes
// a stamped result JSON to --out (traced runs also write a chrome trace and
// a per-layer self-time table). The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one. Exit status: 0 when every check passed, 1 when a
// check failed or the run threw, 2 on bad usage or an unfit environment
// (a DESMINE_* variable set, or not a Release build).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "io/serialize.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/version.h"
#include "workloads.h"

extern char** environ;

namespace desmine::e2e {

namespace {

constexpr double kWarmSeconds = 2.0;
constexpr double kSpeedSeconds = 0.5;  // host-speed index window

constexpr const char* kUsage =
    "usage: bench_e2e --workload serve-fleet|serve-diverse|detect-batch|mine\n"
    "                 --seed N [--seconds S] [--traced] [--smoke]\n"
    "                 [--out DIR] [--cache DIR]\n"
    "       bench_e2e --prepare [--cache DIR]\n";

struct Args {
  Options options;
  std::string out;
  bool prepare = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  const std::filesystem::path exe_dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path();
  args->out = (exe_dir / "runs").string();
  args->options.cache_dir = (exe_dir / "cache").string();
  bool seconds_given = false;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--traced") {
      args->options.traced = true;
    } else if (flag == "--smoke") {
      args->options.smoke = true;
    } else if (flag == "--prepare") {
      args->prepare = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--out" || flag == "--cache") {
      const char* v = value();
      if (v == nullptr) return false;
      if (flag == "--workload") {
        args->options.workload = v;
      } else if (flag == "--seed") {
        char* end = nullptr;
        args->options.seed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0') return false;
        seed_given = true;
      } else if (flag == "--seconds") {
        char* end = nullptr;
        args->options.seconds = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(args->options.seconds > 0.0)) {
          return false;
        }
        seconds_given = true;
      } else if (flag == "--out") {
        args->out = v;
      } else {
        args->options.cache_dir = v;
      }
    } else {
      return false;
    }
  }
  if (args->options.smoke && !seconds_given) args->options.seconds = 2.0;
  if (args->prepare) return true;
  static const char* kWorkloads[] = {"serve-fleet", "serve-diverse",
                                     "detect-batch", "mine"};
  return seed_given && std::any_of(std::begin(kWorkloads),
                                   std::end(kWorkloads), [&](const char* w) {
                                     return args->options.workload == w;
                                   });
}

/// Refuse environments whose numbers would not be comparable.
bool environment_fit() {
  bool fit = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "DESMINE_", 8) == 0) {
      std::cerr << "bench_e2e: refusing to run with " << *env << " set\n";
      fit = false;
    }
  }
  if (std::strstr(util::desmine_version(), "(Release)") == nullptr) {
    std::cerr << "bench_e2e: library is not a Release build ("
              << util::desmine_version() << ")\n";
    fit = false;
  }
#ifndef NDEBUG
  std::cerr << "bench_e2e: built without NDEBUG\n";
  fit = false;
#endif
  return fit;
}

/// Spin a fixed arithmetic loop on every CPU at once for `seconds` and
/// return its rate over the last `measured` seconds, in loops per second per
/// CPU: the host-speed index. It touches no repository code, so no change
/// can move it; only the host can.
double spin_cpus(double seconds, double measured) {
  const auto start = Clock::now();
  const auto from = start + to_duration(seconds - measured);
  const auto end = start + to_duration(seconds);
  const unsigned cpus =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<double> rate(cpus, 0.0);
  const auto spin = [&](unsigned c) {
    volatile double sink = 0.0;
    std::size_t loops = 0;
    auto counted_from = from;
    for (auto now = Clock::now(); now < end; now = Clock::now()) {
      for (int i = 0; i < 10000; ++i) sink = sink + std::sqrt(i * 1.0001);
      if (now >= from) {
        if (loops == 0) counted_from = now;
        ++loops;
      }
    }
    rate[c] = static_cast<double>(loops) /
              std::max(seconds_between(counted_from, Clock::now()), 1e-9);
  };
  std::vector<std::thread> spinners;
  for (unsigned i = 1; i < cpus; ++i) spinners.emplace_back(spin, i);
  spin(0);
  for (std::thread& t : spinners) t.join();
  return mean(rate);
}

/// Express the timed end-to-end metrics at the calibration host's speed.
/// The host's speed drifts by 10-30% between runs a minute apart, and
/// moves the workloads with it; scaling by the host-speed index measured
/// around the run removes most of that drift. The raw values stay in the
/// detail metrics.
void scale_to_reference_host(double host_speed, const Calibration& cal,
                             RunResult* result) {
  const double factor = host_speed / cal.host_speed_ref;
  for (Metric& m : result->end_to_end) {
    if (m.name == "throughput") {
      result->detail.push_back({"throughput_raw", m.value, m.unit});
      m.value /= factor;
    } else if (m.name == "setup_s") {
      result->detail.push_back({"setup_s_raw", m.value, m.unit});
      m.value *= factor;
    }
  }
  result->detail.push_back({"bench.host_speed", host_speed, "1/s"});
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string build_type() {
  const std::string v = util::desmine_version();
  const auto open = v.rfind('(');
  const auto close = v.rfind(')');
  return open == std::string::npos || close <= open
             ? "unknown"
             : v.substr(open + 1, close - open - 1);
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Per span name: calls, total and self milliseconds (duration minus the
/// part covered by its children), sorted by self time.
std::string self_time_table(const std::vector<obs::SpanRecord>& records) {
  std::vector<double> child_ms(records.size(), 0.0);
  const auto ms = [](const obs::SpanRecord& r) {
    return static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
  };
  for (const obs::SpanRecord& r : records) {
    if (r.finished() && r.parent < records.size()) child_ms[r.parent] += ms(r);
  }
  struct Row {
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].finished()) continue;
    Row& row = rows[records[i].name];
    ++row.calls;
    row.total_ms += ms(records[i]);
    row.self_ms += std::max(0.0, ms(records[i]) - child_ms[i]);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-32s %10s %14s %14s\n", "span", "calls",
                "total_ms", "self_ms");
  out << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line), "%-32s %10zu %14.3f %14.3f\n",
                  name.c_str(), row.calls, row.total_ms, row.self_ms);
    out << line;
  }
  return out.str();
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  if (metrics.empty()) return;
  std::cout << title << ":\n";
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-40s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
}

void write_metrics(obs::JsonWriter& w, const char* key,
                   const std::vector<Metric>& metrics) {
  w.key(key).begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
}

int run(const Args& args) {
  const Options& opt = args.options;
  const Calibration cal =
      load_calibration(std::string(BENCH_E2E_DIR) + "/calibration.json");
  const auto t0 = Clock::now();
  // After a few idle seconds the host runs the vCPUs at a half to a quarter
  // of their speed for up to 1.3 s once they wake (measured on a 4-vCPU
  // cloud VM), so every CPU spins before anything is timed.
  const double speed_before =
      spin_cpus(opt.smoke ? 1.0 : kWarmSeconds, kSpeedSeconds);
  const double warm = seconds_between(t0, Clock::now());
  RunResult result;
  if (opt.workload == "serve-fleet") {
    result = run_serve(opt, cal, false);
  } else if (opt.workload == "serve-diverse") {
    result = run_serve(opt, cal, true);
  } else if (opt.workload == "detect-batch") {
    result = run_detect(opt, cal);
  } else {
    result = run_mine(opt, cal);
  }
  result.phases.insert(result.phases.begin(), {"cpu_warmup", warm});
  scale_to_reference_host(
      (speed_before + spin_cpus(kSpeedSeconds, kSpeedSeconds)) / 2, cal,
      &result);
  const double wall = seconds_between(t0, Clock::now());
  const bool correct = result.errors.empty() && result.failed == 0;

  std::filesystem::create_directories(args.out);
  const std::string stem = args.out + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) +
                           (opt.traced ? "-traced" : "") +
                           (opt.smoke ? "-smoke" : "");
  std::string self_time;
  if (opt.traced) {
    const std::vector<obs::SpanRecord> records = obs::tracer().records();
    self_time = self_time_table(records);
    io::write_file_atomic(args.out + "/" + opt.workload + "-trace.json",
                          obs::tracer().to_chrome_json());
    io::write_file_atomic(stem + "-selftime.txt", self_time);
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("stamp").begin_object();
  w.key("workload").value(opt.workload);
  w.key("seed").value(static_cast<std::uint64_t>(opt.seed));
  w.key("seconds").value(opt.seconds);
  w.key("traced").value(opt.traced);
  w.key("smoke").value(opt.smoke);
  w.key("version").value(util::desmine_version());
  w.key("build_type").value(build_type());
  w.key("backend").value(backend());
  w.key("cpu").value(cpu_model());
  w.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("unix_time").value(static_cast<std::int64_t>(std::time(nullptr)));
  w.key("wall_s").value(wall);
  w.key("phases_s").begin_object();
  for (const auto& [name, s] : result.phases) w.key(name).value(s);
  w.end_object();
  w.end_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<std::uint64_t>(result.attempted));
  w.key("failed").value(static_cast<std::uint64_t>(result.failed));
  write_metrics(w, "end_to_end", result.end_to_end);
  write_metrics(w, "per_layer", result.per_layer);
  write_metrics(w, "detail", result.detail);
  w.key("digests").begin_object();
  for (const auto& [key, hex] : result.digests) w.key(key).value(hex);
  w.end_object();
  w.key("errors").begin_array();
  for (const std::string& e : result.errors) w.value(e);
  w.end_array();
  w.key("warnings").begin_array();
  for (const std::string& e : result.warnings) w.value(e);
  w.end_array();
  w.end_object();
  io::write_file_atomic(stem + ".json", w.str() + "\n");

  std::cout << "bench_e2e " << opt.workload << " seed " << opt.seed << ", "
            << opt.seconds << " s" << (opt.traced ? ", traced" : "")
            << (opt.smoke ? ", smoke" : "") << "\n  " << util::desmine_version()
            << ", " << backend() << " kernels, " << cpu_model() << ", "
            << std::thread::hardware_concurrency() << " cpus\n  phases:";
  for (const auto& [name, s] : result.phases) {
    char phase[96];
    std::snprintf(phase, sizeof(phase), " %s %.3f s;", name.c_str(), s);
    std::cout << phase;
  }
  std::cout << "\n";
  print_metrics("end-to-end", result.end_to_end);
  print_metrics("per-layer", result.per_layer);
  print_metrics("workload detail", result.detail);
  if (!self_time.empty()) std::cout << "self time by span:\n" << self_time;
  for (const auto& [key, hex] : result.digests) {
    std::cout << "digest " << key << " " << hex << "\n";
  }
  for (const std::string& e : result.warnings) std::cout << "warning: " << e << "\n";
  for (const std::string& e : result.errors) std::cout << "ERROR: " << e << "\n";
  std::cout << "result: " << stem << ".json\n";

  const std::vector<Metric>& reported =
      opt.traced ? result.per_layer : result.end_to_end;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    line += (i == 0 ? "" : ", ") + obs::JsonWriter::quote(reported[i].name) +
            ": {\"value\": " + number(reported[i].value) +
            ", \"unit\": " + obs::JsonWriter::quote(reported[i].unit) + "}";
  }
  std::cout << line << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace desmine::e2e

int main(int argc, char** argv) {
  using namespace desmine::e2e;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << kUsage;
    return 2;
  }
  if (!environment_fit()) return 2;
  desmine::obs::logger().set_level(desmine::obs::Level::kWarn);
  try {
    if (args.prepare) {
      std::cout << ensure_fixture(args.options.cache_dir) << "\n";
      return 0;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
