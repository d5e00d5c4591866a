// desmine_top — live terminal dashboard for a running desmine_serve.
//
// Polls http://127.0.0.1:<port>/metrics (the Prometheus exposition mounted
// by desmine_serve --telemetry-port) every --interval-s seconds and renders
// the serving layer's vitals in place:
//   * sessions, uptime-style counters (ticks, windows scored, slow windows)
//   * throughput rates (ticks/s, windows/s) from scrape-to-scrape deltas
//   * recent latency quantiles (the sliding serve.window.latency_ms summary)
//   * per-stage p50/p95/p99 (queue / batch_form / decode / reorder)
//   * fault tolerance (model generation, shed windows, global rejects,
//     circuit breaker transitions, failed edge scores)
//   * continual mining lifecycle (drift verdict counts, armed shadow
//     candidate, shadow agreement, promotions/rollbacks, retired
//     generations still live)
//   * degraded-mode counters (unhealthy sensors, degraded windows)
//
// Options:
//   --port P         telemetry port of the target desmine_serve (required)
//   --interval-s N   poll period in seconds (default 2)
//   --frames N       render N frames then exit (default 0 = run forever);
//                    also the test hook — one frame makes the tool a plain
//                    scrape-and-print
//   --no-clear       append frames instead of redrawing in place
// Exit codes: 0 ok | 1 scrape failed | 2 usage error.
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "obs/http_exposition.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

using namespace desmine;
using tools::Args;

namespace {

/// One scrape, parsed: full sample name (with label set) -> value. The
/// Prometheus text format is line-oriented, so "name{labels} value" parsing
/// is a split at the last space.
using Samples = std::map<std::string, double>;

Samples parse_prometheus(const std::string& body) {
  Samples out;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0) continue;
    const std::string name = line.substr(0, sp);
    const std::string value = line.substr(sp + 1);
    if (value == "+Inf") {
      out[name] = std::numeric_limits<double>::infinity();
    } else if (value == "-Inf") {
      out[name] = -std::numeric_limits<double>::infinity();
    } else if (value == "NaN") {
      out[name] = std::numeric_limits<double>::quiet_NaN();
    } else {
      try {
        out[name] = std::stod(value);
      } catch (const std::exception&) {
      }
    }
  }
  return out;
}

double sample(const Samples& s, const std::string& name, double fallback = 0.0) {
  const auto it = s.find(name);
  return it == s.end() ? fallback : it->second;
}

std::string fixed_or_dash(double v, int digits = 2) {
  if (!std::isfinite(v)) return "-";
  return util::fixed(v, digits);
}

/// Scrape-to-scrape rate of a counter (per second); "-" before the second
/// frame or across a server restart (counter went backwards).
std::string rate(const Samples& now, const Samples* prev,
                 const std::string& name, double dt_s) {
  if (prev == nullptr || dt_s <= 0.0) return "-";
  const double d = sample(now, name) - sample(*prev, name);
  if (d < 0.0) return "-";
  return util::fixed(d / dt_s, 1);
}

std::string render(const Samples& s, const Samples* prev, double dt_s,
                   std::uint16_t port) {
  std::string out = "desmine_top — 127.0.0.1:" + std::to_string(port) + "\n";

  util::Table vitals({"sessions", "ticks/s", "windows/s", "windows_total",
                      "slow", "rejected"});
  vitals.add_row(
      {util::fixed(sample(s, "desmine_serve_sessions"), 0),
       rate(s, prev, "desmine_serve_ticks_total", dt_s),
       rate(s, prev, "desmine_serve_windows_scored_total", dt_s),
       util::fixed(sample(s, "desmine_serve_windows_scored_total"), 0),
       util::fixed(sample(s, "desmine_serve_window_slow_total"), 0),
       util::fixed(sample(s, "desmine_serve_ingest_rejected_total"), 0)});
  out += vitals.to_text("serving");

  const std::string recent = "desmine_serve_window_latency_ms_recent";
  util::Table latency({"window", "p50_ms", "p95_ms", "p99_ms", "count"});
  latency.add_row({"recent",
                   fixed_or_dash(sample(s, recent + "{quantile=\"0.5\"}")),
                   fixed_or_dash(sample(s, recent + "{quantile=\"0.95\"}")),
                   fixed_or_dash(sample(s, recent + "{quantile=\"0.99\"}")),
                   util::fixed(sample(s, recent + "_count"), 0)});
  out += latency.to_text("window latency (sliding)");

  util::Table stages({"stage", "mean_ms", "count"});
  for (const char* stage :
       {"queue_ms", "batch_form_ms", "decode_ms", "reorder_ms"}) {
    const std::string base = std::string("desmine_serve_stage_") + stage;
    const double count = sample(s, base + "_count");
    const double mean = count > 0 ? sample(s, base + "_sum") / count : NAN;
    stages.add_row({stage, fixed_or_dash(mean, 3), util::fixed(count, 0)});
  }
  out += stages.to_text("stage breakdown (cumulative)");

  util::Table faults({"generation", "shed", "shed/s", "global_rejects",
                      "circuit_open", "circuit_closed", "failed_edges"});
  faults.add_row(
      {util::fixed(sample(s, "desmine_serve_model_generation"), 0),
       util::fixed(sample(s, "desmine_serve_shed_windows_total"), 0),
       rate(s, prev, "desmine_serve_shed_windows_total", dt_s),
       util::fixed(sample(s, "desmine_serve_shed_global_rejects_total"), 0),
       util::fixed(sample(s, "desmine_serve_circuit_opened_total"), 0),
       util::fixed(sample(s, "desmine_serve_circuit_closed_total"), 0),
       util::fixed(sample(s, "desmine_serve_window_failed_edges_total"), 0)});
  out += faults.to_text("fault tolerance");

  util::Table lifecycle({"drifting", "drifted", "shadow", "shadow_windows",
                         "agreement", "promoted", "rolled_back",
                         "retired_live"});
  lifecycle.add_row(
      {util::fixed(sample(s, "desmine_lifecycle_drift_drifting"), 0),
       util::fixed(sample(s, "desmine_lifecycle_drift_drifted"), 0),
       sample(s, "desmine_serve_shadow_active") > 0 ? "armed" : "-",
       util::fixed(sample(s, "desmine_serve_shadow_windows_total"), 0),
       fixed_or_dash(sample(s, "desmine_serve_shadow_agreement")),
       util::fixed(sample(s, "desmine_lifecycle_promotions_total"), 0),
       util::fixed(sample(s, "desmine_lifecycle_rollbacks_total"), 0),
       util::fixed(sample(s, "desmine_serve_model_retired_live"), 0)});
  out += lifecycle.to_text("lifecycle");

  util::Table degraded({"dropped", "stale", "flooding", "readmitted",
                        "degraded_windows"});
  degraded.add_row(
      {util::fixed(sample(s, "desmine_detect_sensor_dropped_total"), 0),
       util::fixed(sample(s, "desmine_detect_sensor_stale_total"), 0),
       util::fixed(sample(s, "desmine_detect_sensor_flooding_total"), 0),
       util::fixed(sample(s, "desmine_detect_sensor_readmitted_total"), 0),
       util::fixed(sample(s, "desmine_detect_window_degraded_total"), 0)});
  out += degraded.to_text("sensor health");

  return out;
}

volatile std::sig_atomic_t g_stop = 0;

void usage() {
  std::cerr << "usage: desmine_top --port P [--interval-s 2] [--frames 0]\n"
               "                   [--no-clear]\n"
               "polls /metrics of a desmine_serve --telemetry-port P and\n"
               "renders live serving vitals; ctrl-c to quit\n"
               "exit codes: 0 ok | 1 scrape failed | 2 usage error\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Args> args;
  std::uint16_t port = 0;
  double interval_s = 2.0;
  std::size_t frames = 0;
  try {
    args = std::make_unique<Args>(
        argc, argv, 1, std::set<std::string>{"port", "interval-s", "frames"},
        std::set<std::string>{"no-clear"});
    (void)args->get("port");  // required
    port = args->count<std::uint16_t>("port", 0);
    if (port == 0) throw PreconditionError("--port must lie in [1, 65535]");
    interval_s = args->number("interval-s", interval_s);
    if (interval_s <= 0.0) {
      throw PreconditionError("--interval-s must be > 0");
    }
    frames = args->count("frames", std::size_t{0});
  } catch (const std::exception& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    usage();
    return 2;
  }

  std::signal(SIGINT, [](int) { g_stop = 1; });
  std::signal(SIGTERM, [](int) { g_stop = 1; });
  const bool clear = !args->flag("no-clear");

  std::optional<Samples> prev;
  std::size_t rendered = 0;
  while (g_stop == 0) {
    Samples now;
    try {
      const obs::HttpGetResult got = obs::http_get(port, "/metrics");
      if (got.status != 200) {
        std::cerr << "error: /metrics returned status " +
                         std::to_string(got.status) + "\n";
        return 1;
      }
      now = parse_prometheus(got.body);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }

    if (clear && rendered > 0) std::cout << "\x1b[H\x1b[2J";
    std::cout << render(now, prev ? &*prev : nullptr, interval_s, port)
              << std::flush;
    prev = std::move(now);

    if (++rendered == frames && frames != 0) break;
    const auto wake = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::duration<double>(interval_s));
    while (g_stop == 0 && std::chrono::steady_clock::now() < wake) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  return 0;
}
