// serve-fleet and serve-diverse: 32 sessions through one
// serve::SessionManager (2 workers), fed by one generator thread (this one)
// and drained by one poller thread.
//
// Phases of an untraced run:
//   setup      kSetups cold restarts, each timed from artifact open to the
//              first verdict (setup_s is their median)
//   saturation closed loop: the generator offers the next tick of every
//              session round-robin; a session whose window budget
//              (kSessionWindows) is full rejects the tick (reject_when_full),
//              which is retried later, so each session waits for its own
//              verdicts
//   ladder     open loop at four fixed absolute rates from calibration.json
//              (about 25/50/75/100% of the parent's saturation); each window
//              is timed from the due time of the tick that completes it to
//              its poll, so a stalled generator shows up as latency
// A traced run replaces the ladder with rounds of an untraced and a traced
// closed loop of equal length and then runs the layer probes.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/online.h"
#include "io/artifact_map.h"
#include "layers.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "util/rng.h"
#include "workloads.h"

namespace desmine::e2e {

namespace {

constexpr std::size_t kSessions = 32;
// Windows a session may have outstanding (the closed loop's depth).
constexpr std::size_t kSessionWindows = 8;
constexpr std::size_t kGateSessions = 8;
constexpr std::size_t kGateWindows = 32;
constexpr std::size_t kDigestWindows = 16;
constexpr std::size_t kFleetDays = 64;
constexpr std::uint8_t kPrefixPhase = 0;
constexpr std::uint8_t kSaturationPhase = 1;
constexpr std::uint8_t kWarmPhase = 2;
constexpr std::uint8_t kLadderPhase = 10;     // + step index
constexpr std::uint8_t kUntracedPhase = 20;   // + traced-run round
constexpr std::uint8_t kTracedPhase = 40;     // + traced-run round
constexpr std::size_t kTraceRounds = 4;

enum Flag : std::uint8_t {
  kPolled = 1,
  kFailedEdges = 2,
  kShed = 4,
  kDegraded = 8,
};

/// Every tick stream of one run. Fleet sessions share one plant at day
/// offsets; diverse sessions each replay their own plant.
struct Streams {
  std::vector<TickTable> tables;
  std::vector<std::size_t> table_of;
  std::vector<std::size_t> offset;

  const TickTable& table(std::size_t s) const { return tables[table_of[s]]; }
  std::size_t row(std::size_t s, std::size_t tick) const {
    return (offset[s] + tick) % table(s).ticks();
  }
};

Streams make_streams(const Options& opt, bool diverse,
                     const std::vector<std::string>& kept) {
  Streams out;
  if (!diverse) {
    out.tables.push_back(TickTable::from_series(
        data::generate_plant(plant_config(opt.seed, kFleetDays, 0.005, false))
            .series,
        kept));
    for (std::size_t s = 0; s < kSessions; ++s) {
      out.table_of.push_back(0);
      out.offset.push_back(s * kMinutesPerDay);
    }
    return out;
  }
  // Long enough that no session wraps around within a run: about 1k
  // windows/s spread over 32 sessions, 20 ticks per window.
  const auto days = static_cast<std::size_t>(
      4.0 + std::ceil(opt.seconds * 1200.0 * kWindowStride / kSessions /
                      kMinutesPerDay));
  const util::Rng master(opt.seed);
  for (std::size_t s = 0; s < kSessions; ++s) {
    out.tables.push_back(TickTable::from_series(
        data::generate_plant(
            plant_config(master.fork(s).seed(), days, 0.2, false))
            .series,
        kept));
    out.table_of.push_back(s);
    out.offset.push_back(0);
  }
  return out;
}

/// Per-window record of one session, sized up front so neither the
/// generator nor the poller allocates while the clock runs. The generator
/// writes due/issued/phase before the ingest that completes the window; the
/// poller writes the rest after polling it (ordered by the session's lock).
struct SessionLog {
  explicit SessionLog(std::size_t cap)
      : due(cap), issued(cap), polled(cap), score(cap), broken(cap),
        flags(cap), phase(cap) {}
  std::vector<std::int64_t> due, issued, polled;  ///< ns since the epoch
  std::vector<std::uint64_t> score;               ///< a_t bits
  std::vector<std::uint64_t> broken;              ///< broken-set digest
  std::vector<std::uint8_t> flags;
  std::vector<std::uint8_t> phase;
};

std::uint64_t broken_digest(
    std::vector<std::pair<std::size_t, std::size_t>> broken) {
  std::sort(broken.begin(), broken.end());
  Digest d;
  d.add_pairs(broken);
  return d.value();
}

/// The window a tick completes, if any: window w ends on tick 20w + 28.
bool completes_window(std::size_t tick, std::size_t* window) {
  if (tick + 1 < kWindowSpan) return false;
  if ((tick + 1 - kWindowSpan) % kWindowStride != 0) return false;
  *window = (tick + 1 - kWindowSpan) / kWindowStride;
  return true;
}

/// Artifact open -> first verdict of a fresh manager with one session.
double cold_restart(const std::string& artifact,
                    const serve::ServeConfig& cfg, const Streams& streams) {
  TickFeed feed(streams.table(0).sensors);
  const auto t0 = Clock::now();
  serve::SessionManager manager(artifact, cfg);
  const std::uint64_t id = manager.open();
  for (std::size_t t = 0; t < kWindowSpan; ++t) {
    manager.ingest(id, feed.fill(streams.table(0), streams.row(0, t)));
  }
  while (!manager.poll(id)) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return seconds_between(t0, Clock::now());
}

/// One manager with 32 sessions, the generator's state, and the poller.
class ServeHarness {
 public:
  ServeHarness(const std::string& artifact, const serve::ServeConfig& cfg,
              const Streams& streams, std::vector<SessionLog>& logs,
              RssPeak& rss, Clock::time_point epoch)
      : streams_(streams),
        logs_(logs),
        rss_(rss),
        epoch_(epoch),
        next_tick_(kSessions, 0),
        manager_(artifact, cfg) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids_.push_back(manager_.open());
      feeds_.push_back(std::make_unique<TickFeed>(streams_.table(s).sensors));
    }
    poller_ = std::thread([this] { poll_loop(); });
  }

  ~ServeHarness() { stop(); }
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Time every accepted ingest call into `sink` (traced runs) until it is
  /// full; null stops timing.
  void time_ingest(std::vector<float>* sink) { ingest_us_ = sink; }

  /// Stagger the sessions so their windows complete at different ticks.
  void prefix() {
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t t = 0; t < s * kWindowStride / kSessions; ++t) {
        offer(s, kPrefixPhase, Clock::now());
      }
    }
    settle();
  }

  /// Closed loop for `seconds`; returns rejected offers.
  std::size_t closed_loop(double seconds, std::uint8_t phase) {
    std::size_t rejected = 0;
    const auto end = Clock::now() + to_duration(seconds);
    while (Clock::now() < end) {
      bool progressed = false;
      for (std::size_t s = 0; s < kSessions; ++s) {
        if (offer(s, phase, Clock::now())) {
          progressed = true;
        } else {
          ++rejected;
        }
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    settle();
    return rejected;
  }

  /// Open loop at `wps` windows/s for `seconds`: global tick j (session
  /// j mod 32) is due at start + j / (20 * wps). Returns rejected offers
  /// due at or after `count_from` seconds into the step.
  std::size_t open_loop(double wps, double seconds, double count_from,
                        std::uint8_t phase) {
    const double tick_rate = wps * static_cast<double>(kWindowStride);
    const auto start = Clock::now();
    const auto end = start + to_duration(seconds);
    std::size_t rejected = 0;
    for (std::size_t j = 0;;) {
      const auto due = start + to_duration(static_cast<double>(j) / tick_rate);
      if (due >= end) break;
      const auto now = Clock::now();
      if (due > now) {
        if (due - now > std::chrono::microseconds(100)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        continue;
      }
      if (offer(j % kSessions, phase, due)) {
        ++j;
      } else {
        if (capped_) break;
        if (seconds_between(start, due) >= count_from) ++rejected;
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    settle();
    return rejected;
  }

  /// Stop the poller once every issued window has been polled.
  void stop() {
    if (!poller_.joinable()) return;
    settle();
    stop_.store(true, std::memory_order_release);
    poller_.join();
  }

  std::size_t issued() const {
    return issued_.load(std::memory_order_acquire);
  }
  bool capped() const { return capped_; }

 private:
  /// Offer session s its next tick, due at `due`. False when the session's
  /// budget rejected it (the tick stays next) or its log is full.
  bool offer(std::size_t s, std::uint8_t phase, Clock::time_point due) {
    const std::size_t tick = next_tick_[s];
    std::size_t w = 0;
    const bool completes = completes_window(tick, &w);
    SessionLog& log = logs_[s];
    if (completes) {
      if (w >= log.due.size()) {
        capped_ = true;
        return false;
      }
      log.due[w] = ns(due);
      log.phase[w] = phase;
    }
    const auto& states = feeds_[s]->fill(streams_.table(s), streams_.row(s, tick));
    const auto t0 = Clock::now();
    if (completes) log.issued[w] = ns(t0);
    const serve::IngestStatus status = manager_.ingest(ids_[s], states);
    if (status != serve::IngestStatus::kAccepted) return false;
    if (ingest_us_ != nullptr && ingest_us_->size() < ingest_us_->capacity()) {
      ingest_us_->push_back(
          static_cast<float>(ms_between(t0, Clock::now()) * 1e3));
    }
    ++next_tick_[s];
    if (completes) issued_.fetch_add(1, std::memory_order_release);
    return true;
  }

  /// Wait until the scheduler is idle and the poller has every verdict.
  void settle() {
    manager_.drain();
    while (polled_.load(std::memory_order_acquire) <
           issued_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  bool sweep() {
    bool got = false;
    for (std::size_t s = 0; s < kSessions; ++s) {
      while (std::optional<serve::WindowResult> r = manager_.poll(ids_[s])) {
        const std::int64_t now = ns(Clock::now());
        SessionLog& log = logs_[s];
        const std::size_t w = r->window_index;
        log.polled[w] = now;
        log.score[w] = bits_of(r->anomaly_score);
        log.broken[w] = broken_digest(std::move(r->broken));
        log.flags[w] = static_cast<std::uint8_t>(
            kPolled | (r->failed.empty() ? 0 : kFailedEdges) |
            (r->shed ? kShed : 0) | (r->degraded ? kDegraded : 0));
        polled_.fetch_add(1, std::memory_order_release);
        got = true;
      }
    }
    return got;
  }

  void poll_loop() {
    auto last_sample = Clock::now();
    for (;;) {
      const bool stopping = stop_.load(std::memory_order_acquire);
      const bool got = sweep();
      if (!got && stopping) break;
      if (!got) std::this_thread::sleep_for(std::chrono::microseconds(50));
      if (Clock::now() - last_sample > std::chrono::milliseconds(20)) {
        rss_.sample();
        last_sample = Clock::now();
      }
    }
  }

  const Streams& streams_;
  std::vector<SessionLog>& logs_;
  RssPeak& rss_;
  const Clock::time_point epoch_;
  std::vector<std::size_t> next_tick_;
  std::vector<std::unique_ptr<TickFeed>> feeds_;
  std::vector<float>* ingest_us_ = nullptr;
  bool capped_ = false;
  serve::SessionManager manager_;
  std::vector<std::uint64_t> ids_;
  std::atomic<std::size_t> issued_{0};
  std::atomic<std::size_t> polled_{0};
  std::atomic<bool> stop_{false};
  std::thread poller_;  // last: runs against every member above
};

/// Verdicts of `phase` polled within [from, to) per second.
double polled_rate(const std::vector<SessionLog>& logs, std::uint8_t phase,
                   std::int64_t from, std::int64_t to) {
  std::size_t n = 0;
  for (const SessionLog& log : logs) {
    for (std::size_t w = 0; w < log.due.size(); ++w) {
      if ((log.flags[w] & kPolled) && log.phase[w] == phase &&
          log.polled[w] >= from && log.polled[w] < to) {
        ++n;
      }
    }
  }
  return static_cast<double>(n) / (static_cast<double>(to - from) * 1e-9);
}

struct StepStats {
  double rate = 0.0;
  double achieved = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;
  double slope = 0.0;  ///< backlog growth over the step's second half, 1/s
  std::size_t samples = 0;
  std::size_t rejected = 0;
  bool pass = false;
};

/// Latency (due -> poll) and backlog of the windows of an open-loop step
/// whose completing tick was due within [from, to).
StepStats analyze_step(const std::vector<SessionLog>& logs, std::uint8_t phase,
                       std::int64_t from, std::int64_t to, double rate,
                       std::size_t rejected, double limit_ms) {
  StepStats st;
  st.rate = rate;
  st.rejected = rejected;
  std::vector<double> latency, lag, due, polled;
  for (const SessionLog& log : logs) {
    for (std::size_t w = 0; w < log.due.size(); ++w) {
      if (!(log.flags[w] & kPolled) || log.phase[w] != phase) continue;
      due.push_back(static_cast<double>(log.due[w]));
      polled.push_back(static_cast<double>(log.polled[w]));
      if (log.due[w] < from || log.due[w] >= to) continue;
      latency.push_back(static_cast<double>(log.polled[w] - log.due[w]) * 1e-6);
      lag.push_back(static_cast<double>(log.issued[w] - log.due[w]) * 1e-6);
    }
  }
  st.samples = latency.size();
  st.p50_ms = quantile(latency, 0.5);
  st.p99_ms = quantile(latency, 0.99);
  st.lag_p99_ms = quantile(lag, 0.99);
  st.achieved = polled_rate(logs, phase, from, to);

  // Backlog(t) = windows due by t - windows polled by t, sampled at 20
  // points over the second half; least-squares slope in windows/s.
  std::sort(due.begin(), due.end());
  std::sort(polled.begin(), polled.end());
  std::vector<double> xs, ys;
  const double mid = static_cast<double>(from + to) / 2.0;
  for (int i = 0; i <= 20; ++i) {
    const double t = mid + (static_cast<double>(to) - mid) * i / 20.0;
    const auto d = std::upper_bound(due.begin(), due.end(), t) - due.begin();
    const auto p =
        std::upper_bound(polled.begin(), polled.end(), t) - polled.begin();
    xs.push_back(t * 1e-9);
    ys.push_back(static_cast<double>(d - p));
  }
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  st.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  st.pass = st.samples > 0 && st.rejected == 0 && st.p99_ms <= limit_ms &&
            st.slope <= 0.01 * rate;
  return st;
}

/// Replay sampled windows of sampled sessions through an OnlineDetector and
/// compare every verdict bit for bit. Returns mismatched windows.
std::size_t gate(const Options& opt, const std::string& artifact,
                 const Streams& streams, const std::vector<SessionLog>& logs,
                 RunResult* result) {
  const core::Framework fw = load_fixture(artifact);
  util::Rng rng(opt.seed ^ 0x9a7eull);
  std::vector<std::size_t> sessions(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) sessions[s] = s;
  std::size_t compared = 0, mismatched = 0;
  for (std::size_t g = 0; g < kGateSessions; ++g) {
    std::swap(sessions[g], sessions[g + rng.index(kSessions - g)]);
    const std::size_t s = sessions[g];
    const SessionLog& log = logs[s];
    std::size_t delivered = 0;
    while (delivered < log.flags.size() && (log.flags[delivered] & kPolled)) {
      ++delivered;
    }
    const std::size_t count = std::min(kGateWindows, delivered);
    if (count == 0) continue;
    const std::size_t w0 = rng.index(delivered - count + 1);
    core::OnlineDetector online(fw.graph(), fw.encrypter(),
                                fw.config().window, fw.config().detector);
    TickFeed feed(streams.table(s).sensors);
    const std::size_t first = w0 * kWindowStride;
    const std::size_t last =
        first + (count - 1) * kWindowStride + kWindowSpan;
    for (std::size_t t = first; t < last; ++t) {
      const auto r =
          online.push(feed.fill(streams.table(s), streams.row(s, t)));
      if (!r) continue;
      const std::size_t w = w0 + r->window_index;
      ++compared;
      if (log.score[w] != bits_of(r->anomaly_score) ||
          log.broken[w] != broken_digest(r->broken)) {
        ++mismatched;
      }
    }
  }
  if (compared == 0) {
    result->errors.push_back("no served window to compare");
  } else if (compared < kGateSessions * kGateWindows) {
    result->warnings.push_back("gate compared only " +
                               std::to_string(compared) + " windows");
  }
  if (mismatched > 0) {
    result->errors.push_back(std::to_string(mismatched) + " of " +
                             std::to_string(compared) +
                             " served verdicts differ from OnlineDetector");
  }
  result->detail.push_back(
      {"bench.gate_windows", static_cast<double>(compared), "count"});
  result->attempted += compared;
  return mismatched;
}

/// Snapshot deltas of the serve instruments over one phase.
struct ServeCounters {
  std::uint64_t hits = 0, decoded = 0, windows = 0;
  static ServeCounters now() {
    obs::MetricsRegistry& m = obs::metrics();
    return {m.counter("serve.batch.cache_hits").value(),
            m.counter("serve.batch.decoded").value(),
            m.counter("serve.windows_scored").value()};
  }
};

void reset_serve_histograms() {
  for (const char* name :
       {"serve.stage.queue_ms", "serve.stage.batch_form_ms",
        "serve.stage.decode_ms", "serve.stage.reorder_ms", "serve.batch.size",
        "serve.batch.score_ms"}) {
    obs::metrics().histogram(name).reset();
  }
}

/// Library-side metrics of the phase since the last reset.
void serve_layer_metrics(const ServeCounters& before, double wall_s,
                         std::vector<Metric>* out, double* busy_ms,
                         double* mean_batch, ServeCounters* delta) {
  obs::MetricsRegistry& m = obs::metrics();
  const ServeCounters after = ServeCounters::now();
  delta->hits = after.hits - before.hits;
  delta->decoded = after.decoded - before.decoded;
  delta->windows = after.windows - before.windows;
  const auto q = [&](const char* name, double p) {
    return m.histogram(name).snapshot().quantile(p);
  };
  out->push_back({"serve.queue_ms.p50", q("serve.stage.queue_ms", 0.5), "ms"});
  out->push_back({"serve.queue_ms.p99", q("serve.stage.queue_ms", 0.99), "ms"});
  out->push_back(
      {"serve.batch_form_ms.p99", q("serve.stage.batch_form_ms", 0.99), "ms"});
  out->push_back(
      {"serve.reorder_ms.p99", q("serve.stage.reorder_ms", 0.99), "ms"});
  out->push_back({"serve.decode_ms.p50", q("serve.stage.decode_ms", 0.5), "ms"});
  out->push_back(
      {"serve.decode_ms.p99", q("serve.stage.decode_ms", 0.99), "ms"});
  *mean_batch = m.histogram("serve.batch.size").snapshot().mean();
  out->push_back({"serve.batch_size.mean", *mean_batch, "count"});
  out->push_back({"serve.decodes_per_window",
                  delta->windows == 0 ? 0.0
                                      : static_cast<double>(delta->decoded) /
                                            static_cast<double>(delta->windows),
                  "count"});
  const double lookups = static_cast<double>(delta->hits + delta->decoded);
  out->push_back({"serve.cache_hit_ratio",
                  lookups == 0.0 ? 0.0
                                 : static_cast<double>(delta->hits) / lookups,
                  "ratio"});
  *busy_ms = m.histogram("serve.batch.score_ms").snapshot().sum;
  out->push_back({"serve.worker_busy_frac",
                  *busy_ms / (static_cast<double>(kWorkers) * wall_s * 1e3),
                  "ratio"});
}

}  // namespace

RunResult run_serve(const Options& opt, const Calibration& cal, bool diverse) {
  RunResult result;
  const std::string name = diverse ? "serve-diverse" : "serve-fleet";
  const double S = opt.seconds;

  const std::string artifact = ensure_fixture(opt.cache_dir);
  const std::vector<std::string> kept =
      io::ArtifactMap::open(artifact)->encrypter().kept_sensors();
  const Streams streams = make_streams(opt, diverse, kept);
  // Window capacity per session: about 4x each workload's saturation, so a
  // log never fills before the clock stops.
  const auto cap = static_cast<std::size_t>(
      S * (diverse ? 4000.0 : 40000.0) / kSessions + 256.0);
  std::vector<SessionLog> logs;
  logs.reserve(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) logs.emplace_back(cap);
  std::vector<float> ingest_us;
  if (opt.traced) ingest_us.reserve(static_cast<std::size_t>(S * 150000.0));
  result.lap("inputs");

  serve::ServeConfig cfg;
  cfg.detector = framework_config().detector;
  cfg.workers = kWorkers;
  cfg.limits.reject_when_full = true;
  cfg.limits.max_pending_windows = kSessionWindows;

  RssPeak rss;
  std::vector<double> restarts;
  {
    const obs::Span span("bench.cold_restarts");
    for (std::size_t r = 0; r < kSetups; ++r) {
      restarts.push_back(cold_restart(artifact, cfg, streams));
      rss.sample();
    }
  }
  result.lap("setup");

  const auto epoch = Clock::now();
  ServeHarness harness(artifact, cfg, streams, logs, rss, epoch);
  harness.prefix();
  result.lap("prefix");

  const std::vector<double>& ladder = cal.ladder_wps.at(name);
  std::vector<StepStats> steps;
  double saturation = 0.0;
  double overhead_pct = 0.0;
  double busy_ms = 0.0, mean_batch = 0.0, traced_wall = 0.0;
  ServeCounters delta;
  std::size_t sat_rejected = 0;

  // Closed-loop verdicts per second after `warm` seconds.
  const auto closed = [&](double seconds, double warm, std::uint8_t phase) {
    const auto t0 = Clock::now();
    sat_rejected += harness.closed_loop(seconds, phase);
    return polled_rate(logs, phase, harness.ns(t0 + to_duration(warm)),
                       harness.ns(t0 + to_duration(seconds)));
  };

  if (!opt.traced) {
    reset_serve_histograms();
    const ServeCounters before = ServeCounters::now();
    const obs::Span span("bench.saturation");
    saturation = closed(0.35 * S, 0.1 * S, kSaturationPhase);
    serve_layer_metrics(before, 0.35 * S, &result.detail, &busy_ms,
                        &mean_batch, &delta);
    result.lap("saturation");
    // Step lengths: the 50% step, whose latency is the end-to-end metric,
    // gets the most samples.
    const double step_s[4] = {0.1 * S, 0.3 * S, 0.1 * S, 0.15 * S};
    for (std::size_t i = 0; i < ladder.size() && i < 4; ++i) {
      const obs::Span step_span("bench.ladder_step");
      const double warm = 0.1 * step_s[i];
      const auto t0 = Clock::now();
      const auto phase = static_cast<std::uint8_t>(kLadderPhase + i);
      const std::size_t rejected =
          harness.open_loop(ladder[i], step_s[i], warm, phase);
      steps.push_back(analyze_step(
          logs, phase, harness.ns(t0 + to_duration(warm)),
          harness.ns(t0 + to_duration(step_s[i])), ladder[i], rejected,
          cal.latency_limit_ms));
    }
    result.lap("ladder");
  } else {
    // Fill the decode caches, then rounds of one untraced and one traced
    // closed loop: the host's speed swings within a second, so what is
    // compared must take turns. Ingest calls are timed in both halves.
    harness.closed_loop(0.1 * S, kWarmPhase);
    reset_serve_histograms();
    obs::metrics().histogram("threadpool.queue_wait_us").reset();
    const ServeCounters before = ServeCounters::now();
    harness.time_ingest(&ingest_us);
    std::vector<double> overhead;
    const double round_s = 0.06 * S;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < kTraceRounds; ++r) {
      const double untraced = closed(
          round_s, 0.1 * round_s, static_cast<std::uint8_t>(kUntracedPhase + r));
      obs::tracer().enable();
      const double traced = closed(
          round_s, 0.1 * round_s, static_cast<std::uint8_t>(kTracedPhase + r));
      obs::tracer().disable();
      overhead.push_back(trace_overhead_pct(untraced, traced));
    }
    traced_wall = seconds_between(t0, Clock::now());
    harness.time_ingest(nullptr);
    overhead_pct = median(std::move(overhead));
    serve_layer_metrics(before, traced_wall, &result.detail, &busy_ms,
                        &mean_batch, &delta);
    result.lap("saturation_traced");
  }
  harness.stop();
  if (harness.capped()) {
    result.errors.push_back("a session log filled up; raise its capacity");
  }

  // Every issued window must have been delivered exactly once, with a
  // verdict from every edge.
  std::size_t failed = 0, polled = 0;
  for (const SessionLog& log : logs) {
    for (std::size_t w = 0; w < log.flags.size(); ++w) {
      if (!(log.flags[w] & kPolled)) continue;
      ++polled;
      if (log.flags[w] & (kFailedEdges | kShed | kDegraded)) ++failed;
    }
  }
  if (polled != harness.issued()) {
    result.errors.push_back("issued " + std::to_string(harness.issued()) +
                            " windows but polled " + std::to_string(polled));
    failed += harness.issued() > polled ? harness.issued() - polled : 0;
  }
  if (failed > 0) {
    result.errors.push_back(std::to_string(failed) +
                            " windows failed, were shed or degraded");
  }
  result.attempted += harness.issued();
  result.failed += failed;

  {
    const obs::Span span("bench.gate");
    result.failed += gate(opt, artifact, streams, logs, &result);
  }
  Digest digest;
  for (const SessionLog& log : logs) {
    for (std::size_t w = 0; w < kDigestWindows; ++w) {
      digest.add(log.score[w]);
      digest.add(log.broken[w]);
    }
  }
  check_digest(cal, opt, name, digest.hex(), &result);
  result.lap("gate");

  std::vector<Metric>& d = result.detail;
  d.push_back({"bench.failed_frac",
               result.attempted == 0 ? 0.0
                                     : static_cast<double>(result.failed) /
                                           static_cast<double>(result.attempted),
               "ratio"});
  d.push_back({"bench.closed_loop_rejects", static_cast<double>(sat_rejected),
               "count"});
  if (!opt.traced) {
    double sustained = 0.0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const StepStats& st = steps[i];
      const std::string p = "serve.step" + std::to_string(i + 1) + ".";
      d.push_back({p + "rate_wps", st.rate, "windows/s"});
      d.push_back({p + "achieved_wps", st.achieved, "windows/s"});
      d.push_back({p + "verdict_p50_ms", st.p50_ms, "ms"});
      d.push_back({p + "verdict_p99_ms", st.p99_ms, "ms"});
      d.push_back({p + "samples", static_cast<double>(st.samples), "count"});
      d.push_back({p + "gen_lag_p99_ms", st.lag_p99_ms, "ms"});
      d.push_back({p + "backlog_slope", st.slope, "windows/s"});
      d.push_back({p + "rejected", static_cast<double>(st.rejected), "count"});
      d.push_back({p + "pass", st.pass ? 1.0 : 0.0, "bool"});
      if (st.pass) sustained = std::max(sustained, st.rate);
    }
    const StepStats half = steps.size() > 1 ? steps[1] : StepStats{};
    d.push_back({"sustained_wps", sustained, "windows/s"});
    d.push_back({"verdict_p50_ms", half.p50_ms, "ms"});
    d.push_back({"verdict_p99_ms", half.p99_ms, "ms"});
    d.push_back({"verdict_samples", static_cast<double>(half.samples), "count"});
    d.push_back({"bench.gen_lag_p99_ms", half.lag_p99_ms, "ms"});
    if (half.lag_p99_ms > 0.1 * cal.latency_limit_ms) {
      result.warnings.push_back(
          "invalid latency: generator lag p99 " +
          std::to_string(half.lag_p99_ms) + " ms exceeds 10% of the limit");
    }
    result.end_to_end = {
        {"throughput", saturation, "1/s"},
        {"setup_s", median(restarts), "s"},
        {"rss_mb", rss.growth_mib(), "MiB"},
    };
    return result;
  }

  // Traced run: probes on session 0's stream, then the layer accounting of
  // the traced phase (generator ingest time plus worker scoring time).
  const core::Framework fw = load_fixture(artifact);
  const TickTable& table = streams.table(0);
  core::MultivariateSeries series;
  for (std::size_t k = 0; k < table.sensors.size(); ++k) {
    core::SensorSeries sensor{table.sensors[k], {}};
    for (std::size_t t = 0; t < (kTrainDays + kDevDays) * kMinutesPerDay; ++t) {
      const std::size_t row = streams.row(0, t);
      sensor.events.push_back(
          table.states[k][table.rows[row * table.sensors.size() + k]]);
    }
    series.push_back(std::move(sensor));
  }
  const LayerCosts costs = probe_layers({&fw, &series, artifact, opt.seed},
                                        &result);
  result.lap("probes");

  std::vector<double> ingest(ingest_us.begin(), ingest_us.end());
  d.push_back({"serve.ingest_us.p50", quantile(ingest, 0.5), "us"});
  d.push_back({"serve.ingest_us.p99", quantile(ingest, 0.99), "us"});
  d.push_back({"serve.ingest_calls", static_cast<double>(ingest.size()),
               "count"});
  double ingest_ms = 0.0;
  for (const double us : ingest) ingest_ms += us * 1e-3;
  const double scored = static_cast<double>(delta.windows) *
                        static_cast<double>(fw.graph().edges().size());
  const double accounted_ms =
      (static_cast<double>(ingest.size()) * costs.assemble_us +
       static_cast<double>(delta.decoded) *
           batch_row_cost_us(costs, mean_batch) +
       scored * costs.sentence_bleu_us) *
      1e-3;
  std::vector<Metric>& l = result.per_layer;
  l.push_back({"util.pool_queue_wait_us.p99",
               obs::metrics()
                   .histogram("threadpool.queue_wait_us")
                   .snapshot()
                   .quantile(0.99),
               "us"});
  l.push_back({"bench.worker_busy_frac",
               busy_ms / (static_cast<double>(kWorkers) * traced_wall * 1e3),
               "ratio"});
  l.push_back({"bench.layer_accounted_frac",
               accounted_ms / std::max(busy_ms + ingest_ms, 1e-9), "ratio"});
  l.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
  return result;
}

}  // namespace desmine::e2e
