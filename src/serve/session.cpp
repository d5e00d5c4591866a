#include "serve/session.h"

#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "robust/fault_injector.h"
#include "util/error.h"

namespace desmine::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

Session::Session(std::uint64_t id, const ModelRegistry& registry,
                 core::SensorEncrypter encrypter, core::WindowConfig window,
                 core::DegradedConfig degraded, SessionLimits limits,
                 TelemetryPolicy telemetry)
    : id_(id),
      registry_(registry),
      limits_(limits),
      telemetry_(telemetry),
      degraded_enabled_(degraded.enabled),
      assembler_(std::move(encrypter), window, degraded) {
  DESMINE_EXPECTS(limits_.max_pending_windows > 0,
                  "max_pending_windows must be > 0");
  DESMINE_EXPECTS(limits_.max_consecutive_shed > 0,
                  "max_consecutive_shed must be > 0");
}

IngestStatus Session::ingest(const std::map<std::string, std::string>& states,
                             std::unique_ptr<PendingWindow>* to_schedule) {
  static obs::Counter& ticks = obs::metrics().counter("serve.ticks");
  static obs::Counter& rejected =
      obs::metrics().counter("serve.ingest.rejected");
  DESMINE_EXPECTS(to_schedule != nullptr, "ingest needs an output slot");
  to_schedule->reset();
  std::unique_lock lock(mu_);
  if (closed_) return IngestStatus::kClosed;
  // Backpressure gates every tick once the budget is full — not only the
  // window-completing ones — so a blocked or rejected tick is never
  // half-consumed and the caller can always retry the same sample.
  while (pending_locked() >= limits_.max_pending_windows) {
    if (limits_.reject_when_full) {
      rejected.inc();
      return IngestStatus::kRejected;
    }
    cv_.wait(lock);
    if (closed_) return IngestStatus::kClosed;
  }

  // Chaos point: drop loses this tick like a gap in the feed, throw raises
  // to the caller with the tick unconsumed, delay stalls this session.
  switch (robust::fire_fault("serve.ingest",
                             static_cast<std::int64_t>(id_))) {
    case robust::FaultAction::kThrow:
      throw RuntimeError("injected serve.ingest fault on session " +
                         std::to_string(id_));
    case robust::FaultAction::kDrop:
      return IngestStatus::kAccepted;
    case robust::FaultAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(robust::kDelayMillis));
      break;
    default:
      break;
  }

  std::optional<core::WindowAssembler::Window> window =
      assembler_.push(states);
  ticks.inc();
  if (!window) return IngestStatus::kAccepted;

  // Snapshot the generation this window will score against: a concurrent
  // hot reload affects the NEXT window, never a window already assembled.
  std::shared_ptr<const ModelGeneration> gen = registry_.current();

  auto pending = std::make_unique<PendingWindow>();
  pending->session_id = id_;
  pending->window_index = window->window_index;
  pending->end_tick = window->end_tick;
  pending->generation = gen;
  pending->spans = std::move(window->spans);
  pending->unhealthy = std::move(window->unhealthy);
  pending->masked = degraded_enabled_;
  pending->sheddable = sheds_in_row_ < limits_.max_consecutive_shed;
  pending->enqueued = std::chrono::steady_clock::now();
  // Root span of the window's end-to-end trace; carried by value through
  // the scheduler's thread handoffs, closed at delivery (invalid context —
  // hence free — while tracing is disabled).
  pending->span = obs::tracer().start_span(
      "serve.window", {},
      {obs::kv("session", id_), obs::kv("window", pending->window_index)});

  // The per-window valid set: the generation's edge plan when every sensor
  // is healthy, else the plan minus the edges incident to an unhealthy
  // sensor (core::is_excluded), in a list of the window's own.
  if (pending->unhealthy.empty()) {
    pending->edges = gen->edge_plan;
  } else {
    const std::vector<std::uint8_t> bad =
        core::unhealthy_flags(pending->unhealthy, pending->spans.sensors());
    for (const std::size_t e : gen->edge_plan) {
      const EdgeModel& edge = gen->edges[e];
      if (!core::is_excluded(bad, edge.src, edge.dst)) {
        pending->own_edges.push_back(e);
      }
    }
    pending->edges = pending->own_edges;
  }
  pending->edge_bleu.assign(pending->edges.size(), 0.0);
  pending->edge_status.assign(pending->edges.size(), 0);
  pending->remaining = pending->edges.size();

  ++inflight_;
  if (pending->edges.empty()) {
    // Nothing to score (no valid edges, or every edge excluded): finalize
    // inline so the window still emits its no-verdict result in order.
    lock.unlock();
    finalize(std::move(pending));
    return IngestStatus::kAccepted;
  }
  *to_schedule = std::move(pending);
  return IngestStatus::kAccepted;
}

core::WindowVerdict Session::finalize(std::unique_ptr<PendingWindow> window) {
  static obs::Counter& windows_scored =
      obs::metrics().counter("serve.windows_scored");
  // The resolved window is exclusively ours here; compute the result before
  // taking the session lock.
  const ModelGeneration& gen = *window->generation;
  WindowResult out;
  out.window_index = window->window_index;
  out.end_tick = window->end_tick;
  out.unhealthy = std::move(window->unhealthy);
  core::WindowVerdict verdict;
  if (window->shed) {
    // Dropped by deadline shedding: a counted no-verdict placeholder keeps
    // the stream's window indices contiguous.
    out.shed = true;
  } else {
    std::size_t surviving = 0;
    std::size_t broken = 0;
    for (std::size_t i = 0; i < window->edges.size(); ++i) {
      const EdgeModel& edge = gen.edges[window->edges[i]];
      if (window->edge_status[i] !=
          static_cast<std::uint8_t>(SlotStatus::kScored)) {
        // Decode failure or open breaker: the edge drops out of this
        // window's score exactly like a health-masked edge would.
        out.failed.emplace_back(edge.src, edge.dst);
        continue;
      }
      ++surviving;
      if (core::is_broken(gen.detector, window->edge_bleu[i],
                          edge.train_bleu)) {
        ++broken;
        out.broken.emplace_back(edge.src, edge.dst);
      }
    }
    verdict = core::window_verdict(gen.detector, gen.edges.size(), surviving,
                                   broken,
                                   window->masked || !out.failed.empty());
    if (verdict.degraded) {
      obs::metrics().counter("detect.window.degraded").inc();
    }
    if (!out.failed.empty()) {
      obs::metrics().counter("serve.window.failed_edges")
          .inc(out.failed.size());
    }
  }
  out.anomaly_score = verdict.anomaly_score;
  out.coverage = verdict.coverage;
  out.degraded = verdict.degraded;

  windows_scored.inc();

  Delivery delivery;
  delivery.result = std::move(out);
  delivery.span = window->span;
  delivery.enqueued = window->enqueued;
  delivery.first_dequeue = window->first_dequeue;
  delivery.last_dequeue = window->last_dequeue;
  delivery.scored_done = window->scored_done;
  delivery.scheduled = !window->edges.empty();
  const std::size_t index = delivery.result.window_index;
  const bool shed = delivery.result.shed;

  {
    std::lock_guard lock(mu_);
    --inflight_;
    sheds_in_row_ = shed ? sheds_in_row_ + 1 : 0;
    if (shed) ++shed_total_;
    enqueue_result_locked(index, std::move(delivery));
  }
  cv_.notify_all();
  return verdict;
}

void Session::enqueue_result_locked(std::size_t window_index,
                                    Delivery delivery) {
  reorder_.emplace(window_index, std::move(delivery));
  while (!reorder_.empty() && reorder_.begin()->first == next_emit_) {
    Delivery& next = reorder_.begin()->second;
    // Delivery is the true end of the window's life cycle: latency and the
    // reorder stage both close here, not when the score landed.
    deliver_telemetry(next, std::chrono::steady_clock::now());
    completed_.push_back(std::move(next.result));
    reorder_.erase(reorder_.begin());
    ++next_emit_;
  }
}

void Session::deliver_telemetry(
    const Delivery& d, std::chrono::steady_clock::time_point delivered) {
  static obs::Histogram& latency =
      obs::metrics().histogram("serve.window.latency_ms");
  static obs::Histogram& queue_ms =
      obs::metrics().histogram("serve.stage.queue_ms");
  static obs::Histogram& batch_form_ms =
      obs::metrics().histogram("serve.stage.batch_form_ms");
  static obs::Histogram& decode_ms =
      obs::metrics().histogram("serve.stage.decode_ms");
  static obs::Histogram& reorder_ms =
      obs::metrics().histogram("serve.stage.reorder_ms");
  static obs::SlidingHistogram& recent_latency =
      obs::telemetry().sliding("serve.window.latency_ms");

  const double latency_ms = ms_between(d.enqueued, delivered);

  if (d.result.shed) {
    // A shed window was never scored; its age goes to the shedding
    // telemetry, NOT the serving latency distributions — p99 latency stays
    // the latency of accepted windows.
    obs::metrics().histogram("serve.shed.age_ms").record(latency_ms);
    if (d.span.valid()) {
      obs::tracer().finish_span(
          d.span, {obs::kv("shed", true), obs::kv("age_ms", latency_ms)});
    }
    return;
  }

  latency.record(latency_ms);
  recent_latency.record(latency_ms);

  double stage_ms[4] = {0.0, 0.0, 0.0, 0.0};
  if (d.scheduled) {
    stage_ms[0] = ms_between(d.enqueued, d.first_dequeue);
    stage_ms[1] = ms_between(d.first_dequeue, d.last_dequeue);
    stage_ms[2] = ms_between(d.last_dequeue, d.scored_done);
    stage_ms[3] = ms_between(d.scored_done, delivered);
    queue_ms.record(stage_ms[0]);
    batch_form_ms.record(stage_ms[1]);
    decode_ms.record(stage_ms[2]);
    reorder_ms.record(stage_ms[3]);
  }

  if (d.span.valid()) {
    obs::Tracer& tr = obs::tracer();
    if (d.scheduled) {
      tr.record_complete("serve.stage.queue", d.span, d.enqueued,
                         d.first_dequeue);
      tr.record_complete("serve.stage.batch_form", d.span, d.first_dequeue,
                         d.last_dequeue);
      tr.record_complete("serve.stage.decode", d.span, d.last_dequeue,
                         d.scored_done);
      tr.record_complete("serve.stage.reorder", d.span, d.scored_done,
                         delivered);
    }
    tr.finish_span(d.span, {obs::kv("score", d.result.anomaly_score),
                            obs::kv("latency_ms", latency_ms)});
  }

  if (telemetry_.slow_window_ms > 0.0 &&
      latency_ms > telemetry_.slow_window_ms) {
    obs::metrics().counter("serve.window.slow").inc();
    // The window's span tree, inline, so a JSON-lines sink yields one
    // self-contained record per slow window (schema: DESIGN.md §12).
    obs::JsonWriter w;
    w.begin_object();
    w.key("name").value("serve.window");
    w.key("duration_ms").value(latency_ms);
    w.key("children").begin_array();
    static constexpr const char* kStageNames[4] = {
        "serve.stage.queue", "serve.stage.batch_form", "serve.stage.decode",
        "serve.stage.reorder"};
    for (std::size_t s = 0; s < 4; ++s) {
      w.begin_object();
      w.key("name").value(kStageNames[s]);
      w.key("duration_ms").value(d.scheduled ? stage_ms[s] : 0.0);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    DESMINE_LOG_WARN("slow window",
                     {obs::kv("session", id_),
                      obs::kv("window", d.result.window_index),
                      obs::kv("latency_ms", latency_ms),
                      obs::kv("queue_ms", stage_ms[0]),
                      obs::kv("batch_form_ms", stage_ms[1]),
                      obs::kv("decode_ms", stage_ms[2]),
                      obs::kv("reorder_ms", stage_ms[3]),
                      obs::kv("trace", w.str())});
  }
}

std::optional<WindowResult> Session::poll() {
  std::optional<WindowResult> out;
  {
    std::lock_guard lock(mu_);
    if (completed_.empty()) return std::nullopt;
    out = std::move(completed_.front());
    completed_.pop_front();
    ++delivered_;
  }
  cv_.notify_all();  // budget freed: wake a blocked ingest
  return out;
}

void Session::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Session::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

void Session::drain() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return inflight_ == 0 && reorder_.empty(); });
}

Session::Stats Session::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.ticks = assembler_.ticks();
  s.windows_assembled = assembler_.windows_emitted();
  s.windows_delivered = delivered_;
  s.pending = pending_locked();
  s.shed = shed_total_;
  return s;
}

}  // namespace desmine::serve
