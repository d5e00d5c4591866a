// One detection session of the serving layer.
//
// A Session wraps a core::WindowAssembler (per-sensor buffering, health
// tracking, strict/degraded ingestion — the exact machinery OnlineDetector
// uses) and the bookkeeping that deferred, out-of-order batched scoring
// needs: a bounded pending-window budget with block-or-reject backpressure,
// a reorder buffer so results are delivered in window order regardless of
// which edge batch finishes last, and a completed queue the client polls.
// Finalization decides each window with core::window_verdict, the verdict
// AnomalyDetector::detect() uses, so a served stream's scores are
// bit-identical to replaying it through an OnlineDetector.
//
// A tick does no string work on the ingesting thread: the assembler
// appends one cached letter per kept sensor, and a completed window leaves
// as its sensors' character spans (core::WindowSpans). Hashing them for the
// scheduler's span memos, and cutting them into words and encoding the
// words, happen at most once per window, on the scoring workers
// (PendingWindow::span_hashes, PendingWindow::encoded).
//
// Fault tolerance (DESIGN.md §13): every window snapshots the current
// ModelGeneration at ingest and scores against exactly that state, so hot
// reloads never mix models within a window. Slots a worker could not score
// (decode failure or open circuit breaker) surface as the result's `failed`
// edge list — the score renormalizes over the surviving edges like PR 3's
// degraded mode, and the min_coverage quorum gates the verdict. Windows the
// scheduler shed (deadline exceeded) deliver a counted no-verdict result
// with the `shed` flag instead of a late score; the consecutive-shed guard
// marks follow-up windows unsheddable so overload never starves a session
// entirely.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/anomaly.h"
#include "core/online.h"
#include "core/window_assembler.h"
#include "serve/batch_scheduler.h"
#include "serve/model_registry.h"

namespace desmine::serve {

/// Served results reuse the online detector's result shape — the serving
/// layer is a multi-session, batched OnlineDetector by contract.
using WindowResult = core::OnlineDetector::WindowResult;

/// Outcome of one ingest() call.
enum class IngestStatus {
  kAccepted,  ///< tick consumed (a window may have been queued for scoring)
  kRejected,  ///< backpressure, tick NOT consumed — retry the same tick
  kClosed,    ///< session closed, tick NOT consumed
};

/// Per-session flow-control limits.
struct SessionLimits {
  /// Upper bound on windows in flight for one session: queued for scoring,
  /// being scored, or scored but not yet polled. Bounds per-session memory
  /// and isolates a flooding session from the rest of the fleet.
  std::size_t max_pending_windows = 64;
  /// Full-budget policy: false blocks ingest() until the client polls (or
  /// the session closes); true returns kRejected immediately.
  bool reject_when_full = false;
  /// After this many consecutive shed windows the next window is marked
  /// unsheddable, guaranteeing forward progress under sustained overload.
  std::size_t max_consecutive_shed = 8;
};

/// Per-session telemetry knobs (SessionManager copies them out of
/// ServeConfig).
struct TelemetryPolicy {
  /// Windows whose end-to-end latency exceeds this emit their span tree as
  /// a warn-level JSON log record (0 disables the slow-window log).
  double slow_window_ms = 0.0;
};

class Session {
 public:
  /// `registry` outlives the session (SessionManager owns both); each
  /// window snapshots registry.current() at ingest.
  Session(std::uint64_t id, const ModelRegistry& registry,
          core::SensorEncrypter encrypter, core::WindowConfig window,
          core::DegradedConfig degraded, SessionLimits limits,
          TelemetryPolicy telemetry = {});

  /// Consume one tick. When the tick completes a window, `*to_schedule`
  /// receives the pending window to hand to the BatchScheduler (null
  /// otherwise — including when the window had nothing to score and was
  /// finalized inline). Applies backpressure per SessionLimits. Strict-mode
  /// sessions throw robust::MissingSensor on a missing kept sensor.
  IngestStatus ingest(const std::map<std::string, std::string>& states,
                      std::unique_ptr<PendingWindow>* to_schedule);

  /// Deliver a fully resolved window (BatchScheduler::on_scored). Computes
  /// the WindowResult, reorders, and wakes pollers/blocked ingests. Returns
  /// the delivered verdict (all zero for a shed window).
  core::WindowVerdict finalize(std::unique_ptr<PendingWindow> window);

  /// Pop the next completed window result, in window order.
  std::optional<WindowResult> poll();

  /// Refuse further ticks; in-flight windows still get scored and polled.
  void close();
  bool closed() const;

  /// Block until no submitted window awaits scoring (completed results may
  /// still be queued for poll()).
  void drain();

  std::uint64_t id() const { return id_; }
  bool degraded_enabled() const { return degraded_enabled_; }

  struct Stats {
    std::size_t ticks = 0;
    std::size_t windows_assembled = 0;
    std::size_t windows_delivered = 0;
    std::size_t pending = 0;  ///< in flight + awaiting poll
    std::size_t shed = 0;     ///< windows dropped by deadline shedding
  };
  Stats stats() const;

 private:
  /// A scored window parked in the reorder buffer: the result plus the
  /// trace handle and stage timeline it must keep until actual delivery —
  /// the reorder stage only ends when the window leaves in order.
  struct Delivery {
    WindowResult result;
    obs::SpanContext span;
    std::chrono::steady_clock::time_point enqueued{};
    std::chrono::steady_clock::time_point first_dequeue{};
    std::chrono::steady_clock::time_point last_dequeue{};
    std::chrono::steady_clock::time_point scored_done{};
    bool scheduled = false;  ///< went through the BatchScheduler
  };

  /// pending budget used: windows being scored + results not yet polled.
  std::size_t pending_locked() const {
    return inflight_ + reorder_.size() + completed_.size();
  }
  void enqueue_result_locked(std::size_t window_index, Delivery delivery);
  /// Record latency + stage histograms, close the window's span tree, and
  /// emit the slow-window log. Called at delivery time (in window order).
  void deliver_telemetry(const Delivery& d,
                         std::chrono::steady_clock::time_point delivered);

  const std::uint64_t id_;
  const ModelRegistry& registry_;
  const SessionLimits limits_;
  const TelemetryPolicy telemetry_;
  const bool degraded_enabled_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  core::WindowAssembler assembler_;
  bool closed_ = false;
  std::size_t inflight_ = 0;   ///< submitted to the scheduler, not finalized
  std::size_t next_emit_ = 0;  ///< next window index to deliver in order
  std::map<std::size_t, Delivery> reorder_;
  std::deque<WindowResult> completed_;
  std::size_t delivered_ = 0;
  std::size_t shed_total_ = 0;
  /// Consecutive shed windows at finalize time (finalize order approximates
  /// window order closely enough for the starvation guard).
  std::size_t sheds_in_row_ = 0;
};

}  // namespace desmine::serve
