// Nested phase tracing: RAII spans collected into a process-wide trace tree.
//
// A Span marks one timed phase (encrypt -> language -> mine -> per-pair
// train -> bleu-score -> detect). Spans opened on the same thread nest via a
// thread-local stack; spans opened on pool workers become roots of their
// thread's track, which is exactly how chrome://tracing renders them. The
// tracer is disabled by default — a disabled Span is two relaxed atomic
// loads and no allocation — and is enabled by tools that export traces
// (desmine_cli --trace-out, bench dump_observability).
//
// ScopedTimer is the phase-level convenience: it opens a Span and, on
// destruction, records the elapsed milliseconds into the global histogram
// "phase.<name>.wall_ms" so metrics dumps carry per-phase wall clock even
// when tracing is off.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/log.h"      // Field / kv
#include "obs/metrics.h"  // Histogram

namespace desmine::obs {

struct SpanRecord {
  static constexpr std::uint32_t kNoParent = 0xffffffff;

  std::string name;
  std::vector<Field> attrs;
  std::uint64_t start_ns = 0;  ///< since the tracer's epoch (steady clock)
  std::uint64_t end_ns = 0;    ///< 0 while the span is still open
  std::uint32_t parent = kNoParent;
  std::uint64_t thread_id = 0;

  bool finished() const { return end_ns != 0; }
};

class Span;
class Tracer;

/// Handle to a recorded span, detachable from the thread that opened it.
/// Carried by value through queues (e.g. serve::PendingWindow) so work that
/// hops threads keeps one connected trace tree instead of severing at every
/// pool handoff. Invalid (default) contexts are inert: passing one as a
/// parent makes the child a root, finishing one is a no-op.
struct SpanContext {
  const Tracer* tracer = nullptr;
  std::uint32_t id = SpanRecord::kNoParent;

  bool valid() const {
    return tracer != nullptr && id != SpanRecord::kNoParent;
  }
};

/// Collects finished spans. All mutation happens through Span or the
/// explicit cross-thread API (start_span / finish_span / record_complete).
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Open a span that is NOT tied to this thread's RAII stack: the returned
  /// context may be carried to any thread and closed there with
  /// finish_span(). `parent` parents explicitly (invalid context = root).
  /// Returns an invalid context while the tracer is disabled.
  SpanContext start_span(std::string name, SpanContext parent = {},
                         std::vector<Field> attrs = {});
  /// Close a span opened by start_span(). No-op on invalid contexts.
  void finish_span(SpanContext ctx, std::vector<Field> extra_attrs = {});

  /// Retroactively append an already-finished span with explicit steady-
  /// clock endpoints — used to reconstruct per-stage child spans from
  /// timestamps gathered while the work flowed through queues. Returns an
  /// invalid context while disabled.
  SpanContext record_complete(std::string name, SpanContext parent,
                              std::chrono::steady_clock::time_point start,
                              std::chrono::steady_clock::time_point end,
                              std::vector<Field> attrs = {});

  /// Drop all records and restart the epoch. Not safe with open spans.
  void reset();

  /// Copy of the recorded spans (finished and still-open).
  std::vector<SpanRecord> records() const;

  /// chrome://tracing "traceEvents" document ("X" complete events; ts/dur in
  /// microseconds). Open spans are skipped.
  std::string to_chrome_json() const;

  /// Nested tree: {"spans": [{name, start_ms, duration_ms, attrs, children:
  /// [...]}]}. Roots are spans without a finished parent on their thread.
  std::string to_tree_json() const;

 private:
  friend class Span;

  std::uint32_t begin_span(std::string name, std::vector<Field> attrs);
  void end_span(std::uint32_t id, std::vector<Field> extra_attrs);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// The process-wide tracer the pipeline reports into.
Tracer& tracer();

/// RAII span on the global tracer. No-op (and allocation-free) while the
/// tracer is disabled.
class Span {
 public:
  explicit Span(std::string name, std::vector<Field> attrs = {});
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a field to the span's record when it closes (e.g. a result
  /// computed mid-phase like a BLEU score).
  void annotate(Field field);

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  bool active() const { return id_ != kInactive; }

 private:
  static constexpr std::uint32_t kInactive = 0xffffffff;

  std::uint32_t id_ = kInactive;
  std::chrono::steady_clock::time_point start_;
  std::vector<Field> late_attrs_;
};

/// RAII phase timer: a Span plus a metrics record. On destruction the
/// elapsed milliseconds land in histogram "phase.<name>.wall_ms" (or an
/// explicit histogram), so phase wall clock shows up in metrics dumps
/// whether or not tracing is enabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(const std::string& phase,
                       std::vector<Field> attrs = {});
  ScopedTimer(std::string span_name, Histogram& sink,
              std::vector<Field> attrs = {});
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attach a field to the span's record when it closes (Span::annotate).
  void annotate(Field field) { span_.annotate(std::move(field)); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  Span span_;
  Histogram& sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace desmine::obs
