// Cross-session batched scoring (the serving layer's hot path).
//
// Detection sessions emit sentence-windows; each window must be scored by
// every valid edge model f(i, j). Scoring one window at a time (what
// OnlineDetector does) decodes each source sentence alone. The scheduler
// instead keeps one FIFO of (window, edge) work items per edge model, and a
// worker drains up to SchedulerConfig::max_batch items of ONE edge in one
// score_batch pass. Each item is answered by the cheapest layer that can:
//  1. the edge's span memo (SpanMemo): f(i, j) by the two sensors' raw
//     sentence characters. Within one (generation, edge) state f is a pure
//     function of the two spans, so a hit is the stored bits. Fleets that
//     replay one plant repeat the same pairs across sessions, and a window
//     whose edges all hit is never encoded, decoded or BLEU-scored.
//  2. core::EdgeScorer — the scoring step batch detection shares — for the
//     misses: the window's spans are cut into words and encoded once
//     (PendingWindow::encoded, through core::encode_span), the edge's
//     core::DecodeCache answers known sources, the rest decode once per
//     distinct source on the worker's thread arena, and sentence BLEU runs
//     once per distinct pair. The misses' f values then enter the memo.
// Every layer preserves IEEE-754 bit-identity with the sequential path:
// greedy decoding is deterministic and row-independent (see seq2seq.h), and
// memo hits are compared byte for byte, not by hash.
//
// The memo is on when `decode_cache` > 0. It holds at most kSpanMemoPairs
// pairs per edge and, like the DecodeCache, clears itself when full (epoch
// eviction). Both report to the serve.memo.{entries,bytes} gauges; items
// it answers count as serve.batch.cache_hits (nothing was decoded for them)
// and as serve.batch.pair_hits, and serve.windows_encoded counts the
// windows some miss had to encode.
//
// Edge state: one dense table per generation, indexed by edge id, created
// when the generation's first window arrives. The ready list holds pointers
// to the states with queued work. An in-flight window owns itself: submit
// releases it, and the item that resolves its last slot hands it to
// on_scored.
//
// Fault tolerance (DESIGN.md §13):
//  * A window carries a shared_ptr to the ModelGeneration it was ingested
//    under and scores against exactly those models (and that generation's
//    memos); set_current_generation() retires the other generations'
//    tables, which are erased — releasing their models and memos — once no
//    item of theirs is queued or being scored.
//  * The shed and breaker dispositions and the serve.decode fault point come
//    before the memo, so they act on memo-answerable items exactly as on
//    the others. A throwing decode never kills a worker: the batch's slots
//    resolve as kFailed error results and flow through the session's
//    reorder buffer like any score. After `circuit_open_after` consecutive
//    failed batches the edge's circuit breaker opens — its queued items
//    resolve as kQuarantined without touching the model — and after
//    `circuit_probe_after` quarantined items the breaker goes half-open and
//    probes with a single-item batch (success closes it, failure reopens).
//  * Deadline shedding: when `max_queue_delay_ms` > 0, a sheddable window
//    older than the deadline at item-pop time is marked shed; all its slots
//    resolve as kShed and the session emits a counted `shed` result instead
//    of scoring stale data.
//
// Concurrency contract (TSan-clean by construction):
//  * All queue, table and breaker bookkeeping happens under one mutex.
//  * An edge state is scored by at most one worker at a time (busy flag,
//    handed over under the mutex), so its model, decode cache and span memo
//    need no own locks.
//  * A window's edge_bleu/edge_status slots are disjoint per work item; the
//    finalize handoff happens only after the last slot's count-down under
//    the mutex.
//  * Wake-up rule: a worker waits on the condition variable only while the
//    ready list is empty. Whoever makes an edge ready (submit, or a worker
//    re-queueing a state) wakes one worker, and only when one is waiting; a
//    worker that takes a state and leaves more ready wakes the next. stop()
//    and the last drained item while stopping wake them all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "core/edge_scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "text/bleu.h"

namespace desmine::serve {

/// Per-slot outcome of one (window, edge) work item.
enum class SlotStatus : std::uint8_t {
  kScored = 0,       ///< edge_bleu slot holds a real f(i, j)
  kFailed = 1,       ///< decode threw; slot excluded, edge reported failed
  kQuarantined = 2,  ///< circuit breaker open; model not touched
  kShed = 3,         ///< window shed before this slot was scored
};

/// One sentence-window awaiting its per-edge scores. Created by a Session,
/// owned by itself while any score is outstanding (submit releases it), then
/// handed back (fully resolved) through the on_scored callback.
struct PendingWindow {
  std::uint64_t session_id = 0;
  std::size_t window_index = 0;  ///< per session, 0-based
  std::size_t end_tick = 0;
  /// The model generation this window scores against (snapshotted at
  /// ingest; never mixed within a window).
  std::shared_ptr<const ModelGeneration> generation;
  /// Each sensor node's sentence characters (WindowAssembler output).
  core::WindowSpans spans;
  /// One content hash per sensor's span, taken once, by the first scoring
  /// worker that needs the window: every edge's span memo lookup combines
  /// two of them.
  const std::vector<std::uint64_t>& span_hashes();
  /// `spans` cut into words and encoded against the generation's
  /// vocabularies (encode_window), once, by the first scoring worker whose
  /// span memo misses; the others wait on the once-flag, which also
  /// publishes the result to them. Counts serve.windows_encoded.
  const std::vector<core::EncodedSentence>& encoded();
  /// Node indices excluded from this window (degraded sessions only).
  std::vector<std::size_t> unhealthy;
  bool masked = false;  ///< session runs degraded-mode semantics
  /// Indices into generation->edges to score (ascending; excluded absent).
  std::vector<std::size_t> edges;
  /// f(i, j) per entry of `edges`, filled by workers (disjoint slots).
  std::vector<double> edge_bleu;
  /// SlotStatus per entry of `edges` (disjoint slots, like edge_bleu).
  std::vector<std::uint8_t> edge_status;
  /// False once the session's consecutive-shed guard kicked in: the window
  /// must be scored even when older than the shedding deadline.
  bool sheddable = true;
  /// Set (under the scheduler mutex) when the deadline shed this window.
  bool shed = false;
  /// Outstanding slots; guarded by the scheduler mutex.
  std::size_t remaining = 0;
  /// Work items already popped by workers; guarded by the scheduler mutex.
  std::size_t dequeued = 0;

  /// End-to-end trace handle: the "serve.window" root span opened at
  /// ingest, carried across the scheduler's thread handoffs and closed at
  /// delivery (invalid while tracing is disabled).
  obs::SpanContext span;
  /// Stage timeline, stamped as the window flows through the scheduler:
  /// enqueued <= first_dequeue <= last_dequeue <= scored_done. Session
  /// finalization turns the gaps into the serve.stage.* histograms and the
  /// per-stage child spans.
  std::chrono::steady_clock::time_point enqueued{};
  std::chrono::steady_clock::time_point first_dequeue{};
  std::chrono::steady_clock::time_point last_dequeue{};
  std::chrono::steady_clock::time_point scored_done{};

 private:
  std::once_flag hash_once_;
  std::vector<std::uint64_t> span_hashes_;
  std::once_flag encode_once_;
  std::vector<core::EncodedSentence> encoded_;
};

/// Most (source span, reference span) pairs one edge's span memo holds
/// before it clears itself.
inline constexpr std::size_t kSpanMemoPairs = 256;

/// One edge's memo of f(i, j) by the raw characters of its source and
/// reference sentences: a fixed open-addressing table of kSpanMemoPairs
/// entries in 2 * kSpanMemoPairs slots, allocated on the first insert. The
/// combined span hash picks the slot and a byte compare of both spans
/// decides a match. An entry costs 16 bytes plus its two spans' characters.
/// Not thread-safe: one scorer at a time.
class SpanMemo {
 public:
  /// The memoised f of (source, reference), or null. `source_hash` and
  /// `reference_hash` are the two spans' PendingWindow::span_hashes.
  const double* find(std::string_view source, std::uint64_t source_hash,
                     std::string_view reference,
                     std::uint64_t reference_hash) const;
  /// Memoise f of (source, reference) unless already memoised (or a span
  /// is longer than 65,535 characters); a full memo clears itself first.
  void insert(std::string_view source, std::uint64_t source_hash,
              std::string_view reference, std::uint64_t reference_hash,
              double f);

  std::size_t size() const { return entries_.size(); }
  /// Heap bytes held (capacities, not just sizes).
  std::size_t bytes() const;

 private:
  struct Entry {
    double f;
    std::uint32_t key;  ///< offset of source then reference bytes in keys_
    std::uint16_t source_length;
    std::uint16_t reference_length;
  };
  /// The slot holding (source, reference), or the empty slot where it
  /// belongs.
  std::size_t slot(std::string_view source, std::string_view reference,
                   std::uint64_t hash) const;

  std::vector<char> keys_;
  std::vector<Entry> entries_;
  std::vector<std::uint16_t> slots_;  ///< entry index + 1; 0 when empty
};

struct SchedulerConfig {
  /// Max sentence-windows one batched decode may stack per edge.
  std::size_t max_batch = 32;
  /// Per-edge source->translation cache entries (0 disables caching, and
  /// with it the span memo).
  std::size_t decode_cache = 4096;
  text::BleuOptions bleu{};
  /// Consecutive failed batches before an edge's breaker opens (0 disables
  /// the circuit breaker: failures still resolve as error results).
  std::size_t circuit_open_after = 5;
  /// Quarantined items before an open breaker goes half-open and probes.
  std::size_t circuit_probe_after = 16;
  /// Shed sheddable windows older than this at item-pop time (0 disables).
  double max_queue_delay_ms = 0.0;
};

class BatchScheduler {
 public:
  /// `initial` pins the starting generation id; a generation's edge states
  /// are created when its first window arrives. `on_scored` receives each
  /// fully resolved window, called from a worker thread with no scheduler
  /// lock held.
  BatchScheduler(const std::shared_ptr<const ModelGeneration>& initial,
                 SchedulerConfig config,
                 std::function<void(std::unique_ptr<PendingWindow>)> on_scored);
  /// Frees the windows still queued (none once stop() has drained).
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queue every edge score of `window` (window->edges must be non-empty;
  /// remaining must equal edges.size()). The window owns itself until its
  /// last slot resolves.
  void submit(std::unique_ptr<PendingWindow> window);

  /// Worker loop body: wait for a ready edge, score one batch of its queue.
  /// Returns false once stop() was called and every queued item is done —
  /// run as `while (run_one()) {}` on pool threads. Never throws on decode
  /// failure (worker supervision).
  bool run_one();

  /// Retire every generation other than `id`: idle tables are erased
  /// immediately (dropping their model references and memos), the others
  /// as soon as they drain. Called by SessionManager::reload after
  /// publishing the new generation.
  void set_current_generation(std::uint64_t id);

  /// Let workers drain what is queued, then have run_one() return false.
  void stop();

 private:
  struct Item {
    PendingWindow* window = nullptr;
    std::size_t slot = 0;  ///< index into window->edges / edge_bleu / status
  };

  enum class Breaker : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Generation;

  /// One (generation, edge): the unit of queueing, caching and breaking.
  struct EdgeState {
    Generation* owner = nullptr;
    std::size_t edge_id = 0;
    std::deque<Item> queue;
    bool busy = false;
    bool in_ready = false;
    /// Per-edge source->candidate memo. Greedy decoding is deterministic,
    /// so a hit is bit-identical to a fresh decode. Touched only by the
    /// worker currently holding the busy flag, like `spans`.
    core::DecodeCache cache;
    SpanMemo spans;
    /// Reports `cache` and `spans` to the serve.memo.* gauges, and takes
    /// them back out when the state is erased.
    core::MemoGauges memo_gauges{obs::metrics().gauge("serve.memo.entries"),
                                 obs::metrics().gauge("serve.memo.bytes")};
    Breaker breaker = Breaker::kClosed;
    std::size_t consecutive_failures = 0;  ///< failed batches since a success
    std::size_t skipped_since_open = 0;    ///< quarantined items since open
  };

  /// Every edge state of one generation, indexed by edge id.
  struct Generation {
    explicit Generation(std::shared_ptr<const ModelGeneration> g)
        : generation(std::move(g)), states(generation->edges.size()) {}
    std::shared_ptr<const ModelGeneration> generation;
    std::vector<EdgeState> states;
    /// Superseded; erase the table once `items` and `busy` reach zero.
    bool retired = false;
    std::size_t items = 0;  ///< submitted, not yet resolved
    std::size_t busy = 0;   ///< states a worker holds
  };

  /// Resolve one popped slot under mu_: record its status, count it down,
  /// and move the window to `completed` when it was the last slot.
  void resolve_locked(EdgeState& state, const Item& item, SlotStatus status,
                      std::vector<std::unique_ptr<PendingWindow>>* completed);

  /// Erase `g` when it is retired and nothing of it is queued or held.
  void erase_if_drained_locked(Generation* g);

  /// Score `batch` against `state`'s edge model. Runs without the scheduler
  /// lock; exclusive state access is guaranteed by the busy flag. Throws on
  /// decode failure (including injected serve.decode faults).
  void score_batch(EdgeState& state, const std::vector<Item>& batch);

  const SchedulerConfig config_;
  const core::EdgeScorer scorer_;
  const std::function<void(std::unique_ptr<PendingWindow>)> on_scored_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t current_generation_ = 0;
  /// Live generations' tables, oldest first (one, or a few across reloads).
  std::vector<std::unique_ptr<Generation>> generations_;
  std::deque<EdgeState*> ready_;  ///< states with work, round-robin
  std::size_t queued_items_ = 0;
  std::size_t waiting_ = 0;  ///< workers blocked in cv_.wait
  bool stopping_ = false;
};

}  // namespace desmine::serve
