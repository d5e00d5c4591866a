// Cross-session batched scoring (the serving layer's hot path).
//
// Detection sessions emit sentence-windows; each window must be scored by
// every valid edge model f(i, j). Scoring one window at a time (what
// OnlineDetector does) decodes each source sentence alone. The scheduler
// instead queues each window once, and a worker claims up to
// SchedulerConfig::max_batch queued windows for ONE edge and scores their
// (window, edge) items in one score_batch pass. Each item is answered by
// the cheapest layer that can:
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
// f is always nmt::kBleu, the BLEU the miner scored s(i, j) with: no
// scheduler, session or generation setting can pick another.
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
// Queueing: one queue of windows per generation, appended once per window.
// Each edge state keeps a cursor into its generation's queue; a worker
// claims an edge's next <= max_batch windows that include it, skipping the
// windows that exclude it (degraded sessions), and the queue drops windows
// from its front once every edge they include has claimed them. A window
// owns itself in flight: submit releases it, and the worker whose slot
// resolution counts its `remaining` down to zero hands it to on_scored.
//
// Fault tolerance (DESIGN.md §13):
//  * A window carries a shared_ptr to the ModelGeneration it was ingested
//    under and scores against exactly those models (and that generation's
//    memos); set_current_generation() retires the other generations'
//    tables, which are erased — releasing their models and memos — once no
//    window of theirs is unclaimed and no worker holds one of their edges.
//  * The shed and breaker dispositions and the serve.decode fault point come
//    before the memo, so they act on memo-answerable items exactly as on
//    the others. A throwing decode never kills a worker: the batch's slots
//    resolve as kFailed error results and flow through the session's
//    reorder buffer like any score. After `circuit_open_after` consecutive
//    failed batches the edge's circuit breaker opens — its claimed windows
//    resolve as kQuarantined without touching the model — and after
//    `circuit_probe_after` quarantined windows the breaker goes half-open
//    and probes with a single-window batch (success closes it, failure
//    reopens).
//  * Deadline shedding: when `max_queue_delay_ms` > 0, a sheddable window
//    older than the deadline when an edge claims it is marked shed; all its
//    slots resolve as kShed and the session emits a counted `shed` result
//    instead of scoring stale data.
//
// Concurrency contract (TSan-clean by construction):
//  * The queues, cursors, busy flags, breakers and the generation tables
//    are guarded by one mutex. A batch costs one critical section: a worker
//    hands back the edge it held for its previous batch (breaker
//    bookkeeping included) and claims the next edge's batch in the same
//    lock round (run_one(Worker&)). Per-window work under the mutex is one
//    queue append in submit and one claim per (window, edge).
//  * An edge state is scored by at most one worker at a time (busy flag,
//    held from its claim to the worker's next critical section), so its
//    model, decode cache and span memo need no own locks.
//  * Slots resolve without the mutex. A window's edge_bleu/edge_status
//    slots are disjoint per edge; `remaining` is an atomic count-down, and
//    the acq_rel decrement that reaches zero sees every other slot's writes
//    and the claim-time fields (shed, stage stamps) before the window is
//    handed on.
//  * Wake-up rule: a worker waits on the condition variable only while no
//    edge is claimable (free, with unclaimed windows past its cursor).
//    submit wakes one worker when one is waiting; a worker that claims and
//    leaves another edge claimable wakes the next. stop() and the claim of
//    the last unclaimed window while stopping wake them all.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/edge_scorer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"

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
  /// Indices into generation->edges to score (ascending; excluded absent):
  /// the generation's edge_plan when every sensor is healthy, else
  /// `own_edges`.
  std::span<const std::size_t> edges;
  /// The window's own edge list, when some sensor's edges are excluded.
  std::vector<std::size_t> own_edges;
  /// f(i, j) per entry of `edges`, filled by workers (disjoint slots).
  std::vector<double> edge_bleu;
  /// SlotStatus per entry of `edges` (disjoint slots, like edge_bleu).
  std::vector<std::uint8_t> edge_status;
  /// False once the session's consecutive-shed guard kicked in: the window
  /// must be scored even when older than the shedding deadline.
  bool sheddable = true;
  /// Set under the scheduler mutex when the deadline shed this window.
  bool shed = false;
  /// Unresolved slots: starts at edges.size(), counted down once per slot
  /// without the scheduler mutex; the worker that reaches zero delivers.
  std::atomic<std::size_t> remaining{0};

  /// End-to-end trace handle: the "serve.window" root span opened at
  /// ingest, carried across the scheduler's thread handoffs and closed at
  /// delivery (invalid while tracing is disabled).
  obs::SpanContext span;
  /// Stage timeline, stamped as the window flows through the scheduler:
  /// enqueued <= first_dequeue (its first edge claim) <= last_dequeue (its
  /// last edge claim) <= scored_done (its last slot resolved). Session
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
  /// Consecutive failed batches before an edge's breaker opens (0 disables
  /// the circuit breaker: failures still resolve as error results).
  std::size_t circuit_open_after = 5;
  /// Quarantined items before an open breaker goes half-open and probes.
  std::size_t circuit_probe_after = 16;
  /// Shed sheddable windows older than this when an edge claims them (0
  /// disables).
  double max_queue_delay_ms = 0.0;
};

class BatchScheduler {
 public:
  /// One scoring thread's side of the scheduler: the edge it holds from one
  /// batch to its next critical section, and scratch buffers reused across
  /// batches. Used by one thread at a time.
  class Worker;

  /// `initial` pins the starting generation id; a generation's edge states
  /// are created when its first window arrives. `on_scored` receives each
  /// fully resolved window, called from a worker thread with no scheduler
  /// lock held.
  BatchScheduler(const std::shared_ptr<const ModelGeneration>& initial,
                 SchedulerConfig config,
                 std::function<void(std::unique_ptr<PendingWindow>)> on_scored);
  /// Frees the windows still queued (none once stop() has drained). No
  /// worker may be running.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queue `window` for every edge it lists (window->edges must be
  /// non-empty and ascending; remaining must equal edges.size()). A window
  /// on its generation's edge_plan skips the order check, which the plan
  /// meets by construction. The window owns itself until its last slot
  /// resolves.
  void submit(std::unique_ptr<PendingWindow> window);

  /// Worker loop body: hand back the edge `worker` held, wait for a
  /// claimable edge, and score one batch of its windows, all in one lock
  /// round. Returns false once stop() was called and every queued window is
  /// claimed (`worker` then holds nothing) — run as
  /// `while (run_one(worker)) {}` on pool threads. Never throws on decode
  /// failure (worker supervision).
  bool run_one(Worker& worker);
  /// run_one on a worker of its own, whose edge is handed back before
  /// returning (a second lock round): drives the scheduler from a thread
  /// that does not loop.
  bool run_one();

  /// Retire every generation other than `id`: idle tables are erased
  /// immediately (dropping their model references and memos), the others
  /// as soon as they drain. Called by SessionManager::reload after
  /// publishing the new generation.
  void set_current_generation(std::uint64_t id);

  /// Let workers drain what is queued, then have run_one() return false.
  void stop();

 private:
  /// One claimed (window, edge) slot.
  struct Item {
    PendingWindow* window = nullptr;
    std::size_t slot = 0;  ///< index into window->edges / edge_bleu / status
    SlotStatus status = SlotStatus::kScored;  ///< set when settled at claim
  };

  enum class Breaker : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Generation;

  /// One (generation, edge): the unit of claiming, caching and breaking.
  struct EdgeState {
    Generation* owner = nullptr;
    std::size_t edge_id = 0;
    /// Sequence number of the next queued window of `owner` to look at;
    /// below owner->base means owner->base (every window before it is
    /// claimed by each edge it includes).
    std::size_t cursor = 0;
    bool busy = false;
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

  /// One queued window and the number of its edges yet to claim it. A
  /// window whose count is zero may already be delivered and freed, so its
  /// pointer is never read again.
  struct Queued {
    PendingWindow* window = nullptr;
    std::size_t unclaimed = 0;
  };

  /// Every edge state of one generation, indexed by edge id, and the
  /// generation's window queue.
  struct Generation {
    explicit Generation(std::shared_ptr<const ModelGeneration> g)
        : generation(std::move(g)), states(generation->edges.size()) {}
    std::shared_ptr<const ModelGeneration> generation;
    std::vector<EdgeState> states;
    /// Windows in submit order; windows.front() has sequence number `base`.
    std::deque<Queued> windows;
    std::size_t base = 0;
    std::size_t next_state = 0;  ///< where the claim scan starts (round-robin)
    /// Superseded; erase the table once `windows` is empty and `busy` is 0.
    bool retired = false;
    std::size_t busy = 0;  ///< states a worker holds
  };

  /// Claim a batch from the first claimable edge, round-robin over each
  /// live generation's edges; false when no edge has work.
  bool claim_locked(Worker& worker);
  /// Claim `state`'s next windows into `worker`: up to max_batch (one when
  /// half-open) join its batch, and the shed and quarantined ones settle
  /// with their status. False, with the cursor at the queue's end, when no
  /// queued window includes the edge.
  bool take_locked(Generation& g, EdgeState& state, Worker& worker);
  /// True when some free edge has queued windows past its cursor.
  bool claimable_locked() const;
  /// True when no window is queued in any generation.
  bool drained_locked() const;
  /// Hand back the edge `worker` holds: breaker bookkeeping for its scored
  /// batch, then the busy flag, and the table of a drained retired
  /// generation.
  void release_locked(Worker& worker);

  /// Erase `g` when it is retired and nothing of it is queued or held.
  void erase_if_drained_locked(Generation* g);

  /// Record `item`'s status and count its window down; the window that
  /// reaches zero joins `worker`'s completed list. No lock needed.
  static void resolve(const Item& item, SlotStatus status, Worker& worker);

  /// Hand `worker`'s completed windows to on_scored.
  void deliver(Worker& worker);

  /// Score `worker`'s batch against `state`'s edge model. Runs without the
  /// scheduler lock; exclusive state access is guaranteed by the busy flag.
  /// Throws on decode failure (including injected serve.decode faults).
  void score_batch(EdgeState& state, Worker& worker);

  const SchedulerConfig config_;
  const core::EdgeScorer scorer_;
  const std::function<void(std::unique_ptr<PendingWindow>)> on_scored_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t current_generation_ = 0;
  /// Live generations' tables, oldest first (one, or a few across reloads).
  std::vector<std::unique_ptr<Generation>> generations_;
  std::size_t waiting_ = 0;  ///< workers blocked in cv_.wait
  bool stopping_ = false;
};

class BatchScheduler::Worker {
 public:
  Worker() = default;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

 private:
  friend class BatchScheduler;
  /// The edge claimed for the last batch, handed back in the next critical
  /// section; null when the worker holds none.
  EdgeState* held = nullptr;
  bool probing = false;    ///< the held edge's batch is a half-open probe
  bool scored_ok = true;   ///< the held edge's batch scored without throwing
  /// Claimed items to score; kept until the edge is handed back, which
  /// needs only its size.
  std::vector<Item> batch;
  std::vector<Item> settled;  ///< claimed items shed or quarantined
  std::vector<PendingWindow*> completed;  ///< windows to hand to on_scored
  std::vector<const Item*> misses;        ///< batch items the memo missed
  std::vector<const core::EncodedSentence*> sources;
  std::vector<const core::EncodedSentence*> references;
};

}  // namespace desmine::serve
