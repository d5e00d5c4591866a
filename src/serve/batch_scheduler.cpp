#include "serve/batch_scheduler.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/fault_injector.h"
#include "util/error.h"

namespace desmine::serve {

namespace {

double age_ms(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string edge_name(const EdgeModel& edge) {
  return std::to_string(edge.src) + "->" + std::to_string(edge.dst);
}

/// One multiply-xorshift step over a word.
std::uint64_t mix(std::uint64_t h, std::uint64_t word) {
  h = (h ^ word) * 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

/// Content hash of one sensor's sentence characters.
std::uint64_t span_hash(std::string_view chars) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ chars.size();
  std::size_t at = 0;
  for (; at + 8 <= chars.size(); at += 8) {
    std::uint64_t word;
    std::memcpy(&word, chars.data() + at, 8);
    h = mix(h, word);
  }
  if (at < chars.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, chars.data() + at, chars.size() - at);
    h = mix(h, word);
  }
  return h;
}

/// The span memo's key hash of a (source, reference) pair.
std::uint64_t pair_hash(std::uint64_t source_hash,
                        std::uint64_t reference_hash) {
  return mix(source_hash, reference_hash * 0x9e3779b97f4a7c15ull);
}

}  // namespace

const std::vector<std::uint64_t>& PendingWindow::span_hashes() {
  std::call_once(hash_once_, [this] {
    span_hashes_.resize(spans.sensors());
    for (std::size_t k = 0; k < span_hashes_.size(); ++k) {
      span_hashes_[k] = span_hash(spans.sensor(k));
    }
  });
  return span_hashes_;
}

const std::vector<core::EncodedSentence>& PendingWindow::encoded() {
  std::call_once(encode_once_, [this] {
    static obs::Counter& windows_encoded =
        obs::metrics().counter("serve.windows_encoded");
    encoded_ = encode_window(*generation, spans);
    windows_encoded.inc();
  });
  return encoded_;
}

std::size_t SpanMemo::slot(std::string_view source,
                           std::string_view reference,
                           std::uint64_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash;; ++i) {
    const std::uint16_t s = slots_[i & mask];
    if (s == 0) return i & mask;
    const Entry& e = entries_[s - 1];
    if (e.source_length == source.size() &&
        e.reference_length == reference.size() &&
        std::memcmp(keys_.data() + e.key, source.data(), source.size()) ==
            0 &&
        std::memcmp(keys_.data() + e.key + source.size(), reference.data(),
                    reference.size()) == 0) {
      return i & mask;
    }
  }
}

const double* SpanMemo::find(std::string_view source,
                             std::uint64_t source_hash,
                             std::string_view reference,
                             std::uint64_t reference_hash) const {
  if (entries_.empty()) return nullptr;
  const std::uint16_t s =
      slots_[slot(source, reference, pair_hash(source_hash, reference_hash))];
  return s == 0 ? nullptr : &entries_[s - 1].f;
}

void SpanMemo::insert(std::string_view source, std::uint64_t source_hash,
                      std::string_view reference,
                      std::uint64_t reference_hash, double f) {
  if (source.size() > 0xFFFF || reference.size() > 0xFFFF) return;
  const std::uint64_t hash = pair_hash(source_hash, reference_hash);
  if (slots_.empty()) slots_.assign(2 * kSpanMemoPairs, 0);
  std::size_t at = slot(source, reference, hash);
  if (slots_[at] != 0) return;  // a batch's repeated miss
  if (entries_.size() == kSpanMemoPairs) {
    keys_.clear();
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    at = slot(source, reference, hash);
  }
  entries_.push_back({f, static_cast<std::uint32_t>(keys_.size()),
                      static_cast<std::uint16_t>(source.size()),
                      static_cast<std::uint16_t>(reference.size())});
  keys_.insert(keys_.end(), source.begin(), source.end());
  keys_.insert(keys_.end(), reference.begin(), reference.end());
  slots_[at] = static_cast<std::uint16_t>(entries_.size());
}

std::size_t SpanMemo::bytes() const {
  return keys_.capacity() + entries_.capacity() * sizeof(Entry) +
         slots_.capacity() * sizeof(std::uint16_t);
}

BatchScheduler::BatchScheduler(
    const std::shared_ptr<const ModelGeneration>& initial,
    SchedulerConfig config,
    std::function<void(std::unique_ptr<PendingWindow>)> on_scored)
    : config_(config),
      scorer_({config.decode_cache}),
      on_scored_(std::move(on_scored)) {
  DESMINE_EXPECTS(config_.max_batch > 0, "max_batch must be > 0");
  DESMINE_EXPECTS(config_.circuit_open_after == 0 ||
                      config_.circuit_probe_after > 0,
                  "circuit_probe_after must be > 0 when the breaker is on");
  DESMINE_EXPECTS(on_scored_ != nullptr, "scheduler needs an on_scored sink");
  DESMINE_EXPECTS(initial != nullptr, "scheduler needs an initial generation");
  current_generation_ = initial->id;
}

BatchScheduler::~BatchScheduler() {
  for (const std::unique_ptr<Generation>& g : generations_) {
    for (const Queued& q : g->windows) {
      if (q.unclaimed > 0) delete q.window;
    }
  }
}

void BatchScheduler::submit(std::unique_ptr<PendingWindow> window) {
  DESMINE_EXPECTS(window != nullptr && !window->edges.empty(),
                  "submit needs at least one edge to score");
  DESMINE_EXPECTS(window->generation != nullptr,
                  "window lacks a model generation");
  DESMINE_EXPECTS(window->remaining.load(std::memory_order_relaxed) ==
                          window->edges.size() &&
                      window->edge_bleu.size() == window->edges.size() &&
                      window->edge_status.size() == window->edges.size(),
                  "window score bookkeeping not initialized");
  const std::span<const std::size_t> edges = window->edges;
  if (edges.data() != window->generation->edge_plan.data()) {
    DESMINE_EXPECTS(std::is_sorted(edges.begin(), edges.end()) &&
                        std::adjacent_find(edges.begin(), edges.end()) ==
                            edges.end() &&
                        edges.back() < window->generation->edges.size(),
                    "edge ids must ascend within the generation's edges");
  }
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    DESMINE_EXPECTS(!stopping_, "submit after stop()");
    PendingWindow* raw = window.release();
    const std::uint64_t gen_id = raw->generation->id;
    Generation* g = nullptr;
    for (const std::unique_ptr<Generation>& live : generations_) {
      if (live->generation->id == gen_id) g = live.get();
    }
    if (g == nullptr) {
      // The generation's first window: its dense table, retired at birth
      // when a reload already superseded it.
      g = generations_.emplace_back(std::make_unique<Generation>(
                                        raw->generation))
              .get();
      g->retired = gen_id != current_generation_;
      for (std::size_t e = 0; e < g->states.size(); ++e) {
        g->states[e].owner = g;
        g->states[e].edge_id = e;
      }
    }
    g->windows.push_back({raw, raw->edges.size()});
    wake = waiting_ > 0;
  }
  if (wake) cv_.notify_one();
}

bool BatchScheduler::take_locked(Generation& g, EdgeState& state,
                                 Worker& worker) {
  // Each claimed window is dispositioned: already-shed or stale windows
  // settle as kShed, an open breaker quarantines, and the rest join the
  // decode batch (a single window when half-open probing).
  const auto now = std::chrono::steady_clock::now();
  const std::size_t edge_count = g.states.size();
  const bool probing = state.breaker == Breaker::kHalfOpen;
  const std::size_t limit = probing ? 1 : config_.max_batch;
  const std::size_t end = g.base + g.windows.size();
  std::size_t at = std::max(state.cursor, g.base);
  while (at < end && worker.batch.size() < limit) {
    Queued& q = g.windows[at++ - g.base];
    // Every edge a window includes claims it before its count reaches
    // zero, so a zero-count window excludes this edge.
    if (q.unclaimed == 0) continue;
    PendingWindow* w = q.window;
    std::size_t slot = state.edge_id;
    if (w->edges.size() != edge_count) {
      const auto it =
          std::lower_bound(w->edges.begin(), w->edges.end(), state.edge_id);
      if (it == w->edges.end() || *it != state.edge_id) continue;
      slot = static_cast<std::size_t>(it - w->edges.begin());
    }
    // Stage stamps: the first claim ends the queue wait, the last claim
    // ends batch formation.
    if (q.unclaimed == w->edges.size()) w->first_dequeue = now;
    if (--q.unclaimed == 0) w->last_dequeue = now;

    if (w->shed) {
      worker.settled.push_back({w, slot, SlotStatus::kShed});
      continue;
    }
    if (config_.max_queue_delay_ms > 0.0 && w->sheddable &&
        age_ms(w->enqueued, now) > config_.max_queue_delay_ms) {
      w->shed = true;
      obs::metrics().counter("serve.shed.windows").inc();
      worker.settled.push_back({w, slot, SlotStatus::kShed});
      continue;
    }
    if (state.breaker == Breaker::kOpen) {
      worker.settled.push_back({w, slot, SlotStatus::kQuarantined});
      obs::metrics().counter("serve.circuit.quarantined").inc();
      if (++state.skipped_since_open >= config_.circuit_probe_after) {
        state.breaker = Breaker::kHalfOpen;
        state.skipped_since_open = 0;
        break;  // the next claim probes with a single window
      }
      continue;
    }
    worker.batch.push_back({w, slot});
  }
  state.cursor = at;
  while (!g.windows.empty() && g.windows.front().unclaimed == 0) {
    g.windows.pop_front();
    ++g.base;
  }
  if (worker.batch.empty() && worker.settled.empty()) return false;
  state.busy = true;
  ++g.busy;
  worker.held = &state;
  worker.probing = probing;
  return true;
}

bool BatchScheduler::claim_locked(Worker& worker) {
  worker.batch.clear();
  worker.settled.clear();
  for (const std::unique_ptr<Generation>& g : generations_) {
    const std::size_t n = g->states.size();
    const std::size_t end = g->base + g->windows.size();
    for (std::size_t k = 0, e = g->next_state; k < n; ++k) {
      EdgeState& state = g->states[e];
      e = e + 1 == n ? 0 : e + 1;
      if (state.busy || state.cursor >= end) continue;
      if (take_locked(*g, state, worker)) {
        g->next_state = e;
        return true;
      }
    }
  }
  return false;
}

bool BatchScheduler::claimable_locked() const {
  for (const std::unique_ptr<Generation>& g : generations_) {
    const std::size_t end = g->base + g->windows.size();
    for (const EdgeState& state : g->states) {
      if (!state.busy && state.cursor < end) return true;
    }
  }
  return false;
}

bool BatchScheduler::drained_locked() const {
  return std::all_of(generations_.begin(), generations_.end(),
                     [](const std::unique_ptr<Generation>& g) {
                       return g->windows.empty();
                     });
}

void BatchScheduler::release_locked(Worker& worker) {
  EdgeState& state = *worker.held;
  worker.held = nullptr;
  state.busy = false;
  --state.owner->busy;
  if (!worker.batch.empty()) {
    const ModelGeneration& gen = *state.owner->generation;
    if (worker.scored_ok) {
      state.consecutive_failures = 0;
      if (state.breaker != Breaker::kClosed) {
        state.breaker = Breaker::kClosed;
        obs::metrics().counter("serve.circuit.closed").inc();
        DESMINE_LOG_INFO("circuit closed",
                         {obs::kv("edge", edge_name(gen.edges[state.edge_id]))});
      }
    } else if (config_.circuit_open_after > 0) {
      state.skipped_since_open = 0;
      if (worker.probing ||
          ++state.consecutive_failures >= config_.circuit_open_after) {
        if (state.breaker != Breaker::kOpen) {
          obs::metrics().counter("serve.circuit.opened").inc();
          DESMINE_LOG_WARN(
              "circuit opened",
              {obs::kv("edge", edge_name(gen.edges[state.edge_id])),
               obs::kv("failures", state.consecutive_failures)});
        }
        state.breaker = Breaker::kOpen;
        state.consecutive_failures = 0;
      }
    }
  }
  // The last work of a superseded generation drops its table, and with it
  // the generation reference, so the old models free themselves.
  erase_if_drained_locked(state.owner);
}

void BatchScheduler::erase_if_drained_locked(Generation* g) {
  if (!g->retired || !g->windows.empty() || g->busy != 0) return;
  generations_.erase(std::find_if(
      generations_.begin(), generations_.end(),
      [g](const std::unique_ptr<Generation>& live) {
        return live.get() == g;
      }));
}

void BatchScheduler::resolve(const Item& item, SlotStatus status,
                             Worker& worker) {
  PendingWindow* w = item.window;
  w->edge_status[item.slot] = static_cast<std::uint8_t>(status);
  if (w->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    w->scored_done = std::chrono::steady_clock::now();
    worker.completed.push_back(w);
  }
}

bool BatchScheduler::run_one(Worker& worker) {
  bool wake = false;
  {
    std::unique_lock lock(mu_);
    if (worker.held != nullptr) release_locked(worker);
    while (!claim_locked(worker)) {
      if (stopping_ && drained_locked()) return false;
      ++waiting_;
      cv_.wait(lock);
      --waiting_;
    }
    // Another claimable edge: pass the wake-up on. Claiming the last queued
    // window while stopping lets every waiter return.
    wake = waiting_ > 0 && claimable_locked();
    if (stopping_ && drained_locked()) cv_.notify_all();
  }
  if (wake) cv_.notify_one();

  EdgeState& state = *worker.held;
  for (const Item& item : worker.settled) resolve(item, item.status, worker);
  deliver(worker);

  // Worker supervision: a throwing decode resolves the batch as error
  // results instead of killing the worker (the session delivers them as
  // typed failed-edge windows through its reorder buffer).
  worker.scored_ok = true;
  if (!worker.batch.empty()) {
    if (worker.probing) obs::metrics().counter("serve.circuit.probes").inc();
    try {
      score_batch(state, worker);
    } catch (const std::exception& e) {
      worker.scored_ok = false;
      const ModelGeneration& gen = *state.owner->generation;
      obs::metrics().counter("serve.batch.failures").inc();
      DESMINE_LOG_WARN("batch scoring failed",
                       {obs::kv("edge", edge_name(gen.edges[state.edge_id])),
                        obs::kv("generation", gen.id),
                        obs::kv("batch", worker.batch.size()),
                        obs::kv("error", e.what())});
    }
    const SlotStatus status =
        worker.scored_ok ? SlotStatus::kScored : SlotStatus::kFailed;
    for (const Item& item : worker.batch) resolve(item, status, worker);
  }

  deliver(worker);
  return true;
}

void BatchScheduler::deliver(Worker& worker) {
  for (PendingWindow* window : worker.completed) {
    on_scored_(std::unique_ptr<PendingWindow>(window));
  }
  worker.completed.clear();
}

bool BatchScheduler::run_one() {
  Worker worker;
  const bool more = run_one(worker);
  if (worker.held == nullptr) return more;
  bool wake = false;
  {
    std::lock_guard lock(mu_);
    release_locked(worker);
    wake = waiting_ > 0 && claimable_locked();
  }
  if (wake) cv_.notify_one();
  return more;
}

void BatchScheduler::score_batch(EdgeState& state, Worker& worker) {
  static obs::Histogram& batch_size =
      obs::metrics().histogram("serve.batch.size");
  static obs::Histogram& score_ms =
      obs::metrics().histogram("serve.batch.score_ms");
  static obs::Counter& cache_hits =
      obs::metrics().counter("serve.batch.cache_hits");
  static obs::Counter& pair_hits =
      obs::metrics().counter("serve.batch.pair_hits");
  static obs::Counter& decoded = obs::metrics().counter("serve.batch.decoded");

  const std::vector<Item>& batch = worker.batch;
  const obs::ScopedTimer timer("serve.score-batch", score_ms);
  batch_size.record(static_cast<double>(batch.size()));

  const EdgeModel& edge = state.owner->generation->edges[state.edge_id];
  if (robust::FaultInjector::instance().any_armed()) {
    const std::string name = edge_name(edge);
    switch (robust::fire_fault("serve.decode", name)) {
      case robust::FaultAction::kThrow:
        throw RuntimeError("injected serve.decode fault on edge " + name);
      case robust::FaultAction::kDelay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(robust::kDelayMillis));
        break;
      default:
        break;
    }
  }

  // The span memo answers what it can; only its misses are encoded and
  // scored, and their f values join it.
  const bool memo = config_.decode_cache > 0;
  std::vector<const Item*>& misses = worker.misses;
  misses.clear();
  std::size_t hits = 0;
  for (const Item& item : batch) {
    PendingWindow& w = *item.window;
    const double* f = nullptr;
    if (memo) {
      const std::vector<std::uint64_t>& hashes = w.span_hashes();
      f = state.spans.find(w.spans.sensor(edge.src), hashes[edge.src],
                           w.spans.sensor(edge.dst), hashes[edge.dst]);
    }
    if (f != nullptr) {
      w.edge_bleu[item.slot] = *f;
      ++hits;
    } else {
      misses.push_back(&item);
    }
  }
  if (!misses.empty()) {
    std::vector<const core::EncodedSentence*>& sources = worker.sources;
    std::vector<const core::EncodedSentence*>& references = worker.references;
    sources.clear();
    references.clear();
    for (const Item* item : misses) {
      const std::vector<core::EncodedSentence>& encoded =
          item->window->encoded();
      sources.push_back(&encoded[edge.src]);
      references.push_back(&encoded[edge.dst]);
    }
    const core::EdgeScorer::Result r =
        scorer_.score([&edge] { return edge.acquire(); }, sources, references,
                      memo ? &state.cache : nullptr);
    for (std::size_t i = 0; i < misses.size(); ++i) {
      PendingWindow& w = *misses[i]->window;
      w.edge_bleu[misses[i]->slot] = r.bleu[i];
      if (memo) {
        const std::vector<std::uint64_t>& hashes = w.span_hashes();
        state.spans.insert(w.spans.sensor(edge.src), hashes[edge.src],
                           w.spans.sensor(edge.dst), hashes[edge.dst],
                           r.bleu[i]);
      }
    }
    hits += r.cache_hits;
    decoded.inc(r.decoded);
    if (r.cache_evictions > 0) {
      obs::metrics()
          .counter("serve.batch.cache_evictions")
          .inc(r.cache_evictions);
    }
  }
  pair_hits.inc(batch.size() - misses.size());
  cache_hits.inc(hits);
  state.memo_gauges.update(state.cache.size() + state.spans.size(),
                           state.cache.bytes() + state.spans.bytes());
}

void BatchScheduler::set_current_generation(std::uint64_t id) {
  std::lock_guard lock(mu_);
  current_generation_ = id;
  std::vector<Generation*> superseded;
  for (const std::unique_ptr<Generation>& g : generations_) {
    if (g->generation->id != id) superseded.push_back(g.get());
  }
  for (Generation* g : superseded) {
    g->retired = true;
    erase_if_drained_locked(g);
  }
}

void BatchScheduler::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

}  // namespace desmine::serve
