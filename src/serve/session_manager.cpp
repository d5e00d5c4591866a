#include "serve/session_manager.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "io/artifact_map.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "robust/fault_injector.h"
#include "util/error.h"

namespace desmine::serve {

SessionManager::SessionManager(const std::string& artifact_path,
                               ServeConfig config)
    : config_(std::move(config)) {
  // Mapped open: O(header + TOC); no weight bytes are read or copied until
  // an edge actually scores.
  std::shared_ptr<io::ArtifactMap> map = io::ArtifactMap::open(artifact_path);
  encrypter_ = map->encrypter();
  window_ = map->window();
  registry_ = std::make_unique<ModelRegistry>(make_generation(
      std::move(map), config_.detector, 1,
      ResidencyConfig{config_.resident_bytes, config_.resident_edges}));

  // Telemetry plane: shape the sliding windows before any instrument is
  // created, then pre-register the scrape-visible instruments so /metrics
  // carries them (zero-valued) from the first scrape, not the first window.
  if (config_.sliding_window_s > 0.0 && config_.sliding_epochs > 0) {
    obs::telemetry().configure(config_.sliding_window_s,
                               config_.sliding_epochs);
  }
  obs::telemetry().sliding("serve.window.latency_ms");
  obs::metrics().histogram("serve.window.latency_ms");
  obs::metrics().histogram("serve.stage.queue_ms");
  obs::metrics().histogram("serve.stage.batch_form_ms");
  obs::metrics().histogram("serve.stage.decode_ms");
  obs::metrics().histogram("serve.stage.reorder_ms");
  obs::metrics().histogram("serve.shed.age_ms");
  obs::metrics().counter("serve.windows_scored");
  obs::metrics().counter("serve.ticks");
  obs::metrics().counter("serve.reload.count");
  obs::metrics().counter("serve.reload.failures");
  obs::metrics().counter("serve.shed.windows");
  obs::metrics().counter("serve.shed.global_rejects");
  obs::metrics().counter("serve.window.failed_edges");
  obs::metrics().counter("serve.batch.failures");
  obs::metrics().counter("serve.circuit.opened");
  obs::metrics().counter("serve.circuit.closed");
  obs::metrics().counter("serve.circuit.probes");
  obs::metrics().counter("serve.circuit.quarantined");
  obs::metrics().gauge("serve.model.generation").set(1.0);
  obs::metrics().histogram("serve.reload.duration_ms");
  obs::metrics().gauge("serve.model.retired_live").set(0.0);
  obs::metrics().gauge("serve.model.resident_edges").set(0.0);
  obs::metrics().gauge("serve.model.resident_bytes").set(0.0);
  obs::metrics().counter("serve.model.evictions");
  obs::metrics().counter("serve.shadow.windows");
  obs::metrics().counter("serve.shadow.alerts");
  obs::metrics().counter("serve.shadow.failures");
  obs::metrics().counter("serve.shadow.edge_failures");
  obs::metrics().counter("serve.shadow.agreements");
  obs::metrics().counter("serve.shadow.disagreements");
  obs::metrics().gauge("serve.shadow.active").set(0.0);
  obs::metrics().gauge("serve.shadow.agreement").set(0.0);
  obs::metrics().counter("lifecycle.promotions");
  obs::metrics().counter("lifecycle.rollbacks");

  SchedulerConfig sched;
  sched.max_batch = config_.max_batch;
  sched.decode_cache = config_.decode_cache;
  sched.bleu = config_.detector.bleu;
  sched.circuit_open_after = config_.circuit_open_after;
  sched.circuit_probe_after = config_.circuit_probe_after;
  sched.max_queue_delay_ms = config_.max_queue_delay_ms;
  scheduler_ = std::make_unique<BatchScheduler>(
      registry_->current(), sched,
      [this](std::unique_ptr<PendingWindow> window) {
        // A window whose session was already erased is dropped on the floor
        // by design, and never mirrored. Otherwise the shadow copies what it
        // needs before finalize() consumes the window and takes the active
        // score finalize delivered; candidate decoding runs after delivery
        // and accounting, so it never delays the client-visible result or
        // backpressure release.
        const std::shared_ptr<Session> session = find(window->session_id);
        std::shared_ptr<ShadowScorer> shadow;
        std::optional<ShadowSample> sample;
        if (session) {
          {
            std::lock_guard slock(shadow_mu_);
            shadow = shadow_;
          }
          if (shadow && shadow->admit(*window)) {
            sample = ShadowSample{window->spans, window->unhealthy,
                                  window->masked};
          }
          const core::WindowVerdict verdict =
              session->finalize(std::move(window));
          if (sample) sample->active_score = verdict.anomaly_score;
        }
        window.reset();  // drop the generation reference before accounting
        if (config_.max_global_pending > 0) {
          {
            std::lock_guard glock(global_mu_);
            --global_inflight_;
          }
          global_cv_.notify_all();
        }
        if (sample) shadow->observe(std::move(*sample));
      });

  std::size_t workers = config_.workers;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<util::ThreadPool>(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool_->submit([this] {
      BatchScheduler::Worker worker;
      while (scheduler_->run_one(worker)) {
      }
    });
  }
  DESMINE_LOG_INFO("serve engine up",
                   {obs::kv("valid_edges", valid_model_count()),
                    obs::kv("workers", workers),
                    obs::kv("max_batch", config_.max_batch)});
}

SessionManager::~SessionManager() {
  // Refuse new ticks, let workers drain every queued score, then join.
  for (const std::shared_ptr<Session>& s : all_sessions()) s->close();
  scheduler_->stop();
  pool_.reset();  // ThreadPool dtor drains the worker loops
  obs::metrics().gauge("serve.sessions").set(0.0);
}

std::uint64_t SessionManager::open(core::DegradedConfig degraded) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  TelemetryPolicy telemetry;
  telemetry.slow_window_ms = config_.slow_window_ms;
  auto session = std::make_shared<Session>(id, *registry_, encrypter_, window_,
                                           degraded, config_.limits, telemetry);
  Shard& sh = shard(id);
  {
    std::lock_guard lock(sh.mu);
    sh.sessions.emplace(id, std::move(session));
    std::lock_guard count_lock(count_mu_);
    obs::metrics().gauge("serve.sessions").set(
        static_cast<double>(++session_count_));
  }
  DESMINE_LOG_DEBUG("session opened", {obs::kv("session", id),
                                       obs::kv("degraded", degraded.enabled)});
  return id;
}

std::shared_ptr<Session> SessionManager::find(std::uint64_t session) const {
  Shard& sh = shard(session);
  std::lock_guard lock(sh.mu);
  const auto it = sh.sessions.find(session);
  return it == sh.sessions.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Session>> SessionManager::all_sessions() const {
  std::vector<std::shared_ptr<Session>> all;
  for (Shard& sh : shards_) {
    std::lock_guard lock(sh.mu);
    for (const auto& [id, session] : sh.sessions) all.push_back(session);
  }
  return all;
}

IngestStatus SessionManager::ingest(
    std::uint64_t session, const std::map<std::string, std::string>& states) {
  const std::shared_ptr<Session> s = find(session);
  DESMINE_EXPECTS(s != nullptr, "unknown session id");
  // Global admission control before the (possibly blocking) session ingest:
  // a full fleet-wide budget rejects or blocks the tick up front, so one
  // overloaded deployment never piles unbounded work onto the scheduler.
  if (config_.max_global_pending > 0) {
    std::unique_lock glock(global_mu_);
    while (global_inflight_ >= config_.max_global_pending) {
      if (config_.limits.reject_when_full) {
        obs::metrics().counter("serve.shed.global_rejects").inc();
        return IngestStatus::kRejected;
      }
      global_cv_.wait(glock);
    }
  }
  std::unique_ptr<PendingWindow> to_schedule;
  const IngestStatus status = s->ingest(states, &to_schedule);
  if (to_schedule) {
    if (config_.max_global_pending > 0) {
      std::lock_guard glock(global_mu_);
      ++global_inflight_;
    }
    scheduler_->submit(std::move(to_schedule));
  }
  return status;
}

std::optional<WindowResult> SessionManager::poll(std::uint64_t session) {
  const std::shared_ptr<Session> s = find(session);
  DESMINE_EXPECTS(s != nullptr, "unknown session id");
  return s->poll();
}

void SessionManager::close(std::uint64_t session) {
  const std::shared_ptr<Session> s = find(session);
  DESMINE_EXPECTS(s != nullptr, "unknown session id");
  s->close();
}

void SessionManager::drain(std::uint64_t session) {
  const std::shared_ptr<Session> s = find(session);
  DESMINE_EXPECTS(s != nullptr, "unknown session id");
  s->drain();
}

void SessionManager::drain() {
  for (const std::shared_ptr<Session>& s : all_sessions()) s->drain();
}

void SessionManager::erase(std::uint64_t session) {
  const std::shared_ptr<Session> s = find(session);
  DESMINE_EXPECTS(s != nullptr, "unknown session id");
  s->close();
  s->drain();
  Shard& sh = shard(session);
  {
    std::lock_guard lock(sh.mu);
    // A racing erase of the same id may have removed it already.
    if (sh.sessions.erase(session) != 0) {
      std::lock_guard count_lock(count_mu_);
      obs::metrics().gauge("serve.sessions").set(
          static_cast<double>(--session_count_));
    }
  }
  DESMINE_LOG_DEBUG("session erased", {obs::kv("session", session)});
}

std::shared_ptr<const ModelGeneration> SessionManager::load_generation_locked(
    const std::string& path) {
  switch (robust::fire_fault("serve.model.load", 0)) {
    case robust::FaultAction::kThrow:
      throw RuntimeError("injected serve.model.load fault");
    case robust::FaultAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(robust::kDelayMillis));
      break;
    default:
      break;
  }
  // Integrity-verified load off the worker threads; the detector band/quorum
  // this manager was configured with carries over to the new generation.
  // Promotion is a remap: open + TOC verification + valid-band filtering, no
  // weight deserialization. Unlike cold start (lazy CRCs for O(header+TOC)
  // readiness), swapping a LIVE fleet demands the §13 contract —
  // integrity-verified before publication — so every edge CRC is swept
  // eagerly here; a corrupt candidate keeps the old generation. The retiring
  // generation's map stays pinned until its last in-flight window drains.
  std::shared_ptr<io::ArtifactMap> map = io::ArtifactMap::open(path);
  const core::WindowConfig& w = map->window();
  DESMINE_EXPECTS(map->encrypter().kept_sensors() == encrypter_.kept_sensors(),
                  "artifact serves different sensors than this manager");
  DESMINE_EXPECTS(w.word_length == window_.word_length &&
                      w.word_stride == window_.word_stride &&
                      w.sentence_length == window_.sentence_length &&
                      w.sentence_stride == window_.sentence_stride,
                  "artifact was mined with a different window config");
  map->verify_all();
  std::shared_ptr<const ModelGeneration> next = make_generation(
      std::move(map), config_.detector, registry_->generation() + 1,
      ResidencyConfig{config_.resident_bytes, config_.resident_edges});
  DESMINE_EXPECTS(!next->edges.empty(),
                  "artifact has no valid-band edges to serve");
  return next;
}

std::uint64_t SessionManager::reload(const std::string& path) {
  std::lock_guard rlock(reload_mu_);
  const auto reload_start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [reload_start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - reload_start)
        .count();
  };
  const obs::SpanContext span = obs::tracer().start_span(
      "serve.reload", {}, {obs::kv("path", path)});
  try {
    std::shared_ptr<const ModelGeneration> next = load_generation_locked(path);

    // Publish, then retire the old generation's scheduler states: windows
    // already in flight finish on their snapshot, new windows score on the
    // swap — no window ever mixes generations.
    registry_->publish(next);
    scheduler_->set_current_generation(next->id);
    obs::metrics().gauge("serve.model.generation")
        .set(static_cast<double>(next->id));
    obs::metrics().gauge("serve.model.retired_live")
        .set(static_cast<double>(registry_->retired_live()));
    obs::metrics().counter("serve.reload.count").inc();
    obs::metrics().histogram("serve.reload.duration_ms").record(elapsed_ms());
    {
      std::lock_guard slock(shadow_mu_);
      last_reload_error_.clear();
    }
    obs::tracer().finish_span(
        span, {obs::kv("generation", next->id),
               obs::kv("valid_edges", next->edges.size())});
    DESMINE_LOG_INFO("model reloaded",
                     {obs::kv("path", path), obs::kv("generation", next->id),
                      obs::kv("valid_edges", next->edges.size())});
    return next->id;
  } catch (const std::exception& e) {
    // Failed reloads are timed too: a slow failure (giant corrupt artifact,
    // hung storage) must be visible in latency telemetry, not only in logs.
    obs::metrics().counter("serve.reload.failures").inc();
    obs::metrics().histogram("serve.reload.duration_ms").record(elapsed_ms());
    {
      std::lock_guard slock(shadow_mu_);
      last_reload_error_ = e.what();
    }
    obs::tracer().finish_span(span, {obs::kv("error", e.what())});
    DESMINE_LOG_WARN("model reload failed — keeping current generation",
                     {obs::kv("path", path), obs::kv("error", e.what()),
                      obs::kv("generation", registry_->generation())});
    throw;
  }
}

std::uint64_t SessionManager::begin_shadow(const std::string& path) {
  std::lock_guard rlock(reload_mu_);
  // Any load/validation failure throws here, before shadow state changes:
  // a corrupt candidate artifact can never arm a scorer, let alone reach
  // the active generation.
  std::shared_ptr<const ModelGeneration> next = load_generation_locked(path);
  auto scorer =
      std::make_shared<ShadowScorer>(next, config_.shadow, path);
  std::shared_ptr<ShadowScorer> previous;
  {
    std::lock_guard slock(shadow_mu_);
    previous = std::exchange(shadow_, std::move(scorer));
  }
  if (previous) previous->seal();
  obs::metrics().gauge("serve.shadow.active").set(1.0);
  obs::metrics().gauge("serve.shadow.agreement").set(0.0);
  DESMINE_LOG_INFO("shadow candidate armed",
                   {obs::kv("path", path), obs::kv("candidate", next->id),
                    obs::kv("valid_edges", next->edges.size()),
                    obs::kv("replaced_previous", previous != nullptr)});
  return next->id;
}

std::uint64_t SessionManager::promote() {
  std::lock_guard rlock(reload_mu_);
  std::shared_ptr<ShadowScorer> shadow;
  {
    std::lock_guard slock(shadow_mu_);
    shadow = shadow_;
  }
  DESMINE_EXPECTS(shadow != nullptr, "no shadow candidate armed");
  if (!shadow->gate_passed()) {
    throw PreconditionError("shadow gate not passed: " +
                            shadow->gate_reason());
  }
  const std::shared_ptr<const ModelGeneration>& next = shadow->candidate();
  DESMINE_EXPECTS(next->id == registry_->generation() + 1,
                  "shadow candidate is stale (a reload superseded it); "
                  "rearm with begin_shadow");

  // Detach the scorer first so no new samples start, then seal() — which
  // waits out any in-flight candidate decode — before the scheduler's
  // workers may touch the same (single-threaded) models.
  {
    std::lock_guard slock(shadow_mu_);
    shadow_.reset();
  }
  shadow->seal();
  registry_->publish(next);
  scheduler_->set_current_generation(next->id);
  obs::metrics().gauge("serve.model.generation")
      .set(static_cast<double>(next->id));
  obs::metrics().gauge("serve.model.retired_live")
      .set(static_cast<double>(registry_->retired_live()));
  obs::metrics().gauge("serve.shadow.active").set(0.0);
  obs::metrics().counter("lifecycle.promotions").inc();
  const ShadowScorer::Status st = shadow->status();
  DESMINE_LOG_INFO("shadow candidate promoted",
                   {obs::kv("generation", next->id),
                    obs::kv("sampled", st.sampled),
                    obs::kv("alert_rate", st.alert_rate()),
                    obs::kv("agreement", st.agreement())});
  return next->id;
}

std::string SessionManager::rollback() {
  std::lock_guard rlock(reload_mu_);
  std::shared_ptr<ShadowScorer> shadow;
  {
    std::lock_guard slock(shadow_mu_);
    shadow = std::exchange(shadow_, nullptr);
  }
  DESMINE_EXPECTS(shadow != nullptr, "no shadow candidate armed");
  shadow->seal();
  obs::metrics().gauge("serve.shadow.active").set(0.0);
  obs::metrics().counter("lifecycle.rollbacks").inc();
  const ShadowScorer::Status st = shadow->status();
  DESMINE_LOG_INFO("shadow candidate rolled back — serving unchanged",
                   {obs::kv("path", st.path),
                    obs::kv("sampled", st.sampled),
                    obs::kv("reason", shadow->gate_reason())});
  return st.path;
}

std::optional<ShadowScorer::Status> SessionManager::shadow_status() const {
  std::shared_ptr<ShadowScorer> shadow;
  {
    std::lock_guard slock(shadow_mu_);
    shadow = shadow_;
  }
  if (!shadow) return std::nullopt;
  return shadow->status();
}

bool SessionManager::shadow_gate_passed() const {
  std::shared_ptr<ShadowScorer> shadow;
  {
    std::lock_guard slock(shadow_mu_);
    shadow = shadow_;
  }
  return shadow != nullptr && shadow->gate_passed();
}

std::string SessionManager::last_reload_error() const {
  std::lock_guard slock(shadow_mu_);
  return last_reload_error_;
}

Session::Stats SessionManager::stats(std::uint64_t session) const {
  const std::shared_ptr<Session> s = find(session);
  DESMINE_EXPECTS(s != nullptr, "unknown session id");
  return s->stats();
}

std::size_t SessionManager::session_count() const {
  std::lock_guard lock(count_mu_);
  return session_count_;
}

double SessionManager::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_)
      .count();
}

}  // namespace desmine::serve
