#include "core/miner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "io/serialize.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/deadline.h"
#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "tensor/workspace.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace desmine::core {

namespace {

/// Fingerprint of everything that makes pair BLEU scores comparable across
/// runs: the sensor set, corpus sizes, NMT settings, and the master seed.
/// A resume against a journal with a different fingerprint would silently
/// mix incomparable scores, so the miner refuses it.
std::uint32_t mining_fingerprint(const std::vector<SensorLanguage>& languages,
                                 const MinerConfig& config) {
  std::string s;
  s += std::to_string(languages.size()) + "|";
  for (const SensorLanguage& lang : languages) s += lang.name + ",";
  s += "|" + std::to_string(languages.front().train.size());
  s += "|" + std::to_string(languages.front().dev.size());
  const nmt::TranslationConfig& t = config.translation;
  s += "|" + std::to_string(t.trainer.steps);
  s += "|" + std::to_string(t.trainer.batch_size);
  s += "|" + std::to_string(t.trainer.lr);
  s += "|" + std::to_string(t.model.embedding_dim);
  s += "|" + std::to_string(t.model.hidden_dim);
  s += "|" + std::to_string(t.model.num_layers);
  s += "|" + std::to_string(t.model.dropout);
  s += "|" + std::to_string(config.seed);
  return util::crc32(s);
}

}  // namespace

RelationshipMiner::RelationshipMiner(MinerConfig config)
    : config_(std::move(config)) {}

MvrGraph RelationshipMiner::mine(
    const std::vector<SensorLanguage>& languages) const {
  DESMINE_EXPECTS(languages.size() >= 2, "mining needs at least two sensors");
  const std::size_t n = languages.size();
  for (const SensorLanguage& lang : languages) {
    DESMINE_EXPECTS(lang.train.size() == languages.front().train.size(),
                    "training corpora must be aligned across sensors");
    DESMINE_EXPECTS(lang.dev.size() == languages.front().dev.size(),
                    "development corpora must be aligned across sensors");
    DESMINE_EXPECTS(!lang.train.empty(), "empty training corpus for " +
                                             lang.name);
    DESMINE_EXPECTS(!lang.dev.empty(), "empty dev corpus for " + lang.name);
  }

  std::vector<std::string> names;
  names.reserve(n);
  for (const SensorLanguage& lang : languages) names.push_back(lang.name);
  MvrGraph graph(std::move(names));

  // Enumerate ordered pairs once so pair index -> seed is stable regardless
  // of thread interleaving.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(n * (n - 1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) pairs.emplace_back(i, j);
    }
  }

  const util::Rng master(config_.seed);
  std::vector<MvrEdge> results(pairs.size());
  std::vector<char> done(pairs.size(), 0);

  const obs::ScopedTimer mine_timer("mine", {obs::kv("sensors", n),
                                             obs::kv("pairs", pairs.size())});
  obs::Counter& pairs_trained = obs::metrics().counter("miner.pairs_trained");
  obs::Counter& pair_retries = obs::metrics().counter("miner.pair.retries");
  obs::Counter& pair_failed = obs::metrics().counter("miner.pair.failed");
  obs::Counter& pairs_skipped =
      obs::metrics().counter("checkpoint.pairs_skipped");
  obs::Counter& pairs_journaled =
      obs::metrics().counter("checkpoint.pairs_journaled");
  obs::Histogram& pair_wall_ms =
      obs::metrics().histogram("miner.pair_wall_ms");
  obs::Histogram& pair_bleu = obs::metrics().histogram("miner.pair_bleu");

  // ---- checkpoint setup ----------------------------------------------------
  const std::uint32_t fingerprint = mining_fingerprint(languages, config_);
  std::unique_ptr<robust::CheckpointJournal> journal;
  std::map<std::size_t, robust::PairRecord> completed;
  if (!config_.checkpoint_path.empty()) {
    bool append = false;
    if (config_.resume) {
      const robust::CheckpointState state =
          robust::load_checkpoint(config_.checkpoint_path);
      if (state.exists && state.has_header) {
        if (state.fingerprint != fingerprint) {
          throw RuntimeError(
              "checkpoint " + config_.checkpoint_path +
              " was written under a different mining configuration; refusing "
              "to resume (delete it or rerun without --resume)");
        }
        completed = state.completed;
        append = true;
        DESMINE_LOG_INFO(
            "resuming from checkpoint",
            {obs::kv("path", config_.checkpoint_path),
             obs::kv("completed", completed.size()),
             obs::kv("failed_records", state.failed_records),
             obs::kv("skipped_lines", state.skipped_lines)});
      } else if (state.exists) {
        DESMINE_LOG_WARN("checkpoint has no valid header; starting fresh",
                         {obs::kv("path", config_.checkpoint_path)});
      }
    }
    std::filesystem::create_directories(
        robust::checkpoint_model_dir(config_.checkpoint_path));
    journal = std::make_unique<robust::CheckpointJournal>(
        config_.checkpoint_path, append);
    if (!append) journal->write_header(fingerprint, pairs.size());
  }

  // ---- per-pair task -------------------------------------------------------
  std::atomic<bool> abort_requested{false};
  const auto aborted = [&] {
    return abort_requested.load(std::memory_order_relaxed) ||
           (config_.should_abort && config_.should_abort());
  };

  std::mutex failure_mutex;
  std::vector<PairFailure> failures;

  const auto deliver_event = [&](std::size_t p, const MvrEdge& edge,
                                 std::size_t steps, std::size_t attempts,
                                 double wall_ms, bool resumed) {
    pairs_trained.inc();
    pair_wall_ms.record(wall_ms);
    pair_bleu.record(edge.bleu);
    if (!config_.on_pair) return;
    PairEvent event;
    event.pair_index = p;
    event.pair_count = pairs.size();
    event.src = edge.src;
    event.dst = edge.dst;
    event.src_name = languages[edge.src].name;
    event.dst_name = languages[edge.dst].name;
    event.bleu = edge.bleu;
    event.wall_ms = wall_ms;
    event.steps_run = steps;
    event.attempts = attempts;
    event.resumed = resumed;
    config_.on_pair(event);
  };

  const auto train_pair = [&](std::size_t p) {
    if (aborted()) return;
    const auto [i, j] = pairs[p];
    const SensorLanguage& src = languages[i];
    const SensorLanguage& dst = languages[j];

    // Resume: restore an already-scored pair bit-identically.
    if (const auto it = completed.find(p); it != completed.end()) {
      const robust::PairRecord& rec = it->second;
      if (rec.src == i && rec.dst == j) {
        MvrEdge edge;
        edge.src = i;
        edge.dst = j;
        edge.bleu = rec.bleu;
        edge.runtime_seconds = rec.runtime_s;
        bool restored = true;
        if (!rec.model_file.empty()) {
          try {
            edge.model = std::make_shared<nmt::TranslationModel>(
                io::load_pair_model(rec.model_file));
          } catch (const std::exception& e) {
            // Corrupt sidecar: fall through and retrain — determinism makes
            // the retrained pair identical to the journaled one.
            DESMINE_LOG_WARN("checkpoint model unreadable; retraining pair",
                             {obs::kv("pair", p), obs::kv("file",
                                                          rec.model_file),
                              obs::kv("error", e.what())});
            restored = false;
          }
        }
        if (restored) {
          pairs_skipped.inc();
          DESMINE_LOG_DEBUG("pair restored from checkpoint",
                            {obs::kv("pair", p), obs::kv("src", src.name),
                             obs::kv("dst", dst.name),
                             obs::kv("bleu", edge.bleu)});
          deliver_event(p, edge, rec.steps, rec.attempts, 0.0, true);
          results[p] = std::move(edge);
          done[p] = 1;
          return;
        }
      } else {
        DESMINE_LOG_WARN("checkpoint pair endpoints disagree; retraining",
                         {obs::kv("pair", p)});
      }
    }

    std::string last_error;
    std::size_t attempts = 0;
    const std::size_t max_attempts = config_.max_retries + 1;

    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
      if (aborted()) return;
      attempts = attempt + 1;
      try {
        const robust::FaultAction action =
            robust::fire_fault("miner.pair", static_cast<std::int64_t>(p));
        if (action == robust::FaultAction::kThrow) {
          throw RuntimeError("injected fault at pair " + std::to_string(p));
        }
        if (action == robust::FaultAction::kAbort) {
          abort_requested.store(true, std::memory_order_relaxed);
          return;
        }

        nmt::TranslationConfig cfg = config_.translation;
        // Retries fork the seed and halve the learning rate: a diverging
        // pair most often needs a gentler step, not the same trajectory.
        cfg.trainer.lr *= static_cast<float>(std::pow(0.5, attempt));
        if (action == robust::FaultAction::kDiverge) {
          cfg.trainer.lr = 1e30f;  // guaranteed loss explosion / NaN
        }
        const std::uint64_t seed = attempt == 0
                                       ? master.fork(p).seed()
                                       : master.fork(p).fork(attempt).seed();

        const robust::Deadline deadline(config_.pair_timeout_s);
        const auto user_step = cfg.trainer.on_step;
        cfg.trainer.on_step = [&deadline,
                               &user_step](const nmt::StepEvent& e) {
          deadline.check("pair training");
          if (user_step) user_step(e);
        };

        obs::Span span("train-pair",
                       {obs::kv("src", src.name), obs::kv("dst", dst.name),
                        obs::kv("attempt", attempt + 1)});
        const auto start = std::chrono::steady_clock::now();
        nmt::TrainingHistory history;
        // One arena per pool thread: successive pairs on the same thread
        // reuse the already-grown chunks instead of re-warming a fresh heap,
        // and the dev-set decode below runs on the same arena.
        // Rewinding (not releasing) keeps capacity at the high-water mark.
        tensor::Workspace& pair_ws = tensor::thread_workspace();
        pair_ws.reset();
        nmt::TranslationModel model = nmt::train_translation_model(
            src.train, dst.train, cfg, seed, &history, &pair_ws);
        deadline.check("pair training");
        text::BleuBreakdown dev_score;
        {
          obs::Span score_span("bleu-score");
          dev_score = model.score(src.dev, dst.dev);
        }
        const auto end = std::chrono::steady_clock::now();
        const double wall_ms =
            std::chrono::duration<double, std::milli>(end - start).count();
        span.annotate(obs::kv("bleu", dev_score.score));
        // The model outlives this pool thread (it is published to the graph
        // and scored during detection), so it must stop referencing the
        // thread-local arena before leaving this scope.
        model.model().use_own_workspace();

        MvrEdge edge;
        edge.src = i;
        edge.dst = j;
        edge.bleu = dev_score.score;
        edge.runtime_seconds =
            std::chrono::duration<double>(end - start).count();
        edge.model = std::make_shared<nmt::TranslationModel>(std::move(model));

        if (journal) {
          robust::PairRecord rec;
          rec.pair_index = p;
          rec.src = i;
          rec.dst = j;
          rec.ok = true;
          rec.bleu = edge.bleu;
          rec.runtime_s = edge.runtime_seconds;
          rec.steps = history.steps_run;
          rec.attempts = attempts;
          rec.model_file =
              robust::checkpoint_model_file(config_.checkpoint_path, p);
          io::save_pair_model(rec.model_file, *edge.model,
                              config_.translation.model);
          journal->append(rec);
          pairs_journaled.inc();
        }

        DESMINE_LOG_DEBUG("pair model trained",
                          {obs::kv("pair", p), obs::kv("src", src.name),
                           obs::kv("dst", dst.name),
                           obs::kv("bleu", dev_score.score),
                           obs::kv("wall_ms", wall_ms),
                           obs::kv("steps", history.steps_run),
                           obs::kv("attempts", attempts)});
        deliver_event(p, edge, history.steps_run, attempts, wall_ms, false);
        results[p] = std::move(edge);
        done[p] = 1;

        if (robust::fire_fault("miner.pair.done",
                               static_cast<std::int64_t>(p)) ==
            robust::FaultAction::kAbort) {
          abort_requested.store(true, std::memory_order_relaxed);
        }
        return;
      } catch (const robust::DeadlineExceeded& e) {
        // Not retryable: the same step budget would elapse again.
        last_error = e.what();
        break;
      } catch (const std::exception& e) {
        last_error = e.what();
        if (attempt + 1 < max_attempts) {
          pair_retries.inc();
          DESMINE_LOG_WARN(
              "pair training failed; retrying",
              {obs::kv("pair", p), obs::kv("src", src.name),
               obs::kv("dst", dst.name), obs::kv("attempt", attempt + 1),
               obs::kv("error", e.what())});
        }
      }
    }

    // Permanently failed: isolate, record, continue with the other pairs.
    pair_failed.inc();
    DESMINE_LOG_ERROR("pair permanently failed",
                      {obs::kv("pair", p), obs::kv("src", src.name),
                       obs::kv("dst", dst.name),
                       obs::kv("attempts", attempts),
                       obs::kv("error", last_error)});
    if (journal) {
      robust::PairRecord rec;
      rec.pair_index = p;
      rec.src = i;
      rec.dst = j;
      rec.ok = false;
      rec.attempts = attempts;
      rec.error = last_error;
      journal->append(rec);
    }
    {
      std::lock_guard lock(failure_mutex);
      failures.push_back(PairFailure{
          i, j, last_error, static_cast<std::uint32_t>(attempts)});
    }
  };

  if (config_.threads == 1) {
    for (std::size_t p = 0; p < pairs.size(); ++p) train_pair(p);
  } else {
    util::ThreadPool pool(config_.threads);
    pool.parallel_for(pairs.size(), train_pair);
  }

  if (aborted()) {
    DESMINE_LOG_WARN("mining aborted",
                     {obs::kv("pairs", pairs.size()),
                      obs::kv("checkpoint", config_.checkpoint_path)});
    throw robust::Interrupted(
        "mining aborted" +
        (config_.checkpoint_path.empty()
             ? std::string(" (no checkpoint configured)")
             : "; completed pairs are journaled in " +
                   config_.checkpoint_path + " — rerun with resume"));
  }

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (done[p]) graph.add_edge(std::move(results[p]));
  }
  // Deterministic failure order (pair enumeration), independent of threads.
  std::sort(failures.begin(), failures.end(),
            [](const PairFailure& a, const PairFailure& b) {
              return std::tie(a.src, a.dst) < std::tie(b.src, b.dst);
            });
  for (PairFailure& f : failures) graph.add_failure(std::move(f));

  DESMINE_LOG_INFO("relationship mining complete",
                   {obs::kv("sensors", n), obs::kv("pairs", pairs.size()),
                    obs::kv("failed", graph.failures().size()),
                    obs::kv("wall_ms", mine_timer.elapsed_ms())});
  return graph;
}

}  // namespace desmine::core
