#include "lifecycle/retrainer.h"

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "io/serialize.h"
#include "nmt/trainer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "util/error.h"
#include "util/rng.h"

namespace desmine::lifecycle {

namespace {

std::string edge_name(std::size_t src, std::size_t dst) {
  return std::to_string(src) + "->" + std::to_string(dst);
}

/// FNV-1a over the knobs that make fine-tuned BLEU comparable, so resuming
/// tooling can detect a journal written under different settings.
std::uint32_t retrain_fingerprint(const nmt::TranslationConfig& translation,
                                  const RetrainConfig& config,
                                  std::size_t sensor_count) {
  std::uint32_t h = 2166136261u;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint32_t>((v >> (8 * byte)) & 0xffu);
      h *= 16777619u;
    }
  };
  mix(sensor_count);
  mix(translation.trainer.steps);
  mix(translation.trainer.batch_size);
  mix(static_cast<std::uint64_t>(translation.trainer.lr * 1e6f));
  mix(static_cast<std::uint64_t>(config.lr_factor * 1e6));
  mix(config.steps);
  mix(config.seed);
  return h;
}

/// Duplicate a trained model (vocabularies + weights) through the artifact
/// serializer: the copy owns fresh tensors, so fine-tuning it never touches
/// the active graph's weights.
nmt::TranslationModel deep_copy(nmt::TranslationModel& model,
                                const nmt::Seq2SeqConfig& config) {
  std::stringstream buffer;
  io::write_translation_model(buffer, model, config);
  return io::read_translation_model(buffer);
}

}  // namespace

std::size_t pair_index_of(std::size_t src, std::size_t dst,
                          std::size_t sensor_count) {
  DESMINE_EXPECTS(src != dst && src < sensor_count && dst < sensor_count,
                  "pair indices out of range");
  return src * (sensor_count - 1) + (dst - (dst > src ? 1 : 0));
}

IncrementalRetrainer::IncrementalRetrainer(RetrainConfig config,
                                           nmt::TranslationConfig translation)
    : config_(std::move(config)), translation_(std::move(translation)) {
  DESMINE_EXPECTS(config_.lr_factor > 0.0 && config_.lr_factor <= 1.0,
                  "lr_factor must lie in (0, 1]");
}

core::MvrGraph IncrementalRetrainer::retrain(
    const core::MvrGraph& graph,
    const std::vector<core::SensorLanguage>& languages,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    RetrainReport* report) {
  const std::size_t n = graph.sensor_count();
  DESMINE_EXPECTS(languages.size() == n,
                  "languages must align with the graph's sensor nodes");
  DESMINE_EXPECTS(!pairs.empty(), "no pairs to retrain");

  const obs::ScopedTimer timer("lifecycle.retrain",
                               {obs::kv("pairs", pairs.size())});
  obs::Counter& retrained_counter =
      obs::metrics().counter("lifecycle.retrain.pairs");
  obs::Counter& failed_counter =
      obs::metrics().counter("lifecycle.retrain.failures");
  obs::Histogram& wall_ms =
      obs::metrics().histogram("lifecycle.retrain.pair_wall_ms");

  // Active edges by (src, dst) for warm-start lookup and reassembly.
  std::map<std::pair<std::size_t, std::size_t>, const core::MvrEdge*> active;
  for (const core::MvrEdge& edge : graph.edges()) {
    active[{edge.src, edge.dst}] = &edge;
  }

  std::unique_ptr<robust::CheckpointJournal> journal;
  if (!config_.journal_path.empty()) {
    std::filesystem::create_directories(
        robust::checkpoint_model_dir(config_.journal_path));
    journal = std::make_unique<robust::CheckpointJournal>(config_.journal_path,
                                                          /*append=*/false);
    journal->write_header(retrain_fingerprint(translation_, config_, n),
                          pairs.size());
  }

  nmt::TrainerConfig trainer = translation_.trainer;
  trainer.lr = static_cast<float>(trainer.lr * config_.lr_factor);
  if (config_.steps > 0) trainer.steps = config_.steps;
  trainer.on_step = nullptr;  // per-pair progress is journaled, not streamed
  const util::Rng master(config_.seed);

  // Fine-tuned replacement models by (src, dst). Training runs sequentially:
  // drifted sets are small by construction (< 25% of edges) and sequential
  // fine-tunes keep the per-pair RNG streams trivially deterministic.
  std::map<std::pair<std::size_t, std::size_t>,
           std::shared_ptr<nmt::TranslationModel>>
      replacements;
  std::map<std::pair<std::size_t, std::size_t>, RetrainedPair> outcomes;

  for (const auto& [src, dst] : pairs) {
    DESMINE_EXPECTS(src < n && dst < n && src != dst, "pair out of range");
    RetrainedPair rec;
    rec.src = src;
    rec.dst = dst;
    rec.pair_index = pair_index_of(src, dst, n);
    const auto it = active.find({src, dst});
    const auto started = std::chrono::steady_clock::now();
    auto finish = [&](bool ok, const std::string& error) {
      rec.ok = ok;
      rec.error = error;
      rec.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
      wall_ms.record(rec.wall_s * 1000.0);
      (ok ? retrained_counter : failed_counter).inc();
      if (journal) {
        robust::PairRecord jrec;
        jrec.pair_index = rec.pair_index;
        jrec.src = src;
        jrec.dst = dst;
        jrec.ok = ok;
        jrec.bleu = rec.new_bleu;
        jrec.runtime_s = rec.wall_s;
        jrec.steps = rec.steps_run;
        jrec.error = error;
        jrec.model_file = rec.model_file;
        journal->append(jrec);
      }
      outcomes[{src, dst}] = rec;
    };

    try {
      switch (robust::fire_fault("lifecycle.retrain", edge_name(src, dst))) {
        case robust::FaultAction::kThrow:
          throw RuntimeError("injected lifecycle.retrain fault");
        case robust::FaultAction::kAbort:
          // Simulated crash: the whole cycle dies, no candidate exists.
          throw robust::Interrupted("injected lifecycle.retrain abort");
        case robust::FaultAction::kDiverge:
          // Poison the LR so the divergence guard trips below.
          trainer.lr = translation_.trainer.lr * 1e6f;
          break;
        case robust::FaultAction::kDelay:
          std::this_thread::sleep_for(
              std::chrono::milliseconds(robust::kDelayMillis));
          break;
        default:
          break;
      }

      if (it == active.end()) {
        throw RuntimeError("pair has no active edge to fine-tune");
      }
      rec.old_bleu = it->second->bleu;

      // Warm start: prefer the miner's checkpoint sidecar (survives process
      // restarts), else deep-copy the live in-memory model.
      std::shared_ptr<nmt::TranslationModel> model;
      if (!config_.warm_start_journal.empty()) {
        const std::string sidecar = robust::checkpoint_model_file(
            config_.warm_start_journal, rec.pair_index);
        try {
          model = std::make_shared<nmt::TranslationModel>(
              io::load_pair_model(sidecar));
          rec.warm_started = true;
        } catch (const std::exception& e) {
          DESMINE_LOG_WARN("warm-start sidecar unavailable — deep-copying "
                           "the live model",
                           {obs::kv("pair", edge_name(src, dst)),
                            obs::kv("error", e.what())});
        }
      }
      if (!model) {
        DESMINE_EXPECTS(it->second->model != nullptr,
                        "active edge carries no model to copy");
        model = std::make_shared<nmt::TranslationModel>(
            deep_copy(*it->second->model, translation_.model));
      }

      // Fine-tune on the fresh corpora with the model's ORIGINAL
      // vocabularies — post-drift states unseen at mine time stay <unk>,
      // which keeps the candidate's s(i, j) comparable to the baseline and
      // is exactly what the drift monitor's unk-rate signal surfaces.
      const std::vector<nmt::EncodedPair> train_pairs = nmt::encode_pairs(
          model->src_vocab(), model->tgt_vocab(), languages[src].train,
          languages[dst].train);
      const std::vector<nmt::EncodedPair> dev_pairs = nmt::encode_pairs(
          model->src_vocab(), model->tgt_vocab(), languages[src].dev,
          languages[dst].dev);
      nmt::TrainingHistory history;
      if (trainer.eval_every > 0) {
        history = nmt::train_with_dev(model->model(), train_pairs, dev_pairs,
                                      trainer, master.fork(rec.pair_index));
      } else {
        history = nmt::train(model->model(), train_pairs, trainer,
                             master.fork(rec.pair_index));
      }
      rec.steps_run = history.steps_run;
      rec.new_bleu = model->score(languages[src].dev, languages[dst].dev,
                                  translation_.bleu)
                         .score;

      // Republish the per-edge artifact atomically (CRC-trailed sidecar).
      if (journal) {
        rec.model_file = robust::checkpoint_model_file(config_.journal_path,
                                                       rec.pair_index);
        io::save_pair_model(rec.model_file, *model, translation_.model);
      }
      replacements[{src, dst}] = std::move(model);
      finish(true, "");
    } catch (const robust::Interrupted&) {
      throw;  // simulated crash: nothing is assembled, journal stays partial
    } catch (const std::exception& e) {
      finish(false, e.what());
      DESMINE_LOG_WARN("pair fine-tune failed — keeping the active edge",
                       {obs::kv("pair", edge_name(src, dst)),
                        obs::kv("error", e.what())});
    }
    trainer.lr = static_cast<float>(translation_.trainer.lr *
                                    config_.lr_factor);  // undo any poison
  }

  // Candidate graph: the active graph with drifted edges swapped for their
  // fine-tuned replacements. Untouched edges share the active models.
  core::MvrGraph candidate(graph.sensor_names());
  for (const core::MvrEdge& edge : graph.edges()) {
    const auto rit = replacements.find({edge.src, edge.dst});
    if (rit == replacements.end()) {
      candidate.add_edge(edge);
      continue;
    }
    core::MvrEdge next = edge;
    next.model = rit->second;
    const RetrainedPair& rec = outcomes[{edge.src, edge.dst}];
    next.bleu = rec.new_bleu;
    next.runtime_seconds = rec.wall_s;
    candidate.add_edge(next);
  }
  for (const core::PairFailure& failure : graph.failures()) {
    candidate.add_failure(failure);
  }

  if (report) {
    for (const auto& [src, dst] : pairs) {
      const RetrainedPair& rec = outcomes[{src, dst}];
      report->pairs.push_back(rec);
      ++(rec.ok ? report->retrained : report->failed);
    }
  }
  DESMINE_LOG_INFO(
      "incremental retrain finished",
      {obs::kv("pairs", pairs.size()), obs::kv("replaced", replacements.size()),
       obs::kv("failed", pairs.size() - replacements.size())});
  return candidate;
}

}  // namespace desmine::lifecycle
