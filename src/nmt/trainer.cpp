#include "nmt/trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "util/error.h"

namespace desmine::nmt {

namespace {

/// Buckets pairs by (src_len, tgt_len) so every batch is rectangular.
struct Buckets {
  std::vector<std::vector<const EncodedPair*>> groups;
  std::vector<double> weights;
};

Buckets bucket_pairs(const std::vector<EncodedPair>& pairs) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<const EncodedPair*>>
      bucket_map;
  for (const EncodedPair& p : pairs) {
    DESMINE_EXPECTS(!p.source.empty() && !p.target.empty(),
                    "empty sentence in training corpus");
    bucket_map[{p.source.size(), p.target.size()}].push_back(&p);
  }
  Buckets out;
  for (auto& [shape, bucket] : bucket_map) {
    out.weights.push_back(static_cast<double>(bucket.size()));
    out.groups.push_back(std::move(bucket));
  }
  return out;
}

}  // namespace

TrainingHistory train(Seq2SeqModel& model,
                      const std::vector<EncodedPair>& pairs,
                      const TrainerConfig& config, util::Rng rng) {
  DESMINE_EXPECTS(!pairs.empty(), "cannot train on an empty corpus");
  DESMINE_EXPECTS(config.batch_size > 0 && config.steps > 0,
                  "trainer config must be positive");

  const Buckets buckets = bucket_pairs(pairs);

  // Pre-size the model's workspace for the largest bucket so the training
  // loop never grows the arena mid-flight.
  {
    std::size_t max_src = 0, max_tgt = 0;
    for (const EncodedPair& p : pairs) {
      max_src = std::max(max_src, p.source.size());
      max_tgt = std::max(max_tgt, p.target.size());
    }
    model.reserve_workspace(max_src, max_tgt, config.batch_size);
  }

  nn::AdamConfig adam_config = config.adam;
  adam_config.lr = config.lr;
  nn::Adam optimizer(model.params(), adam_config);

  TrainingHistory history;
  history.losses.reserve(config.steps);

  static obs::Counter& steps_total =
      obs::metrics().counter("nmt.train.steps");
  static obs::Counter& divergences =
      obs::metrics().counter("nmt.train.divergences");

  // Divergence baseline: the first finite step loss (floored so a lucky
  // near-zero start does not make the explosion threshold hair-trigger).
  double baseline = std::numeric_limits<double>::quiet_NaN();
  const auto fail_divergence = [&](std::size_t step_1based, double loss) {
    divergences.inc();
    history.diverged_at_step = step_1based;
    history.steps_run = step_1based;
    throw TrainDivergence(
        std::string("training diverged at step ") +
            std::to_string(step_1based) + ": loss = " +
            std::to_string(loss) +
            (std::isfinite(baseline)
                 ? " (baseline " + std::to_string(baseline) + ")"
                 : std::string()),
        std::move(history));
  };

  for (std::size_t step = 0; step < config.steps; ++step) {
    const std::size_t bi =
        buckets.groups.size() == 1 ? 0 : rng.categorical(buckets.weights);
    const auto& bucket = buckets.groups[bi];
    std::vector<const EncodedPair*> batch;
    batch.reserve(config.batch_size);
    for (std::size_t k = 0; k < config.batch_size; ++k) {
      batch.push_back(bucket[rng.index(bucket.size())]);
    }

    model.params().zero_grad();
    const double loss = model.train_batch(batch);
    model.params().clip_grad_norm(config.clip_norm);
    optimizer.step();
    history.losses.push_back(loss);
    history.steps_run = step + 1;
    steps_total.inc();

    if (config.divergence_factor > 0.0) {
      if (!std::isfinite(loss)) fail_divergence(step + 1, loss);
      if (std::isnan(baseline)) {
        baseline = std::max(loss, 1e-3);
      } else if (loss > config.divergence_factor * baseline) {
        fail_divergence(step + 1, loss);
      }
    }

    if (config.on_step) config.on_step({step + 1, loss});
  }
  history.final_loss = history.losses.back();
  return history;
}

}  // namespace desmine::nmt
