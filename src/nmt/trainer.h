// Training loop for Seq2SeqModel: bucketed mini-batches, Adam, grad
// clipping, and a divergence guard that fails fast (TrainDivergence) when a
// run goes numerically bad instead of burning the remaining step budget.
//
// One schedule, the paper's (§III-A2): a fixed number of steps at a fixed
// learning rate, with no decay and no early stopping on a dev set.
#pragma once

#include <functional>
#include <vector>

#include "nmt/seq2seq.h"
#include "util/error.h"
#include "util/rng.h"

namespace desmine::nmt {

/// Per-step training progress, delivered through TrainerConfig::on_step.
struct StepEvent {
  std::size_t step = 0;  ///< 1-based
  double loss = 0.0;     ///< mean per-token loss of this step's batch
};

struct TrainerConfig {
  std::size_t steps = 1000;   ///< paper: 1000 training steps
  std::size_t batch_size = 16;
  float lr = 1e-2f;
  float clip_norm = 5.0f;
  nn::AdamConfig adam{};  ///< lr below overrides adam.lr

  /// Divergence guard: after every step the trainer fails with
  /// TrainDivergence when the batch loss is NaN/Inf, or when it exceeds
  /// divergence_factor times the first step's loss (floored at 1e-3 so
  /// near-zero initial losses don't trip on noise). 0 disables the guard.
  double divergence_factor = 1e4;

  /// Progress hook called after every training step (miner wires this into
  /// per-pair telemetry). Beware: runs on the training thread; keep it cheap.
  std::function<void(const StepEvent&)> on_step;
};

struct TrainingHistory {
  std::vector<double> losses;  ///< mean per-token loss per step
  double final_loss = 0.0;
  std::size_t steps_run = 0;  ///< < config.steps only when it diverged
  /// 1-based step at which the divergence guard tripped; 0 = never.
  std::size_t diverged_at_step = 0;
};

/// Training diverged (non-finite or exploding loss). Carries the history up
/// to the offending step so callers can log where it tripped; the miner
/// treats this as retryable with a forked seed and a halved learning rate.
class TrainDivergence : public RuntimeError {
 public:
  TrainDivergence(const std::string& message, TrainingHistory history)
      : RuntimeError(message), history_(std::move(history)) {}

  /// 1-based step at which the guard tripped.
  std::size_t step() const { return history_.diverged_at_step; }
  const TrainingHistory& history() const { return history_; }

 private:
  TrainingHistory history_;
};

/// Run the teacher-forced training loop. Pairs with differing lengths are
/// bucketed by (source length, target length); each step samples one bucket
/// (weighted by size) and draws a batch from it with replacement.
TrainingHistory train(Seq2SeqModel& model,
                      const std::vector<EncodedPair>& pairs,
                      const TrainerConfig& config, util::Rng rng);

}  // namespace desmine::nmt
