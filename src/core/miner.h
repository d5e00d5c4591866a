// Relationship mining — Algorithm 1 of the paper.
//
// For every ordered pair of sensor languages (i, j), train a directional NMT
// model g(i, j) on aligned training sentences and measure the translation
// score s(i, j) as corpus BLEU on the aligned development sentences. All
// pair models share one architecture/configuration so their BLEU scores are
// comparable. Pairs are independent, so training fans out over a thread
// pool.
//
// Fault tolerance (ISSUE 2): each pair is isolated — a crash, divergence, or
// deadline overrun in one pair never aborts the run. Failed pairs are
// retried up to max_retries times, at once, with a forked seed and a halved
// learning rate; permanently failed pairs are recorded in the MvrGraph as
// absent edges with a reason. With a checkpoint journal configured, every
// finished pair is durably journaled (JSON lines + sidecar model artifact),
// and a resumed run skips already-scored pairs with bit-identical BLEU.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/mvr_graph.h"
#include "nmt/translation.h"
#include "text/vocabulary.h"

namespace desmine::core {

/// One sensor's language: aligned train/dev sentence corpora (sentence k of
/// every sensor covers the same time window).
struct SensorLanguage {
  std::string name;
  text::Corpus train;
  text::Corpus dev;
};

/// One finished directional pair model, delivered through
/// MinerConfig::on_pair as mining progresses. Names point into the miner's
/// language list and are only valid during the callback.
struct PairEvent {
  std::size_t pair_index = 0;  ///< stable enumeration order, 0-based
  std::size_t pair_count = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::string_view src_name;
  std::string_view dst_name;
  double bleu = 0.0;
  double wall_ms = 0.0;
  std::size_t steps_run = 0;  ///< training steps the pair model actually ran
  std::size_t attempts = 1;   ///< training attempts (1 = no retries needed)
  bool resumed = false;       ///< restored from the checkpoint, not trained
};

struct MinerConfig {
  nmt::TranslationConfig translation{};
  std::size_t threads = 0;      ///< 0 = hardware concurrency
  std::uint64_t seed = 42;      ///< master seed; per-pair seeds are forked

  /// Retries after a pair's first attempt. A failed attempt (crash or
  /// divergence) is retried at once with a forked seed and the learning
  /// rate halved per attempt: a new trajectory, not a wait for the same
  /// one. Deadline overruns are not retried (the budget would just elapse
  /// again).
  std::size_t max_retries = 2;

  /// Wall-clock budget per training attempt in seconds; 0 = unlimited.
  double pair_timeout_s = 0.0;

  /// Append-only JSON-lines checkpoint journal (plus a `.models/` sidecar
  /// directory of per-pair artifacts). Empty disables checkpointing.
  std::string checkpoint_path;

  /// Skip pairs already recorded in the checkpoint journal (their BLEU is
  /// restored bit-identically and the model reloaded from the sidecar).
  /// Resuming against a journal from a different configuration throws.
  bool resume = false;

  /// Polled between pairs; return true to abort mining gracefully (SIGINT).
  /// mine() then throws robust::Interrupted after the journal is flushed.
  std::function<bool()> should_abort;

  /// Progress hook called once per trained pair. Runs on the training
  /// thread (possibly a pool worker); must be thread-safe and cheap.
  std::function<void(const PairEvent&)> on_pair;
};

class RelationshipMiner {
 public:
  explicit RelationshipMiner(MinerConfig config);

  /// Train all N(N-1) directional pair models and assemble the MVRG.
  /// Languages must be aligned: equal train sizes and equal dev sizes.
  /// Pairs that permanently fail are reported via MvrGraph::failures()
  /// rather than aborting; throws robust::Interrupted when aborted via
  /// should_abort (completed pairs stay journaled for resume).
  MvrGraph mine(const std::vector<SensorLanguage>& languages) const;

  const MinerConfig& config() const { return config_; }

 private:
  MinerConfig config_;
};

}  // namespace desmine::core
