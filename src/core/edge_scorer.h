// One edge's Algorithm 2 scoring step, shared by every detection path.
//
// At window t, f(i,j) is the sentence BLEU of g(i,j)'s greedy translation of
// sensor i's sentence against sensor j's sentence. Batch detection
// (AnomalyDetector::detect, and through it OnlineDetector) and the serving
// layer (serve::BatchScheduler) all compute it here. score() takes one
// edge's (source, reference) items and
//   1. dedups the sources — periodic sensors repeat sentences heavily;
//   2. looks the distinct sources up in an optional caller-owned cache;
//   3. greedy-decodes the misses with TranslationModel::translate_batch
//      (stacked rows, at most nmt::kMaxDecodeRows per pass, on the scoring
//      thread's tensor::thread_workspace);
//   4. runs sentence BLEU per item.
// Greedy decoding is a pure, row-independent function of the source tokens,
// so a deduplicated item, a cache hit and a B=1 decode give the same bits.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "nmt/translation.h"
#include "tensor/kernels.h"
#include "text/bleu.h"

namespace desmine::core {

/// Source -> greedy translation memo for one edge model under one decode
/// precision, owned by the caller (serve keeps one per edge and generation).
using DecodeCache = std::map<text::Sentence, text::Sentence>;

class EdgeScorer {
 public:
  struct Options {
    text::BleuOptions bleu{};
    /// Decode precision; the model's previous precision is restored after.
    tensor::Precision precision = tensor::Precision::kF32;
    /// Entry bound of the caller's DecodeCache: an insert into a full cache
    /// clears it first (epoch eviction — periodic streams repopulate the
    /// working set within a few windows).
    std::size_t cache_capacity = 4096;
  };

  struct Result {
    std::vector<double> bleu;        ///< f(i,j) per item, in item order
    std::size_t cache_hits = 0;      ///< items answered from the cache
    std::size_t decoded = 0;         ///< distinct sources decoded
    std::size_t cache_evictions = 0;  ///< cache clears
  };

  /// Called at most once per score(), and only when something must be
  /// decoded (serve's mapped edges materialize lazily).
  using ModelSource = std::function<std::shared_ptr<nmt::TranslationModel>()>;

  explicit EdgeScorer(Options options) : options_(options) {}

  /// Score item k = sentence_bleu(greedy(*sources[k]), *references[k]).
  /// `cache` may be null (no memo). Throws whatever decoding throws.
  Result score(const ModelSource& model,
               const std::vector<const text::Sentence*>& sources,
               const std::vector<const text::Sentence*>& references,
               DecodeCache* cache = nullptr) const;

 private:
  Options options_;
};

}  // namespace desmine::core
