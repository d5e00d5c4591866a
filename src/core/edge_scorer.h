// One edge's Algorithm 2 scoring step, shared by every detection path.
//
// At window t, f(i,j) is the sentence BLEU of g(i,j)'s greedy translation of
// sensor i's sentence against sensor j's sentence. Batch detection
// (AnomalyDetector::detect, and through it OnlineDetector) and the serving
// layer (serve::BatchScheduler, serve::ShadowScorer) all compute it here.
//
// Scoring runs on token ids, never on strings. Every edge out of or into a
// sensor is trained on that sensor's one vocabulary (see
// sensor_vocabularies), so each window's sentence is encoded once per sensor
// (encode_sentence): model-input ids for the edges it is the source of, an
// exact n-gram profile for the edges it is the reference of. score() takes
// one edge's encoded (source, reference) items and
//   1. looks each source's input ids up in an optional caller-owned cache
//      of candidate profiles, and dedups the misses;
//   2. greedy-decodes the distinct misses with
//      TranslationModel::translate_ids (stacked rows, at most
//      nmt::kMaxDecodeRows per pass, on the scoring thread's
//      tensor::thread_workspace) and profiles each candidate once;
//   3. runs sentence BLEU once per distinct (candidate, reference) pair,
//      both compared by content (one sorted merge per n-gram order), and
//      hands the result to every item of the pair.
// Greedy decoding is a pure, row-independent function of the input ids, so
// a deduplicated item, a cache hit and a B=1 decode give the same bits; the
// profiles count exactly what the string sentence_bleu counts, and sentence
// BLEU is a function of the two profiles' ids, so f(i,j) is bit-identical to
// scoring the decoded strings item by item.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nmt/translation.h"
#include "text/bleu.h"

namespace desmine::core {

/// One sensor's sentence at one window, encoded against the sensor's
/// vocabulary and shared by every edge out of or into the sensor.
struct EncodedSentence {
  std::vector<std::int32_t> input;  ///< model-input ids (unknown -> <unk>)
  /// Exact n-gram profile: unknown tokens numbered past the vocabulary, so
  /// distinct tokens never collide.
  text::NgramProfile profile;
  /// Content hashes of `input` and `profile.ids`, taken once here so every
  /// edge that scores the sentence keys it by content without rehashing.
  std::uint64_t input_hash = 0;
  std::uint64_t profile_hash = 0;
};

EncodedSentence encode_sentence(const text::Vocabulary& vocab,
                                const text::Sentence& sentence,
                                std::size_t max_order);

/// encode_sentence over a whole corpus.
std::vector<EncodedSentence> encode_corpus(const text::Vocabulary& vocab,
                                           const text::Corpus& corpus,
                                           std::size_t max_order);

struct IdsHash {
  std::size_t operator()(const std::vector<std::int32_t>& ids) const noexcept;
};

/// Model-input ids -> candidate profile memo for one edge model, owned by
/// the caller (serve keeps one per edge and generation).
using DecodeCache =
    std::unordered_map<std::vector<std::int32_t>, text::NgramProfile, IdsHash>;

class EdgeScorer {
 public:
  struct Options {
    text::BleuOptions bleu{};
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

  /// Score item k = sentence BLEU of greedy(sources[k]->input) against
  /// references[k]->profile. Sources must be encoded with the model's source
  /// vocabulary and references with its target vocabulary, at a max_order of
  /// at least options.bleu.max_order. `cache` may be null (no memo). Throws
  /// whatever decoding throws.
  Result score(const ModelSource& model,
               const std::vector<const EncodedSentence*>& sources,
               const std::vector<const EncodedSentence*>& references,
               DecodeCache* cache = nullptr) const;

 private:
  Options options_;
};

}  // namespace desmine::core
