// One edge's Algorithm 2 scoring step, shared by every detection path.
//
// At window t, f(i,j) is the sentence BLEU of g(i,j)'s greedy translation of
// sensor i's sentence against sensor j's sentence. Batch detection
// (AnomalyDetector::detect, one call per edge over its distinct sentence
// pairs, and through it OnlineDetector and Framework::detect) and the serving
// layer (serve::BatchScheduler, serve::ShadowScorer) all compute it here.
//
// Scoring runs on token ids, never on strings. Every edge out of or into a
// sensor is trained on that sensor's one vocabulary (see
// sensor_vocabularies), so each window's sentence is encoded once per sensor
// (encode_span): model-input ids for the edges it is the source of, an
// exact n-gram profile for the edges it is the reference of. score() takes
// one edge's encoded (source, reference) items and
//   1. looks each source's input ids up in an optional caller-owned
//      DecodeCache, and dedups the misses;
//   2. greedy-decodes the distinct misses with
//      TranslationModel::translate_ids (stacked rows, at most
//      nmt::kMaxDecodeRows per pass, on the scoring thread's
//      tensor::thread_workspace) and profiles each candidate once;
//   3. runs sentence BLEU (the allocation-free text::sentence_bleu_score)
//      once per distinct (candidate, reference) pair — a candidate by its
//      number (a memo index, or a fresh candidate's), a reference by its
//      ids — and hands the result to every item of the pair;
//   4. memoises the fresh candidates in the cache.
// Greedy decoding is a pure, row-independent function of the input ids, so
// a deduplicated item, a cache hit and a B=1 decode give the same bits; the
// profiles count exactly what the string sentence_bleu counts, and sentence
// BLEU is a function of the two profiles' ids, so f(i,j) is bit-identical to
// scoring the decoded strings item by item.
//
// Who owns the memos, and how long they live: serve::BatchScheduler keeps
// one per (generation, edge) state; AnomalyDetector keeps one per valid
// edge for its own lifetime, so batch detect, detect_degraded and
// OnlineDetector decode only sources the edge has never seen. Sensor
// languages are small: thousands of distinct sources decode to a few dozen
// candidates, so a memo stores each candidate once and each source as a
// few packed bytes pointing at it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/language.h"
#include "nmt/translation.h"
#include "text/bleu.h"

namespace desmine::obs {
class Gauge;
}  // namespace desmine::obs

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

/// `sentence` encoded against `vocab`. No detection path encodes word
/// strings: this is the reference encode_span is tested against, word for
/// word, and the tests' way to score hand-built sentences.
EncodedSentence encode_sentence(const text::Vocabulary& vocab,
                                const text::Sentence& sentence,
                                std::size_t max_order);

/// The span encoder: the sentence `language` cuts from the character span
/// `chars`, encoded with the bits of
/// encode_sentence(vocab, language.to_words(chars), max_order) but with no
/// word string built — words are views into `chars`, looked up by view.
/// Every path that scores windows from characters (Framework::detect,
/// OnlineDetector, serve::encode_window) encodes through it.
EncodedSentence encode_span(const text::Vocabulary& vocab,
                            const LanguageGenerator& language,
                            std::string_view chars, std::size_t max_order);

/// One sensor's sentences over a run of windows, as batch detection scores
/// them: each distinct sentence encoded once, and per window the index of
/// its sentence. A sensor no valid edge touches may leave `sentences`
/// empty; `windows` still holds one entry per window.
struct EncodedCorpus {
  std::vector<EncodedSentence> sentences;
  std::vector<std::uint32_t> windows;  ///< window t's index into sentences
};

/// Model-input ids -> greedy candidate memo for one edge model, owned by
/// the caller. Not thread-safe: one scorer at a time.
///
/// A source is compared by content (its input hash picks the slot, the ids
/// decide) and stored as its ids packed at the narrowest of 8, 16 or 32 bits
/// that holds them, plus the index of its candidate. Candidates are
/// interned: each distinct one stores its profile and ids hash once,
/// however many sources decode to it.
class DecodeCache {
 public:
  static constexpr std::uint32_t kMiss = 0xFFFFFFFFu;

  /// The index of `source`'s memoised candidate, or kMiss. `source` must
  /// come from encode_span or encode_sentence, which take the input hash
  /// looked up here.
  std::uint32_t find(const EncodedSentence& source) const;

  /// Memoise `source` (not yet memoised) -> `candidate`, sharing the
  /// stored candidate with equal ids when there is one.
  void insert(const EncodedSentence& source, text::NgramProfile candidate);

  const text::NgramProfile& candidate(std::uint32_t index) const {
    return candidates_[index].profile;
  }
  std::size_t size() const { return sources_.size(); }  ///< memoised sources
  std::size_t candidates() const { return candidates_.size(); }
  /// Heap bytes held (capacities, not just sizes).
  std::size_t bytes() const;

  /// Drop every entry; keeps the tables' capacity for the next epoch.
  void clear();

 private:
  struct Source {
    std::uint32_t key;        ///< offset of its packed ids in keys_
    std::uint32_t candidate;  ///< index into candidates_
  };
  struct Candidate {
    text::NgramProfile profile;
    std::uint64_t hash;  ///< of profile.ids
  };

  /// Source i's packed ids: [width byte][ids], up to the next key.
  const std::uint8_t* key(std::size_t i, std::size_t* length) const;
  /// Double a slot table and re-place its entries. The slot tables stay at
  /// most half full, so a probe always ends at an empty slot.
  void grow_sources();
  void grow_candidates();

  std::vector<std::uint8_t> keys_;  ///< every source's packed ids
  std::vector<Source> sources_;
  std::vector<std::uint32_t> source_slots_;  ///< index + 1; 0 when empty
  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> candidate_slots_;
  std::size_t candidate_bytes_ = 0;  ///< heap bytes of the profiles
};

/// Keeps two process-wide gauges at the total entries and bytes of every
/// live memo set that reports to them: update() adds the change since this
/// reporter's last report, and the destructor takes its share back out.
class MemoGauges {
 public:
  MemoGauges(obs::Gauge& entries, obs::Gauge& bytes)
      : entries_(entries), bytes_(bytes) {}
  ~MemoGauges() { update(0, 0); }
  MemoGauges(const MemoGauges&) = delete;
  MemoGauges& operator=(const MemoGauges&) = delete;

  void update(std::size_t entries, std::size_t bytes);

 private:
  obs::Gauge& entries_;
  obs::Gauge& bytes_;
  std::size_t entries_reported_ = 0;
  std::size_t bytes_reported_ = 0;
};

class EdgeScorer {
 public:
  struct Options {
    text::BleuOptions bleu{};
    /// Source bound of the caller's DecodeCache: an insert into a full
    /// cache clears it first (epoch eviction — periodic streams repopulate
    /// the working set within a few windows).
    std::size_t cache_capacity = 4096;
  };

  struct Result {
    std::vector<double> bleu;        ///< f(i,j) per item, in item order
    std::vector<std::uint8_t> hit;   ///< per item: 1 when a cache hit
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
