// One edge's Algorithm 2 scoring step, shared by every detection path.
//
// At window t, f(i,j) is the sentence BLEU (nmt::kBleu, the BLEU of s(i,j))
// of g(i,j)'s greedy translation of sensor i's sentence against sensor j's
// sentence. Batch detection
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
//   3. answers a memoised candidate's (candidate, reference) pair from the
//      cache's pair table when the cache keeps one, and otherwise runs
//      sentence BLEU (the allocation-free text::sentence_bleu_score) once
//      per distinct pair — a candidate by its number (a memo index, or a
//      fresh candidate's), a reference by its ids — hands the result to
//      every item of the pair, and memoises a memoised candidate's pairs;
//   4. memoises the fresh candidates in the cache (their pairs join on a
//      later call, once they have a memo index).
// Greedy decoding is a pure, row-independent function of the input ids, so
// a deduplicated item, a cache hit and a B=1 decode give the same bits; the
// profiles count exactly what the string sentence_bleu counts, and sentence
// BLEU is a function of the two profiles' ids, so f(i,j) is bit-identical to
// scoring the decoded strings item by item.
//
// Who owns the memos, and how long they live: serve::BatchScheduler keeps
// one per (generation, edge) state, without pairs, since its SpanMemo
// answers repeated pairs before anything is encoded; serve::ShadowScorer
// keeps one per candidate edge, also without pairs, for sampled windows
// scored off the client path. AnomalyDetector keeps one per valid
// edge, with pairs, for its own lifetime, so batch detect, detect_degraded
// and OnlineDetector decode only sources the edge has never seen, and a
// warm call on repeated sentences runs no sentence BLEU. Sensor languages
// are small: thousands of distinct sources decode to a few dozen
// candidates, so a memo stores each candidate once and each source as a
// few packed bytes pointing at it. A pair names its candidate by memo
// index, so the pair table lives and dies with the candidates' epoch; it
// also clears itself at cache_capacity pairs.
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
/// the caller, and optionally (candidate, reference ids) -> f(i,j). Not
/// thread-safe: one scorer at a time.
///
/// A source is compared by content (its input hash picks the slot, the ids
/// decide, read in place) and stored as its ids packed at the narrowest of
/// 8, 16 or 32 bits that holds them, plus the index of its candidate.
/// Candidates are interned: each distinct one stores its profile and ids
/// hash once, however many sources decode to it. A pair is stored as its
/// f, its candidate index and its reference's profile ids, packed like a
/// source's into a second arena; the reference's profile hash places it.
class DecodeCache {
 public:
  static constexpr std::uint32_t kMiss = 0xFFFFFFFFu;

  /// Whether the memo also keeps f per (candidate, reference) pair: the
  /// owner's choice, worth it only where nothing else answers pairs.
  enum class Pairs : bool { kOff, kOn };

  explicit DecodeCache(Pairs pairs = Pairs::kOff) : pairs_on_(pairs) {}

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

  bool keeps_pairs() const { return pairs_on_ == Pairs::kOn; }
  /// Sets `*f` to the memoised f of candidate `candidate` (an index of this
  /// epoch) against `reference`, and returns whether there is one. Always
  /// false without pairs.
  bool find_pair(std::uint32_t candidate, const EncodedSentence& reference,
                 double* f) const;
  /// Memoise (candidate, reference) -> f; the pair must not be memoised
  /// yet, and the memo must keep pairs.
  void insert_pair(std::uint32_t candidate, const EncodedSentence& reference,
                   double f);
  std::size_t pairs() const { return pairs_.size(); }  ///< memoised pairs
  /// Drop every pair, keeping the sources and candidates.
  void clear_pairs();

  /// Heap bytes held (capacities, not just sizes), the pair table's too.
  std::size_t bytes() const;

  /// Drop every entry, pairs included; keeps the tables' capacity for the
  /// next epoch.
  void clear();

 private:
  struct Source {
    std::uint32_t key;        ///< offset of its packed ids in keys_
    std::uint32_t candidate;  ///< index into candidates_
  };
  struct Pair {
    double f;
    std::uint32_t key;        ///< offset of its reference's ids in pair_keys_
    std::uint32_t candidate;  ///< index into candidates_
  };
  struct Candidate {
    text::NgramProfile profile;
    std::uint64_t hash;  ///< of profile.ids
  };

  /// Double a slot table and re-place its entries. The slot tables stay at
  /// most half full, so a probe always ends at an empty slot.
  void grow_sources();
  void grow_candidates();
  void grow_pairs();

  Pairs pairs_on_;
  std::vector<std::uint8_t> keys_;  ///< every source's packed ids
  std::vector<Source> sources_;
  std::vector<std::uint32_t> source_slots_;  ///< index + 1; 0 when empty
  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> candidate_slots_;
  std::size_t candidate_bytes_ = 0;  ///< heap bytes of the profiles
  std::vector<std::uint8_t> pair_keys_;  ///< every pair's reference ids
  std::vector<Pair> pairs_;
  std::vector<std::uint32_t> pair_slots_;
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
    /// Source bound of the caller's DecodeCache: an insert into a full
    /// cache clears it first (epoch eviction — periodic streams repopulate
    /// the working set within a few windows). Its pair table, when it keeps
    /// one, clears itself at the same number of pairs.
    std::size_t cache_capacity = 4096;
  };

  struct Result {
    /// What answered an item: nothing (decoded), the memo's candidate, or
    /// the memo's candidate and its f.
    enum Hit : std::uint8_t { kDecoded = 0, kCandidate = 1, kPair = 2 };

    std::vector<double> bleu;        ///< f(i,j) per item, in item order
    std::vector<std::uint8_t> hit;   ///< per item: a Hit
    std::size_t cache_hits = 0;      ///< items whose candidate was memoised
    std::size_t pair_hits = 0;       ///< items whose f was memoised too
    std::size_t decoded = 0;         ///< distinct sources decoded
    std::size_t cache_evictions = 0;  ///< cache and pair-table clears
  };

  /// Called at most once per score(), and only when something must be
  /// decoded (serve's mapped edges materialize lazily).
  using ModelSource = std::function<std::shared_ptr<nmt::TranslationModel>()>;

  explicit EdgeScorer(Options options) : options_(options) {}

  /// Score item k = sentence BLEU (nmt::kBleu) of
  /// greedy(sources[k]->input) against references[k]->profile. Sources
  /// must be encoded with the model's source vocabulary and references with
  /// its target vocabulary, at a max_order of at least nmt::kBleu.max_order.
  /// `cache` may be null (no memo). Throws whatever decoding throws.
  Result score(const ModelSource& model,
               const std::vector<const EncodedSentence*>& sources,
               const std::vector<const EncodedSentence*>& references,
               DecodeCache* cache = nullptr) const;

 private:
  Options options_;
};

}  // namespace desmine::core
