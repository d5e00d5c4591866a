#include "core/edge_scorer.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/first_equal.h"

namespace desmine::core {

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// One FNV-1a step over an id.
std::uint64_t fnv_step(std::uint64_t h, std::uint32_t id) {
  return (h ^ id) * 0x100000001b3ull;
}

/// FNV-1a over ids: the content hash of a sentence's ids.
template <typename Id>
std::uint64_t ids_hash(const std::vector<Id>& ids) {
  std::uint64_t h = kFnvBasis;
  for (const Id id : ids) h = fnv_step(h, static_cast<std::uint32_t>(id));
  return h;
}

/// Slot of an open-addressing table of index + 1 (0 = empty) holding the
/// entry `same` accepts, or the empty slot where it belongs. The table is
/// a power of two in size and at most half full.
template <typename Same>
std::size_t probe(const std::vector<std::uint32_t>& slots, std::uint64_t hash,
                  const Same& same) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = (hash * 0x9e3779b97f4a7c15ull) >> 32;; ++i) {
    const std::uint32_t slot = slots[i & mask];
    if (slot == 0 || same(slot - 1)) return i & mask;
  }
}

/// Calls f with a zero of the unsigned type `width` (1, 2 or 4) bytes wide.
/// Ids are packed as [width byte][ids] at the narrowest width that holds
/// them all, so equal ids give equal bytes.
template <typename F>
auto at_width(std::uint8_t width, const F& f) {
  if (width == 1) return f(std::uint8_t{});
  if (width == 2) return f(std::uint16_t{});
  return f(std::uint32_t{});
}

/// Appends the packing of `ids` to `arena` and returns its offset.
template <typename Id>
std::uint32_t append_packed(std::vector<std::uint8_t>& arena,
                            const std::vector<Id>& ids) {
  std::uint32_t all = 0;
  for (const Id id : ids) all |= static_cast<std::uint32_t>(id);
  const std::uint8_t width = all < 0x100 ? 1 : all < 0x10000 ? 2 : 4;
  const std::size_t offset = arena.size();
  DESMINE_EXPECTS(offset + 1 + width * ids.size() <= 0xFFFFFFFFu,
                  "decode cache keys past 4 GiB");
  arena.resize(offset + 1 + width * ids.size());
  std::uint8_t* at = arena.data() + offset;
  *at++ = width;
  at_width(width, [&](auto narrow) {
    for (const Id id : ids) {
      narrow = static_cast<decltype(narrow)>(id);
      std::memcpy(at, &narrow, sizeof(narrow));
      at += sizeof(narrow);
    }
  });
  return static_cast<std::uint32_t>(offset);
}

/// Whether `length` packed bytes hold exactly `ids`, compared in place.
template <typename Id>
bool same_ids(const std::uint8_t* packed, std::size_t length,
              const std::vector<Id>& ids) {
  if (length - 1 != packed[0] * ids.size()) return false;
  return at_width(packed[0], [&](auto narrow) {
    const std::uint8_t* at = packed + 1;
    for (const Id id : ids) {
      std::memcpy(&narrow, at, sizeof(narrow));
      if (narrow != static_cast<std::uint32_t>(id)) return false;
      at += sizeof(narrow);
    }
    return true;
  });
}

/// ids_hash of the ids `length` packed bytes hold.
std::uint64_t packed_hash(const std::uint8_t* packed, std::size_t length) {
  return at_width(packed[0], [&](auto narrow) {
    std::uint64_t h = kFnvBasis;
    for (std::size_t at = 1; at < length; at += sizeof(narrow)) {
      std::memcpy(&narrow, packed + at, sizeof(narrow));
      h = fnv_step(h, narrow);
    }
    return h;
  });
}

/// Entry i's packed ids in `arena`: from its key offset up to the next
/// entry's, or to the arena's end.
template <typename Entry>
const std::uint8_t* packed_key(const std::vector<Entry>& entries,
                               const std::vector<std::uint8_t>& arena,
                               std::size_t i, std::size_t* length) {
  const std::size_t end =
      i + 1 < entries.size() ? entries[i + 1].key : arena.size();
  *length = end - entries[i].key;
  return arena.data() + entries[i].key;
}

/// Where a (candidate, reference) pair lives: the reference's profile hash
/// mixed with the candidate's number.
std::uint64_t pair_hash(std::uint64_t candidate, std::uint64_t profile_hash) {
  return (candidate * 0xbf58476d1ce4e5b9ull) ^ profile_hash;
}

/// Heap bytes of a profile's lists.
std::size_t heap_bytes(const text::NgramProfile& p) {
  return p.ids.capacity() * sizeof(std::uint32_t) +
         p.heads.capacity() * sizeof(std::uint64_t) +
         p.grams.capacity() * sizeof(std::uint32_t);
}

/// A slot table of twice the size (at least 16) holding `count` entries,
/// entry i placed by hash(i).
template <typename Hash>
void regrow(std::vector<std::uint32_t>& slots, std::size_t count,
            const Hash& hash) {
  slots.assign(std::max<std::size_t>(16, 2 * slots.size()), 0);
  for (std::size_t i = 0; i < count; ++i) {
    slots[probe(slots, hash(i), [](std::uint32_t) { return false; })] =
        static_cast<std::uint32_t>(i + 1);
  }
}

/// A decoded row as a candidate profile: the structural specials dropped,
/// exactly as Vocabulary::decode drops them from the candidate string.
text::NgramProfile candidate_profile(const std::vector<std::int32_t>& decoded,
                                     std::size_t max_order) {
  std::vector<std::uint32_t> ids;
  ids.reserve(decoded.size());
  for (const std::int32_t id : decoded) {
    if (!text::Vocabulary::structural(id)) {
      ids.push_back(static_cast<std::uint32_t>(id));
    }
  }
  return text::ngram_profile(std::move(ids), max_order);
}

/// encode_exact's ids of a sentence as model input, exact profile and
/// hashes.
EncodedSentence encoded(const text::Vocabulary& vocab,
                        std::vector<std::uint32_t> exact,
                        std::size_t max_order) {
  EncodedSentence out;
  out.input.reserve(exact.size());
  for (const std::uint32_t id : exact) {
    out.input.push_back(id < vocab.size() ? static_cast<std::int32_t>(id)
                                          : text::Vocabulary::kUnk);
  }
  out.profile = text::ngram_profile(std::move(exact), max_order);
  out.input_hash = ids_hash(out.input);
  out.profile_hash = ids_hash(out.profile.ids);
  return out;
}

}  // namespace

EncodedSentence encode_sentence(const text::Vocabulary& vocab,
                                const text::Sentence& sentence,
                                std::size_t max_order) {
  return encoded(vocab, vocab.encode_exact(sentence), max_order);
}

EncodedSentence encode_span(const text::Vocabulary& vocab,
                            const LanguageGenerator& language,
                            std::string_view chars, std::size_t max_order) {
  std::vector<std::string_view> words(language.word_count(chars.size()));
  for (std::size_t w = 0; w < words.size(); ++w) {
    words[w] = language.word(chars, w);
  }
  return encoded(vocab, vocab.encode_exact(words), max_order);
}

std::uint32_t DecodeCache::find(const EncodedSentence& source) const {
  if (sources_.empty()) return kMiss;
  const std::uint32_t slot = source_slots_[probe(
      source_slots_, source.input_hash, [&](std::uint32_t i) {
        std::size_t length = 0;
        const std::uint8_t* k = packed_key(sources_, keys_, i, &length);
        return same_ids(k, length, source.input);
      })];
  return slot == 0 ? kMiss : sources_[slot - 1].candidate;
}

void DecodeCache::insert(const EncodedSentence& source,
                         text::NgramProfile candidate) {
  const std::uint64_t hash = ids_hash(candidate.ids);
  if (2 * (candidates_.size() + 1) > candidate_slots_.size()) {
    grow_candidates();
  }
  std::uint32_t& c = candidate_slots_[probe(
      candidate_slots_, hash, [&](std::uint32_t i) {
        return candidates_[i].hash == hash &&
               candidates_[i].profile.ids == candidate.ids;
      })];
  if (c == 0) {
    candidate_bytes_ += heap_bytes(candidate);
    candidates_.push_back({std::move(candidate), hash});
    c = static_cast<std::uint32_t>(candidates_.size());
  }
  const std::uint32_t index = c - 1;

  if (2 * (sources_.size() + 1) > source_slots_.size()) grow_sources();
  sources_.push_back({append_packed(keys_, source.input), index});
  source_slots_[probe(source_slots_, source.input_hash,
                      [](std::uint32_t) { return false; })] =
      static_cast<std::uint32_t>(sources_.size());
}

bool DecodeCache::find_pair(std::uint32_t candidate,
                            const EncodedSentence& reference,
                            double* f) const {
  if (pairs_.empty()) return false;
  const std::uint32_t slot = pair_slots_[probe(
      pair_slots_, pair_hash(candidate, reference.profile_hash),
      [&](std::uint32_t i) {
        if (pairs_[i].candidate != candidate) return false;
        std::size_t length = 0;
        const std::uint8_t* k = packed_key(pairs_, pair_keys_, i, &length);
        return same_ids(k, length, reference.profile.ids);
      })];
  if (slot == 0) return false;
  *f = pairs_[slot - 1].f;
  return true;
}

void DecodeCache::insert_pair(std::uint32_t candidate,
                              const EncodedSentence& reference, double f) {
  DESMINE_EXPECTS(keeps_pairs(), "decode cache keeps no pairs");
  if (2 * (pairs_.size() + 1) > pair_slots_.size()) grow_pairs();
  pairs_.push_back({f, append_packed(pair_keys_, reference.profile.ids),
                    candidate});
  pair_slots_[probe(pair_slots_, pair_hash(candidate, reference.profile_hash),
                    [](std::uint32_t) { return false; })] =
      static_cast<std::uint32_t>(pairs_.size());
}

void DecodeCache::grow_sources() {
  regrow(source_slots_, sources_.size(), [this](std::size_t i) {
    std::size_t length = 0;
    const std::uint8_t* k = packed_key(sources_, keys_, i, &length);
    return packed_hash(k, length);
  });
}

void DecodeCache::grow_candidates() {
  regrow(candidate_slots_, candidates_.size(),
         [this](std::size_t i) { return candidates_[i].hash; });
}

void DecodeCache::grow_pairs() {
  regrow(pair_slots_, pairs_.size(), [this](std::size_t i) {
    std::size_t length = 0;
    const std::uint8_t* k = packed_key(pairs_, pair_keys_, i, &length);
    return pair_hash(pairs_[i].candidate, packed_hash(k, length));
  });
}

std::size_t DecodeCache::bytes() const {
  return keys_.capacity() + sources_.capacity() * sizeof(Source) +
         source_slots_.capacity() * sizeof(std::uint32_t) +
         candidates_.capacity() * sizeof(Candidate) +
         candidate_slots_.capacity() * sizeof(std::uint32_t) +
         candidate_bytes_ + pair_keys_.capacity() +
         pairs_.capacity() * sizeof(Pair) +
         pair_slots_.capacity() * sizeof(std::uint32_t);
}

void DecodeCache::clear_pairs() {
  pair_keys_.clear();
  pairs_.clear();
  std::fill(pair_slots_.begin(), pair_slots_.end(), 0);
}

void DecodeCache::clear() {
  keys_.clear();
  sources_.clear();
  std::fill(source_slots_.begin(), source_slots_.end(), 0);
  candidates_.clear();
  std::fill(candidate_slots_.begin(), candidate_slots_.end(), 0);
  candidate_bytes_ = 0;
  clear_pairs();
}

void MemoGauges::update(std::size_t entries, std::size_t bytes) {
  // Steady-state batches change neither: skip the two contended adds.
  if (entries == entries_reported_ && bytes == bytes_reported_) return;
  entries_.add(static_cast<double>(entries) -
               static_cast<double>(entries_reported_));
  bytes_.add(static_cast<double>(bytes) -
             static_cast<double>(bytes_reported_));
  entries_reported_ = entries;
  bytes_reported_ = bytes;
}

EdgeScorer::Result EdgeScorer::score(
    const ModelSource& model,
    const std::vector<const EncodedSentence*>& sources,
    const std::vector<const EncodedSentence*>& references,
    DecodeCache* cache) const {
  DESMINE_EXPECTS(sources.size() == references.size(),
                  "source/reference items must align");
  Result out;
  out.bleu.resize(sources.size());
  out.hit.assign(sources.size(), 0);

  // 1. Each item's candidate number: a hit's memo index, or past the memo's
  // candidates, its distinct miss's. Memo indices stay valid until the
  // inserts in step 4.
  const std::size_t memoised = cache != nullptr ? cache->candidates() : 0;
  std::vector<std::size_t> candidate(sources.size());
  std::vector<const EncodedSentence*> misses;
  util::FirstEqual first_source(sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k) {
    DESMINE_EXPECTS(sources[k] != nullptr && references[k] != nullptr,
                    "null sentence");
    const EncodedSentence& source = *sources[k];
    if (cache != nullptr) {
      const std::uint32_t hit = cache->find(source);
      if (hit != DecodeCache::kMiss) {
        candidate[k] = hit;
        out.hit[k] = Result::kCandidate;
        ++out.cache_hits;
        continue;
      }
    }
    const std::size_t first = first_source.find_or_add(
        source.input_hash, k,
        [&](std::size_t j) { return sources[j]->input == source.input; });
    if (first == k) {
      candidate[k] = memoised + misses.size();
      misses.push_back(&source);
    } else {
      candidate[k] = candidate[first];
    }
  }

  // 2. Decode the misses, profile each candidate once, and number the
  // misses that decode alike as their first.
  std::vector<text::NgramProfile> fresh;
  if (!misses.empty()) {
    const std::shared_ptr<nmt::TranslationModel> m = model();
    DESMINE_EXPECTS(m != nullptr, "edge has no model to decode with");
    std::vector<const std::vector<std::int32_t>*> inputs;
    inputs.reserve(misses.size());
    for (const EncodedSentence* miss : misses) inputs.push_back(&miss->input);
    const std::vector<std::vector<std::int32_t>> decoded =
        m->translate_ids(inputs);
    fresh.reserve(decoded.size());
    std::vector<std::size_t> alike(decoded.size());
    util::FirstEqual first_candidate(decoded.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      fresh.push_back(candidate_profile(decoded[i], options_.bleu.max_order));
      alike[i] = first_candidate.find_or_add(
          ids_hash(fresh[i].ids), i,
          [&](std::size_t j) { return fresh[j].ids == fresh[i].ids; });
    }
    for (std::size_t& c : candidate) {
      if (c >= memoised) c = memoised + alike[c - memoised];
    }
    out.decoded = misses.size();
  }

  // 3. f once per distinct (candidate, reference) pair: equal candidates
  // share a number, and references are compared by their ids, since each
  // window's sentence is encoded on its own. A memoised candidate's pair is
  // looked up in the cache's pair table, when it keeps one, and a pair it
  // misses joins it; the rest run sentence BLEU.
  const bool pairs = cache != nullptr && cache->keeps_pairs() &&
                     options_.cache_capacity > 0;
  util::FirstEqual first_pair(sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const std::size_t c = candidate[k];
    const EncodedSentence& ref = *references[k];
    const bool memo_pair = pairs && c < memoised;
    if (memo_pair && cache->find_pair(static_cast<std::uint32_t>(c), ref,
                                      &out.bleu[k])) {
      out.hit[k] = Result::kPair;
      ++out.pair_hits;
      continue;
    }
    const std::size_t first = first_pair.find_or_add(
        pair_hash(c, ref.profile_hash), k, [&](std::size_t j) {
          return candidate[j] == c &&
                 references[j]->profile.ids == ref.profile.ids;
        });
    if (first != k) {
      out.bleu[k] = out.bleu[first];
      continue;
    }
    const text::NgramProfile& cand = c < memoised
                                         ? cache->candidate(
                                               static_cast<std::uint32_t>(c))
                                         : fresh[c - memoised];
    out.bleu[k] = text::sentence_bleu_score(cand, ref.profile, options_.bleu);
    if (memo_pair) {
      if (cache->pairs() >= options_.cache_capacity) {
        cache->clear_pairs();
        ++out.cache_evictions;
      }
      cache->insert_pair(static_cast<std::uint32_t>(c), ref, out.bleu[k]);
    }
  }

  // 4. Memoize the fresh candidates.
  if (cache != nullptr && options_.cache_capacity > 0) {
    for (std::size_t i = 0; i < misses.size(); ++i) {
      if (cache->size() >= options_.cache_capacity) {
        cache->clear();
        ++out.cache_evictions;
      }
      cache->insert(*misses[i], std::move(fresh[i]));
    }
  }
  return out;
}

}  // namespace desmine::core
