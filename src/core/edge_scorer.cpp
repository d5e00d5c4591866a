#include "core/edge_scorer.h"

#include <utility>

#include "util/error.h"

namespace desmine::core {

namespace {

/// FNV-1a over a profile's ids (which alone decide its sentence BLEU).
std::uint64_t ids_hash(const std::vector<std::uint32_t>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint32_t id : ids) h = (h ^ id) * 0x100000001b3ull;
  return h;
}

/// Finds the first of the items that are equal by content, through their
/// 64-bit content keys: an open-addressing table, at most half full.
class FirstEqual {
 public:
  explicit FirstEqual(std::size_t items) {
    std::size_t capacity = 8;
    while (capacity < 2 * items) capacity *= 2;
    slots_.assign(capacity, Slot{0, kNone});
  }

  /// The earliest item j added with `key` for which same(j) holds; when
  /// there is none, adds item k and returns k.
  template <typename Same>
  std::size_t find_or_add(std::uint64_t key, std::size_t k, const Same& same) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * 0x9e3779b97f4a7c15ull) >> 32;; ++i) {
      Slot& slot = slots_[i & mask];
      if (slot.item == kNone) {
        slot = {key, k};
        return k;
      }
      if (slot.key == key && same(slot.item)) return slot.item;
    }
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  struct Slot {
    std::uint64_t key;
    std::size_t item;
  };
  std::vector<Slot> slots_;
};

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

}  // namespace

EncodedSentence encode_sentence(const text::Vocabulary& vocab,
                                const text::Sentence& sentence,
                                std::size_t max_order) {
  std::vector<std::uint32_t> exact = vocab.encode_exact(sentence);
  EncodedSentence out;
  out.input.reserve(exact.size());
  for (const std::uint32_t id : exact) {
    out.input.push_back(id < vocab.size() ? static_cast<std::int32_t>(id)
                                          : text::Vocabulary::kUnk);
  }
  out.profile = text::ngram_profile(std::move(exact), max_order);
  out.input_hash = IdsHash{}(out.input);
  out.profile_hash = ids_hash(out.profile.ids);
  return out;
}

std::vector<EncodedSentence> encode_corpus(const text::Vocabulary& vocab,
                                           const text::Corpus& corpus,
                                           std::size_t max_order) {
  std::vector<EncodedSentence> out;
  out.reserve(corpus.size());
  for (const text::Sentence& s : corpus) {
    out.push_back(encode_sentence(vocab, s, max_order));
  }
  return out;
}

std::size_t IdsHash::operator()(
    const std::vector<std::int32_t>& ids) const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the ids
  for (const std::int32_t id : ids) {
    h = (h ^ static_cast<std::uint32_t>(id)) * 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h ^ (h >> 29));
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

  // 1. Cache lookups and dedup of the misses: item k's candidate is
  // *cached[k] on a hit, else fresh[miss_of[k]]. Hit pointers stay valid
  // until the inserts in step 4.
  std::vector<const text::NgramProfile*> cached(sources.size(), nullptr);
  std::vector<std::size_t> miss_of(sources.size(), 0);
  std::vector<const std::vector<std::int32_t>*> misses;
  FirstEqual first_source(sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k) {
    DESMINE_EXPECTS(sources[k] != nullptr && references[k] != nullptr,
                    "null sentence");
    const std::vector<std::int32_t>& input = sources[k]->input;
    if (cache != nullptr) {
      const auto hit = cache->find(input);
      if (hit != cache->end()) {
        cached[k] = &hit->second;
        ++out.cache_hits;
        continue;
      }
    }
    const std::size_t first = first_source.find_or_add(
        sources[k]->input_hash, k,
        [&](std::size_t j) { return sources[j]->input == input; });
    if (first == k) {
      miss_of[k] = misses.size();
      misses.push_back(&input);
    } else {
      miss_of[k] = miss_of[first];
    }
  }

  // 2. Decode the misses and profile each candidate once.
  std::vector<text::NgramProfile> fresh;
  if (!misses.empty()) {
    const std::shared_ptr<nmt::TranslationModel> m = model();
    DESMINE_EXPECTS(m != nullptr, "edge has no model to decode with");
    const std::vector<std::vector<std::int32_t>> decoded =
        m->translate_ids(misses);
    fresh.reserve(decoded.size());
    for (const std::vector<std::int32_t>& ids : decoded) {
      fresh.push_back(candidate_profile(ids, options_.bleu.max_order));
    }
    out.decoded = misses.size();
  }

  // 3. Sentence BLEU once per distinct (candidate, reference) pair, both
  // compared by their ids: distinct sources may decode alike, and each
  // window's sentence is encoded on its own.
  const auto candidate = [&](std::size_t k) -> const text::NgramProfile& {
    return cached[k] != nullptr ? *cached[k] : fresh[miss_of[k]];
  };
  std::vector<std::uint64_t> fresh_hash(fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    fresh_hash[i] = ids_hash(fresh[i].ids);
  }
  FirstEqual first_pair(sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const text::NgramProfile& cand = candidate(k);
    const EncodedSentence& ref = *references[k];
    const std::uint64_t cand_hash =
        cached[k] != nullptr ? ids_hash(cand.ids) : fresh_hash[miss_of[k]];
    const std::size_t first = first_pair.find_or_add(
        cand_hash ^ (ref.profile_hash * 0xbf58476d1ce4e5b9ull), k,
        [&](std::size_t j) {
          return candidate(j).ids == cand.ids &&
                 references[j]->profile.ids == ref.profile.ids;
        });
    out.bleu[k] =
        first == k
            ? text::sentence_bleu(cand, ref.profile, options_.bleu).score
            : out.bleu[first];
  }

  // 4. Memoize the fresh candidates.
  if (cache != nullptr && options_.cache_capacity > 0) {
    for (std::size_t i = 0; i < misses.size(); ++i) {
      if (cache->size() >= options_.cache_capacity) {
        cache->clear();
        ++out.cache_evictions;
      }
      cache->emplace(*misses[i], std::move(fresh[i]));
    }
  }
  return out;
}

}  // namespace desmine::core
