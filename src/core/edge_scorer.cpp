#include "core/edge_scorer.h"

#include <utility>

#include "util/error.h"

namespace desmine::core {

namespace {

struct IdsPtrHash {
  std::size_t operator()(const std::vector<std::int32_t>* ids) const noexcept {
    return IdsHash{}(*ids);
  }
};

struct IdsPtrEqual {
  bool operator()(const std::vector<std::int32_t>* a,
                  const std::vector<std::int32_t>* b) const {
    return *a == *b;
  }
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
  std::unordered_map<const std::vector<std::int32_t>*, std::size_t,
                     IdsPtrHash, IdsPtrEqual>
      seen;
  std::vector<const std::vector<std::int32_t>*> misses;
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
    const auto [it, inserted] = seen.emplace(&input, misses.size());
    if (inserted) misses.push_back(&input);
    miss_of[k] = it->second;
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

  // 3. Sentence BLEU per item.
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const text::NgramProfile& candidate =
        cached[k] != nullptr ? *cached[k] : fresh[miss_of[k]];
    out.bleu[k] =
        text::sentence_bleu(candidate, references[k]->profile, options_.bleu)
            .score;
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
