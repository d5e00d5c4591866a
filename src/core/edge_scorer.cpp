#include "core/edge_scorer.h"

#include <utility>

#include "util/error.h"

namespace desmine::core {

namespace {

/// Sets a model's decode precision for one scope, restoring it on exit.
class PrecisionScope {
 public:
  PrecisionScope(nmt::TranslationModel& model, tensor::Precision p)
      : model_(model), prev_(model.decode_precision()) {
    model_.set_decode_precision(p);
  }
  ~PrecisionScope() { model_.set_decode_precision(prev_); }
  PrecisionScope(const PrecisionScope&) = delete;
  PrecisionScope& operator=(const PrecisionScope&) = delete;

 private:
  nmt::TranslationModel& model_;
  tensor::Precision prev_;
};

struct SentenceLess {
  bool operator()(const text::Sentence* a, const text::Sentence* b) const {
    return *a < *b;
  }
};

}  // namespace

EdgeScorer::Result EdgeScorer::score(
    const ModelSource& model,
    const std::vector<const text::Sentence*>& sources,
    const std::vector<const text::Sentence*>& references,
    DecodeCache* cache) const {
  DESMINE_EXPECTS(sources.size() == references.size(),
                  "source/reference items must align");
  Result out;
  out.bleu.resize(sources.size());

  // 1. Cache lookups, then 2. dedup of the misses: item k's translation
  // is *cached[k] on a hit, else fresh[miss_of[k]]. Hit pointers stay
  // valid until the inserts in step 5.
  std::vector<const text::Sentence*> cached(sources.size(), nullptr);
  std::vector<std::size_t> miss_of(sources.size(), 0);
  std::map<const text::Sentence*, std::size_t, SentenceLess> seen;
  std::vector<const text::Sentence*> misses;
  for (std::size_t k = 0; k < sources.size(); ++k) {
    DESMINE_EXPECTS(sources[k] != nullptr && references[k] != nullptr,
                    "null sentence");
    if (cache != nullptr) {
      const auto hit = cache->find(*sources[k]);
      if (hit != cache->end()) {
        cached[k] = &hit->second;
        ++out.cache_hits;
        continue;
      }
    }
    const auto [it, inserted] = seen.emplace(sources[k], misses.size());
    if (inserted) misses.push_back(sources[k]);
    miss_of[k] = it->second;
  }

  // 3. Decode the misses.
  std::vector<text::Sentence> fresh;
  if (!misses.empty()) {
    const std::shared_ptr<nmt::TranslationModel> m = model();
    DESMINE_EXPECTS(m != nullptr, "edge has no model to decode with");
    const PrecisionScope precision(*m, options_.precision);
    fresh = m->translate_batch(misses);
    out.decoded = misses.size();
  }

  // 4. Sentence BLEU per item.
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const text::Sentence& candidate =
        cached[k] != nullptr ? *cached[k] : fresh[miss_of[k]];
    out.bleu[k] =
        text::sentence_bleu(candidate, *references[k], options_.bleu).score;
  }

  // 5. Memoize the fresh decodes.
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
