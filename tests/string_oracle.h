// The tests' string reference for Algorithm 2's input: aligned string
// corpora turned into the encoded windows AnomalyDetector::detect takes,
// one core::encode_sentence per window, with no deduplication and no span
// encoder. Detection paths that encode from character streams
// (Framework::encode, core::encode_span) are checked against it, so it must
// never call them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/anomaly.h"
#include "core/edge_scorer.h"
#include "text/vocabulary.h"

namespace desmine::oracle {

/// Every sentence of `corpus` encoded against `vocab`, in order.
inline std::vector<core::EncodedSentence> encode_sentences(
    const text::Vocabulary& vocab, const text::Corpus& corpus,
    std::size_t max_order) {
  std::vector<core::EncodedSentence> out;
  out.reserve(corpus.size());
  for (const text::Sentence& s : corpus) {
    out.push_back(core::encode_sentence(vocab, s, max_order));
  }
  return out;
}

/// Algorithm 2 on string corpora: `corpora[k]` (sensor node k's sentence
/// per window) is encoded for `detector`, window t pointing at its own
/// sentence, and scored by detect(). A sensor no valid edge touches keeps
/// its window count and no sentences.
inline core::DetectionResult detect_strings(
    const core::AnomalyDetector& detector,
    const std::vector<text::Corpus>& corpora,
    const core::DetectOptions& options = {}) {
  std::vector<core::EncodedCorpus> encoded(corpora.size());
  for (std::size_t k = 0; k < corpora.size(); ++k) {
    encoded[k].windows.assign(corpora[k].size(), 0);
    const text::Vocabulary* vocab = detector.vocabulary(k);
    if (vocab == nullptr) continue;
    encoded[k].sentences =
        encode_sentences(*vocab, corpora[k], nmt::kBleu.max_order);
    for (std::size_t t = 0; t < corpora[k].size(); ++t) {
      encoded[k].windows[t] = static_cast<std::uint32_t>(t);
    }
  }
  return detector.detect(encoded, options);
}

}  // namespace desmine::oracle
