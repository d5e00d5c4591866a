// BLEU — BiLingual Evaluation Understudy (Papineni et al., ACL 2002).
//
// The paper uses corpus BLEU on a 0–100 scale as the pairwise relationship
// metric s(i,j) between sensor languages (§II-A3). This implementation is
// the standard formulation: geometric mean of modified n-gram precisions up
// to max_order, times a brevity penalty, with optional +1 smoothing
// (Lin & Och) so short sensor sentences with a missing n-gram order do not
// collapse the score to zero.
//
// Counting runs on token ids. A sentence's NgramProfile holds its n-grams
// sorted per order, so the clipped matches of a candidate/reference pair
// are one linear merge per order. Scorers that see a sentence many times
// (one reference per sensor and window, one candidate per cached decode)
// build its profile once; the string entry points number each pair's tokens
// and go through the same profiles and merge.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "text/vocabulary.h"

namespace desmine::text {

struct BleuOptions {
  std::size_t max_order = 4;
  bool smooth = true;  ///< add-one smoothing on zero precision counts
};

struct BleuBreakdown {
  double score = 0.0;  ///< 0..100
  double brevity_penalty = 1.0;
  std::vector<double> precisions;  ///< per n-gram order, 0..1
  std::size_t candidate_length = 0;
  std::size_t reference_length = 0;
};

/// Exact n-gram profile of one sentence in token-id form. `ids` must number
/// tokens injectively within the id space both sides of a comparison share
/// (equal tokens, equal ids; distinct tokens, distinct ids). For each order
/// n = 1..max_order in turn, `heads` holds the sort keys (first ids,
/// packed) of the sentence's n-grams in one canonical n-gram order, and
/// `grams` their start positions for the orders whose heads do not hold
/// the whole n-gram (n > 4, or ids past 16 bits).
struct NgramProfile {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint64_t> heads;
  std::vector<std::uint32_t> grams;
  std::size_t max_order = 0;
  bool small = true;  ///< every id below 0xFFFF
};

/// Profile `ids` for orders 1..max_order (max_order >= 1).
NgramProfile ngram_profile(std::vector<std::uint32_t> ids,
                           std::size_t max_order);

/// Sentence BLEU of two profiles numbered in one id space; both must cover
/// options.max_order. Bit-identical to the string sentence_bleu of the
/// sentences they encode.
BleuBreakdown sentence_bleu(const NgramProfile& candidate,
                            const NgramProfile& reference,
                            const BleuOptions& options = {});

/// sentence_bleu(candidate, reference, options).score, bit for bit, without
/// the breakdown: the per-pair scorers' entry point, which allocates nothing
/// for any realistic max_order.
double sentence_bleu_score(const NgramProfile& candidate,
                           const NgramProfile& reference,
                           const BleuOptions& options = {});

/// Corpus-level BLEU between aligned candidate/reference sentence lists.
/// Requires equal list sizes; empty corpora score 0.
BleuBreakdown corpus_bleu(const Corpus& candidates, const Corpus& references,
                          const BleuOptions& options = {});

/// Sentence-level BLEU (a corpus of one).
BleuBreakdown sentence_bleu(const Sentence& candidate,
                            const Sentence& reference,
                            const BleuOptions& options = {});

}  // namespace desmine::text
