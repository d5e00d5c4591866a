// Unit and property tests for the vocabulary and BLEU implementation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "text/bleu.h"
#include "text/vocabulary.h"
#include "util/error.h"
#include "util/rng.h"

namespace dx = desmine::text;

// ----------------------------------------------------------- vocabulary ----

TEST(Vocabulary, SpecialsReserved) {
  dx::Vocabulary v;
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.token(dx::Vocabulary::kPad), "<pad>");
  EXPECT_EQ(v.token(dx::Vocabulary::kUnk), "<unk>");
  EXPECT_EQ(v.token(dx::Vocabulary::kBos), "<s>");
  EXPECT_EQ(v.token(dx::Vocabulary::kEos), "</s>");
}

TEST(Vocabulary, BuildAssignsInsertionOrder) {
  const dx::Corpus corpus = {{"bb", "aa"}, {"aa", "cc"}};
  const auto v = dx::Vocabulary::build(corpus);
  EXPECT_EQ(v.size(), 7u);
  EXPECT_EQ(v.id("bb"), 4);
  EXPECT_EQ(v.id("aa"), 5);
  EXPECT_EQ(v.id("cc"), 6);
}

TEST(Vocabulary, UnknownMapsToUnk) {
  const auto v = dx::Vocabulary::build({{"x"}});
  EXPECT_EQ(v.id("never-seen"), dx::Vocabulary::kUnk);
  EXPECT_FALSE(v.contains("never-seen"));
  EXPECT_TRUE(v.contains("x"));
}

TEST(Vocabulary, EncodeDecodeRoundTrip) {
  const auto v = dx::Vocabulary::build({{"a", "b", "c"}});
  const auto ids = v.encode({"c", "a", "zzz"});
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[2], dx::Vocabulary::kUnk);
  const auto back = v.decode(ids);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], "c");
  EXPECT_EQ(back[2], "<unk>");
}

TEST(Vocabulary, DecodeSkipsStructuralSpecials) {
  const auto v = dx::Vocabulary::build({{"a"}});
  const auto s = v.decode({dx::Vocabulary::kBos, 4, dx::Vocabulary::kEos,
                           dx::Vocabulary::kPad});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], "a");
}

TEST(Vocabulary, TokenRangeChecked) {
  dx::Vocabulary v;
  EXPECT_THROW(v.token(99), desmine::PreconditionError);
  EXPECT_THROW(v.token(-1), desmine::PreconditionError);
}

// ----------------------------------------------------------- BLEU ----------

TEST(Bleu, PerfectTranslationScores100) {
  const dx::Sentence s = {"a", "b", "c", "d", "e"};
  const auto b = dx::sentence_bleu(s, s);
  EXPECT_NEAR(b.score, 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(b.brevity_penalty, 1.0);
  for (double p : b.precisions) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(Bleu, CompletelyWrongScoresNearZero) {
  const dx::Sentence cand = {"x", "y", "z", "w"};
  const dx::Sentence ref = {"a", "b", "c", "d"};
  dx::BleuOptions opts;
  opts.smooth = false;
  EXPECT_DOUBLE_EQ(dx::sentence_bleu(cand, ref, opts).score, 0.0);
  // Smoothed score is small but positive.
  opts.smooth = true;
  const double s = dx::sentence_bleu(cand, ref, opts).score;
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 40.0);  // +1 smoothing floors short sentences around 30
}

TEST(Bleu, BrevityPenaltyAppliedForShortCandidates) {
  const dx::Sentence ref = {"a", "b", "c", "d", "e", "f"};
  const dx::Sentence cand = {"a", "b", "c"};
  const auto b = dx::sentence_bleu(cand, ref);
  EXPECT_LT(b.brevity_penalty, 1.0);
  EXPECT_NEAR(b.brevity_penalty, std::exp(1.0 - 6.0 / 3.0), 1e-12);
}

TEST(Bleu, NoBrevityPenaltyForLongCandidates) {
  const dx::Sentence ref = {"a", "b", "c"};
  const dx::Sentence cand = {"a", "b", "c", "d", "e"};
  EXPECT_DOUBLE_EQ(dx::sentence_bleu(cand, ref).brevity_penalty, 1.0);
}

TEST(Bleu, ModifiedPrecisionClipsRepeats) {
  // Candidate repeating a reference word must not inflate precision
  // (the classic "the the the" example from the BLEU paper).
  const dx::Sentence cand = {"the", "the", "the", "the"};
  const dx::Sentence ref = {"the", "cat", "sat", "there"};
  dx::BleuOptions opts;
  opts.max_order = 1;
  opts.smooth = false;
  const auto b = dx::sentence_bleu(cand, ref, opts);
  EXPECT_NEAR(b.precisions[0], 0.25, 1e-12);  // clipped to 1 occurrence
}

TEST(Bleu, CorpusLevelAggregatesOverSentences) {
  const dx::Corpus cands = {{"a", "b", "c", "d"}, {"x", "x", "x", "x"}};
  const dx::Corpus refs = {{"a", "b", "c", "d"}, {"a", "b", "c", "d"}};
  const auto whole = dx::corpus_bleu(cands, refs);
  const auto perfect = dx::corpus_bleu({cands[0]}, {refs[0]});
  EXPECT_LT(whole.score, perfect.score);
  EXPECT_GT(whole.score, 0.0);
}

TEST(Bleu, EmptyCorpusScoresZero) {
  const auto b = dx::corpus_bleu({}, {});
  EXPECT_DOUBLE_EQ(b.score, 0.0);
}

TEST(Bleu, MisalignedCorporaThrow) {
  EXPECT_THROW(dx::corpus_bleu({{"a"}}, {}), desmine::PreconditionError);
}

TEST(Bleu, MoreOverlapScoresHigher) {
  const dx::Sentence ref = {"a", "b", "c", "d", "e", "f", "g", "h"};
  const dx::Sentence close = {"a", "b", "c", "d", "e", "f", "x", "y"};
  const dx::Sentence far = {"a", "x", "c", "y", "e", "z", "g", "w"};
  EXPECT_GT(dx::sentence_bleu(close, ref).score,
            dx::sentence_bleu(far, ref).score);
}

TEST(Bleu, ScoreIsBounded) {
  desmine::util::Rng rng(9);
  const std::vector<std::string> alphabet = {"a", "b", "c"};
  for (int trial = 0; trial < 50; ++trial) {
    dx::Sentence cand, ref;
    const std::size_t cl = 1 + rng.index(10);
    const std::size_t rl = 1 + rng.index(10);
    for (std::size_t i = 0; i < cl; ++i) cand.push_back(alphabet[rng.index(3)]);
    for (std::size_t i = 0; i < rl; ++i) ref.push_back(alphabet[rng.index(3)]);
    const auto b = dx::sentence_bleu(cand, ref);
    EXPECT_GE(b.score, 0.0);
    EXPECT_LE(b.score, 100.0 + 1e-9);
  }
}

TEST(Bleu, ShortSentencesBelowMaxOrderStillScore) {
  // 2-token sentences have no 3-/4-grams; smoothing must keep the geometric
  // mean finite (this is the sensor-language case with tiny sentences).
  const dx::Sentence s = {"a", "b"};
  const auto b = dx::sentence_bleu(s, s);
  EXPECT_GT(b.score, 50.0);
  EXPECT_LE(b.score, 100.0);
}

TEST(Bleu, EmptyCandidateHasZeroBrevityPenaltyWithAndWithoutSmoothing) {
  const dx::Sentence ref = {"a", "b", "c"};
  for (const bool smooth : {true, false}) {
    dx::BleuOptions opts;
    opts.smooth = smooth;
    const auto b = dx::sentence_bleu({}, ref, opts);
    EXPECT_DOUBLE_EQ(b.score, 0.0) << smooth;
    EXPECT_DOUBLE_EQ(b.brevity_penalty, 0.0) << smooth;
  }
}

// ------------------------------------------ BLEU differential -------------

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Test-only oracle: clipped n-gram counts through string-keyed maps (the
/// textbook formulation), then the documented BLEU arithmetic.
struct Oracle {
  std::vector<std::size_t> matched, total;
  std::size_t cand_len = 0, ref_len = 0;

  explicit Oracle(std::size_t max_order)
      : matched(max_order, 0), total(max_order, 0) {}

  static std::map<std::string, std::size_t> counts(const dx::Sentence& s,
                                                   std::size_t n) {
    std::map<std::string, std::size_t> out;
    for (std::size_t i = 0; i + n <= s.size(); ++i) {
      std::string key = s[i];
      for (std::size_t k = 1; k < n; ++k) key += '\x1f' + s[i + k];
      ++out[key];
    }
    return out;
  }

  void add(const dx::Sentence& cand, const dx::Sentence& ref) {
    cand_len += cand.size();
    ref_len += ref.size();
    for (std::size_t n = 1; n <= matched.size(); ++n) {
      const auto ref_counts = counts(ref, n);
      for (const auto& [gram, count] : counts(cand, n)) {
        total[n - 1] += count;
        const auto it = ref_counts.find(gram);
        if (it != ref_counts.end()) {
          matched[n - 1] += std::min(count, it->second);
        }
      }
    }
  }

  double score(bool smooth) const {
    double log_sum = 0.0;
    for (std::size_t n = 0; n < matched.size(); ++n) {
      double num = static_cast<double>(matched[n]);
      double den = static_cast<double>(total[n]);
      if (smooth && (num == 0.0 || den == 0.0)) {
        num += 1.0;
        den += 1.0;
      }
      if (num == 0.0 || den == 0.0) return 0.0;
      log_sum += std::log(num / den);
    }
    const double bp =
        cand_len >= ref_len
            ? 1.0
            : cand_len == 0 ? 0.0
                            : std::exp(1.0 - static_cast<double>(ref_len) /
                                                 static_cast<double>(cand_len));
    return 100.0 * std::exp(log_sum / static_cast<double>(matched.size())) *
           bp;
  }
};

/// Random sentence over `words`, with runs (repeated n-grams) and empty or
/// shorter-than-order lengths.
dx::Sentence random_sentence(desmine::util::Rng& rng,
                             const std::vector<std::string>& words) {
  dx::Sentence s;
  const std::size_t length = rng.index(13);
  while (s.size() < length) {
    const std::string& w = words[rng.index(words.size())];
    const std::size_t run = rng.bernoulli(0.3) ? 1 + rng.index(4) : 1;
    for (std::size_t k = 0; k < run && s.size() < length; ++k) s.push_back(w);
  }
  return s;
}

/// Profile ids remapped injectively past 65,535 for every odd id, so pairs
/// mix small and large ids.
dx::NgramProfile widened(std::vector<std::uint32_t> ids,
                         std::size_t max_order) {
  for (std::uint32_t& id : ids) {
    if (id % 2 == 1) id = 70001 + id * 4099;
  }
  return dx::ngram_profile(std::move(ids), max_order);
}

}  // namespace

TEST(BleuDifferential, EveryEntryPointMatchesTheMapOracleBitForBit) {
  desmine::util::Rng rng(2024);
  // Known words (literal specials included) and words unknown to `vocab`.
  const dx::Vocabulary vocab = dx::Vocabulary::build({{"a", "b", "c", "d"}});
  const std::vector<std::string> known = {"a", "b", "c", "d", "<unk>", "<s>"};
  std::vector<std::string> any = known;
  for (const char* w : {"x", "y", "zz"}) any.push_back(w);

  std::size_t checked = 0;
  for (std::size_t max_order = 1; max_order <= 6; ++max_order) {
    for (const bool smooth : {true, false}) {
      const dx::BleuOptions opts{max_order, smooth};
      for (int trial = 0; trial < 60; ++trial) {
        // Candidates come out of the vocabulary (as decoded ones do);
        // references may hold unknown words.
        const dx::Sentence cand = random_sentence(rng, known);
        const dx::Sentence ref = random_sentence(rng, any);
        Oracle oracle(max_order);
        oracle.add(cand, ref);
        const std::uint64_t expected = bits(oracle.score(smooth));

        EXPECT_EQ(bits(dx::sentence_bleu(cand, ref, opts).score), expected);
        EXPECT_EQ(bits(dx::corpus_bleu({cand}, {ref}, opts).score), expected);
        const std::vector<std::uint32_t> cand_ids = vocab.encode_exact(cand);
        const std::vector<std::uint32_t> ref_ids = vocab.encode_exact(ref);
        EXPECT_EQ(bits(dx::sentence_bleu(dx::ngram_profile(cand_ids, max_order),
                                          dx::ngram_profile(ref_ids, max_order),
                                          opts)
                           .score),
                  expected);
        EXPECT_EQ(bits(dx::sentence_bleu(widened(cand_ids, max_order),
                                          widened(ref_ids, max_order), opts)
                           .score),
                  expected);
        ++checked;
      }

      dx::Corpus cands, refs;
      Oracle oracle(max_order);
      for (int s = 0; s < 25; ++s) {
        cands.push_back(random_sentence(rng, any));
        refs.push_back(random_sentence(rng, any));
        oracle.add(cands.back(), refs.back());
      }
      EXPECT_EQ(bits(dx::corpus_bleu(cands, refs, opts).score),
                bits(oracle.score(smooth)));
    }
  }
  EXPECT_EQ(checked, 6u * 2u * 60u);
}

TEST(BleuDifferential, ProfileIdsBeyond16BitsMatchSmallIds) {
  // The same sentence pair numbered with small ids and with ids past
  // 65,535 scores the same bits.
  const std::vector<std::uint32_t> cand = {4, 5, 5, 6, 4, 5, 5, 6, 7};
  const std::vector<std::uint32_t> ref = {4, 5, 5, 6, 9, 4, 5, 5, 6};
  const auto shift = [](std::vector<std::uint32_t> ids) {
    for (std::uint32_t& id : ids) id += 100000;
    return ids;
  };
  for (std::size_t max_order = 1; max_order <= 6; ++max_order) {
    const dx::BleuOptions opts{max_order, true};
    const double small = dx::sentence_bleu(dx::ngram_profile(cand, max_order),
                                           dx::ngram_profile(ref, max_order),
                                           opts)
                             .score;
    const double large =
        dx::sentence_bleu(dx::ngram_profile(shift(cand), max_order),
                          dx::ngram_profile(shift(ref), max_order), opts)
            .score;
    EXPECT_EQ(bits(small), bits(large)) << max_order;
    EXPECT_GT(small, 0.0);
  }
}

TEST(BleuDifferential, ScoreOnlyEntryPointMatchesTheBreakdownBitForBit) {
  // sentence_bleu_score keeps its counts on the stack up to a fixed order
  // and on the heap past it: every order from 1 to well past any such
  // limit, smoothing on and off, profiles built at or above the scored
  // order, with small ids and with ids at and past 0xFFFF.
  desmine::util::Rng rng(4242);
  const auto random_ids = [&rng] {
    std::vector<std::uint32_t> ids;
    const std::size_t length = rng.index(26);
    while (ids.size() < length) {
      const auto id = static_cast<std::uint32_t>(rng.index(5));
      const std::size_t run = rng.bernoulli(0.3) ? 1 + rng.index(4) : 1;
      for (std::size_t k = 0; k < run && ids.size() < length; ++k) {
        ids.push_back(id);
      }
    }
    return ids;
  };
  const auto wide = [](std::vector<std::uint32_t> ids) {
    for (std::uint32_t& id : ids) {
      if (id == 0) {
        id = 0xFFFF;
      } else if (id % 2 == 1) {
        id = 70001 + id * 4099;
      }
    }
    return ids;
  };
  std::size_t checked = 0, positive = 0;
  for (std::size_t max_order = 1; max_order <= 24; ++max_order) {
    for (const bool smooth : {true, false}) {
      const dx::BleuOptions opts{max_order, smooth};
      for (int trial = 0; trial < 30; ++trial) {
        // A reference and a candidate that copies it with a few edits, so
        // long n-grams match and unsmoothed high orders can score.
        const std::vector<std::uint32_t> ref = random_ids();
        std::vector<std::uint32_t> cand = ref;
        for (std::uint32_t& id : cand) {
          if (rng.bernoulli(0.05)) {
            id = static_cast<std::uint32_t>(rng.index(5));
          }
        }
        if (rng.bernoulli(0.2)) cand.resize(rng.index(cand.size() + 1));
        const std::size_t profile_order = max_order + (trial % 3 == 0 ? 2 : 0);
        for (const bool widen : {false, true}) {
          const dx::NgramProfile c =
              dx::ngram_profile(widen ? wide(cand) : cand, profile_order);
          const dx::NgramProfile r =
              dx::ngram_profile(widen ? wide(ref) : ref, profile_order);
          const double expected = dx::sentence_bleu(c, r, opts).score;
          EXPECT_EQ(bits(dx::sentence_bleu_score(c, r, opts)), bits(expected))
              << "max_order " << max_order << " smooth " << smooth;
          positive += expected > 0.0;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 24u * 2u * 30u * 2u);
  EXPECT_GT(positive, checked / 2);
  const dx::NgramProfile low = dx::ngram_profile({1, 2, 3}, 2);
  EXPECT_THROW(dx::sentence_bleu_score(low, low, {3, true}),
               desmine::PreconditionError);
}
