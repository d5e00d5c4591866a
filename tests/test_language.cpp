// Tests for language sequence generation (§II-A2), including parameterized
// property tests over window configurations.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/language.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;

TEST(Language, WordsWithUnitStrideOverlap) {
  dc::WindowConfig cfg;
  cfg.word_length = 3;
  cfg.word_stride = 1;
  cfg.sentence_length = 2;
  cfg.sentence_stride = 2;
  const dc::LanguageGenerator gen(cfg);
  const auto words = gen.to_words("abcde");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "abc");
  EXPECT_EQ(words[1], "bcd");
  EXPECT_EQ(words[2], "cde");
}

TEST(Language, WordsWithLargerStride) {
  dc::WindowConfig cfg;
  cfg.word_length = 2;
  cfg.word_stride = 3;
  const dc::LanguageGenerator gen(cfg);
  const auto words = gen.to_words("abcdefgh");
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], "ab");
  EXPECT_EQ(words[1], "de");
  EXPECT_EQ(words[2], "gh");
}

TEST(Language, ShortInputYieldsNothing) {
  dc::WindowConfig cfg;
  cfg.word_length = 10;
  const dc::LanguageGenerator gen(cfg);
  EXPECT_TRUE(gen.to_words("abc").empty());
  EXPECT_TRUE(gen.generate("abc").empty());
  EXPECT_EQ(gen.sentence_count(3), 0u);
}

TEST(Language, SentencesNonOverlappingByDefault) {
  dc::WindowConfig cfg;
  cfg.word_length = 1;
  cfg.word_stride = 1;
  cfg.sentence_length = 3;
  cfg.sentence_stride = 3;
  const dc::LanguageGenerator gen(cfg);
  const auto sentences = gen.generate("abcdefgh");  // 8 words -> 2 sentences
  ASSERT_EQ(sentences.size(), 2u);
  EXPECT_EQ(sentences[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sentences[1], (std::vector<std::string>{"d", "e", "f"}));
}

TEST(Language, SlidingSentencesIncreaseDetectionGranularity) {
  dc::WindowConfig cfg;
  cfg.word_length = 1;
  cfg.sentence_length = 3;
  cfg.sentence_stride = 1;
  const dc::LanguageGenerator gen(cfg);
  // 6 words, window 3, stride 1 -> 4 sentences (the paper's finer mode).
  EXPECT_EQ(gen.generate("abcdef").size(), 4u);
}

TEST(Language, PaperDefaultsProduce72SentencesPerDay) {
  // §III-A1: word=10 chars, stride 1; sentence=20 words, stride 20.
  // 1440 minutes/day -> 1431 words -> 71 full sentences from one day; the
  // paper counts 72 per day over a continuous month (word windows straddle
  // day boundaries). Verify both views.
  const dc::LanguageGenerator gen(dc::WindowConfig{});
  EXPECT_EQ(gen.sentence_count(1440), 71u);
  // 30 continuous days: (43200 - 10 + 1) = 43191 words -> 2159 sentences,
  // i.e. just under 72 per day.
  EXPECT_EQ(gen.sentence_count(30 * 1440), 2159u);
  EXPECT_NEAR(static_cast<double>(gen.sentence_count(30 * 1440)) / 30.0, 72.0,
              1.0);
}

TEST(Language, VocabularySizeCountsDistinctWords) {
  dc::WindowConfig cfg;
  cfg.word_length = 2;
  cfg.word_stride = 1;
  const dc::LanguageGenerator gen(cfg);
  // Words: ab, ba, ab, ba -> 2 distinct.
  EXPECT_EQ(gen.vocabulary_size("ababa"), 2u);
  // Constant stream has a single word.
  EXPECT_EQ(gen.vocabulary_size("aaaaa"), 1u);
}

TEST(Language, InvalidConfigThrows) {
  dc::WindowConfig cfg;
  cfg.word_length = 0;
  EXPECT_THROW(dc::LanguageGenerator{cfg}, desmine::PreconditionError);
  cfg = {};
  cfg.sentence_stride = 0;
  EXPECT_THROW(dc::LanguageGenerator{cfg}, desmine::PreconditionError);
}

// ------------------------- parameterized property tests ---------------------

struct WindowCase {
  std::size_t word_len, word_stride, sent_len, sent_stride, chars;
};

class WindowSweep : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowSweep, SentenceCountFormulaMatchesGeneration) {
  const WindowCase& wc = GetParam();
  dc::WindowConfig cfg;
  cfg.word_length = wc.word_len;
  cfg.word_stride = wc.word_stride;
  cfg.sentence_length = wc.sent_len;
  cfg.sentence_stride = wc.sent_stride;
  const dc::LanguageGenerator gen(cfg);

  desmine::util::Rng rng(wc.chars);
  std::string chars;
  for (std::size_t i = 0; i < wc.chars; ++i) {
    chars.push_back(static_cast<char>('a' + rng.index(3)));
  }
  const auto sentences = gen.generate(chars);
  EXPECT_EQ(sentences.size(), gen.sentence_count(wc.chars));
  for (const auto& s : sentences) {
    EXPECT_EQ(s.size(), wc.sent_len);
    for (const auto& w : s) EXPECT_EQ(w.size(), wc.word_len);
  }
}

TEST_P(WindowSweep, SentencesAreTimeAlignedSlicesOfTheStream) {
  // Sentence k, word 0 must start at char k*sent_stride*word_stride — the
  // alignment property that makes per-sensor corpora parallel.
  const WindowCase& wc = GetParam();
  dc::WindowConfig cfg;
  cfg.word_length = wc.word_len;
  cfg.word_stride = wc.word_stride;
  cfg.sentence_length = wc.sent_len;
  cfg.sentence_stride = wc.sent_stride;
  const dc::LanguageGenerator gen(cfg);

  std::string chars;
  for (std::size_t i = 0; i < wc.chars; ++i) {
    chars.push_back(static_cast<char>('a' + (i % 26)));
  }
  const auto sentences = gen.generate(chars);
  for (std::size_t k = 0; k < sentences.size(); ++k) {
    const std::size_t start = k * wc.sent_stride * wc.word_stride;
    EXPECT_EQ(sentences[k][0], chars.substr(start, wc.word_len));
  }
}

TEST_P(WindowSweep, SentenceIsTheWordsOfItsCharacterSpan) {
  // Sentence k is a function of its span alone: the words of the
  // sentence_span() characters from sentence_start(k), which is what lets
  // batch detection encode each distinct span once.
  const WindowCase& wc = GetParam();
  dc::WindowConfig cfg;
  cfg.word_length = wc.word_len;
  cfg.word_stride = wc.word_stride;
  cfg.sentence_length = wc.sent_len;
  cfg.sentence_stride = wc.sent_stride;
  const dc::LanguageGenerator gen(cfg);

  desmine::util::Rng rng(wc.chars + 1);
  std::string chars;
  for (std::size_t i = 0; i < wc.chars; ++i) {
    chars.push_back(static_cast<char>('a' + rng.index(4)));
  }
  const auto sentences = gen.generate(chars);
  ASSERT_FALSE(sentences.empty());
  for (std::size_t k = 0; k < sentences.size(); ++k) {
    const std::size_t start = gen.sentence_start(k);
    EXPECT_EQ(start, k * wc.sent_stride * wc.word_stride);
    ASSERT_LE(start + gen.sentence_span(), chars.size());
    EXPECT_EQ(gen.to_words(chars.substr(start, gen.sentence_span())),
              sentences[k])
        << k;
  }
  // The stream holds no character past the last span for another sentence.
  EXPECT_GT(gen.sentence_start(sentences.size()) + gen.sentence_span(),
            chars.size());
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSweep,
    ::testing::Values(WindowCase{10, 1, 20, 20, 1440},
                      WindowCase{5, 1, 7, 1, 200},
                      WindowCase{3, 2, 4, 4, 300},
                      WindowCase{1, 1, 5, 5, 50},
                      WindowCase{8, 8, 3, 3, 500},
                      WindowCase{2, 1, 2, 1, 10}));
