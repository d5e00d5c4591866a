// Tests for language sequence generation (§II-A2), including parameterized
// property tests over window configurations; the streaming WindowAssembler
// against batch encryption and generate(); and the span encoder
// (core::encode_span) against encode_sentence of the string words.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/edge_scorer.h"
#include "core/encryption.h"
#include "core/language.h"
#include "core/window_assembler.h"
#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "robust/sensor_health.h"
#include "text/vocabulary.h"
#include "util/error.h"
#include "util/rng.h"

namespace dc = desmine::core;
namespace dr = desmine::robust;
namespace dx = desmine::text;

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

// ------------------- streaming assembly vs batch generation -------------------

namespace {

/// Kept sensors "zeta" (long runs), "alpha" (flips every tick), "mid"
/// (unknown states now and then, and an unknown flood over [3000, 3200))
/// and "beta" (random states); "const" is dropped at fit. Training streams
/// hold no unknown state.
dc::MultivariateSeries assembler_series(std::size_t ticks, std::uint64_t seed,
                                        bool unknowns) {
  desmine::util::Rng rng(seed);
  dc::EventSequence zeta, alpha, mid, beta, constant;
  for (std::size_t t = 0; t < ticks; ++t) {
    zeta.push_back("run" + std::to_string((t / 50) % 5));
    alpha.push_back(t % 2 == 0 ? "A" : "B");
    const bool flood = unknowns && t >= 3000 && t < 3200;
    mid.push_back(flood || (unknowns && rng.bernoulli(0.1))
                      ? "x9"
                      : "x" + std::to_string(1 + rng.index(3)));
    beta.push_back("b" + std::to_string(rng.index(4)));
    constant.push_back("idle");
  }
  return {{"zeta", zeta},
          {"alpha", alpha},
          {"mid", mid},
          {"beta", beta},
          {"const", constant}};
}

struct AssemblerCase {
  const char* name;
  dc::WindowConfig window;
};

/// What the assembler must emit, built the batch way: each kept sensor's
/// whole character stream (the filler letter where a sample is missing),
/// its per-tick taint from a health-tracker replay, and generate().
struct BatchReference {
  std::vector<std::string> chars;
  std::vector<std::vector<std::uint8_t>> taint;
};

}  // namespace

TEST(WindowAssembler, SpansAndLettersMatchBatchEncodingAndGenerate) {
  const dc::SensorEncrypter enc =
      dc::SensorEncrypter::fit(assembler_series(400, 1, false));
  ASSERT_EQ(enc.kept_sensors(),
            (std::vector<std::string>{"zeta", "alpha", "mid", "beta"}));
  const std::size_t ticks = 6000;  // past the 4096-character buffer trim
  const dc::MultivariateSeries stream = assembler_series(ticks, 2, true);

  const std::vector<AssemblerCase> cases = {
      {"non-overlapping", {3, 1, 4, 4}},
      {"word stride 2", {4, 2, 5, 5}},
      {"overlapping sentences", {3, 1, 6, 2}},
      {"gapped sentences", {2, 1, 3, 7}}};
  const std::size_t beta = 3;
  const std::size_t drop_from = 1500, drops = 5;  // injected on "alpha"
  auto& injector = dr::FaultInjector::instance();
  for (const AssemblerCase& c : cases) {
    for (const bool degraded : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + (degraded ? " degraded" : " strict"));
      dc::DegradedConfig dcfg;
      dcfg.enabled = degraded;
      dc::WindowAssembler assembler(enc, c.window, dcfg);
      const dc::LanguageGenerator language(c.window);

      // Degraded runs lose "beta" on three ticks in every 997 and "alpha"
      // on the ticks the detect.push fault drops.
      const auto missing = [&](std::size_t t, std::size_t k) {
        if (!degraded) return false;
        if (k == beta) return t % 997 < 3;
        return k == 1 && t >= drop_from && t < drop_from + drops;
      };
      BatchReference ref;
      ref.chars.resize(enc.kept_sensors().size());
      ref.taint.resize(enc.kept_sensors().size());
      dr::SensorHealthTracker tracker(enc.kept_sensors(), dcfg.health);
      for (std::size_t t = 0; t < ticks; ++t) {
        for (std::size_t k = 0; k < enc.kept_sensors().size(); ++k) {
          const std::string& name = enc.kept_sensors()[k];
          char ch = dc::SensorEncrypter::kUnknownChar;
          if (!missing(t, k)) {
            const auto& table = enc.encoding(name).to_char;
            const auto it = table.find(stream[k].events[t]);
            if (it != table.end()) ch = it->second;
          }
          ref.chars[k] += ch;
          const dr::SensorState state = tracker.observe(
              k, {!missing(t, k), ch == dc::SensorEncrypter::kUnknownChar,
                  ch});
          ref.taint[k].push_back(
              missing(t, k) || state != dr::SensorState::kHealthy ? 1 : 0);
        }
      }
      std::vector<dx::Corpus> sentences;
      for (const std::string& chars : ref.chars) {
        sentences.push_back(language.generate(chars));
      }

      injector.clear();
      std::size_t windows = 0;
      for (std::size_t t = 0; t < ticks; ++t) {
        if (degraded && t == drop_from) {
          injector.arm("detect.push", 1, dr::FaultAction::kDrop, drops);
        }
        std::map<std::string, std::string> states;
        for (std::size_t k = 0; k < stream.size(); ++k) {
          if (k == beta && missing(t, k)) continue;  // alpha: the fault
          states[stream[k].name] = stream[k].events[t];
        }
        states["gamma"] = "not a kept sensor";
        const auto w = assembler.push(states);
        if (!w) continue;
        ASSERT_LT(windows, sentences.front().size());
        EXPECT_EQ(w->window_index, windows);
        const std::size_t start = language.sentence_start(windows);
        const std::size_t span = language.sentence_span();
        EXPECT_EQ(w->end_tick, start + span);
        ASSERT_EQ(w->spans.span, span);
        ASSERT_EQ(w->spans.sensors(), enc.kept_sensors().size());
        std::vector<std::size_t> unhealthy;
        for (std::size_t k = 0; k < w->spans.sensors(); ++k) {
          ASSERT_EQ(w->spans.sensor(k), ref.chars[k].substr(start, span))
              << "sensor " << k << " window " << windows;
          EXPECT_EQ(language.to_words(w->spans.sensor(k)),
                    sentences[k][windows])
              << "sensor " << k << " window " << windows;
          for (std::size_t i = start; i < start + span; ++i) {
            if (ref.taint[k][i] != 0) {
              unhealthy.push_back(k);
              break;
            }
          }
        }
        if (!degraded) unhealthy.clear();
        EXPECT_EQ(w->unhealthy, unhealthy) << "window " << windows;
        ++windows;
      }
      injector.clear();
      EXPECT_EQ(windows, sentences.front().size());
      EXPECT_EQ(assembler.windows_emitted(), windows);
      EXPECT_EQ(assembler.ticks(), ticks);
    }
  }
}

TEST(WindowAssembler, StrictModeThrowsOnAMissingOrDroppedSensor) {
  const dc::SensorEncrypter enc =
      dc::SensorEncrypter::fit(assembler_series(400, 1, false));
  const dc::MultivariateSeries stream = assembler_series(10, 2, false);
  std::map<std::string, std::string> states;
  for (const dc::SensorSeries& s : stream) states[s.name] = s.events[0];
  dc::WindowAssembler assembler(enc, {3, 1, 4, 4});
  assembler.push(states);
  states.erase("beta");
  EXPECT_THROW(assembler.push(states), dr::MissingSensor);
  for (const dc::SensorSeries& s : stream) states[s.name] = s.events[1];
  auto& injector = dr::FaultInjector::instance();
  injector.clear();
  injector.arm("detect.push", 0, dr::FaultAction::kDrop, 1);
  EXPECT_THROW(assembler.push(states), dr::MissingSensor);
  injector.clear();
  EXPECT_FALSE(assembler.push(states).has_value());
}

// ------------------ span encoder vs the string word path ---------------------

namespace {

void expect_same_encoding(const dx::Vocabulary& vocab,
                          const dc::LanguageGenerator& language,
                          std::string_view span, std::size_t max_order) {
  const dc::EncodedSentence expected = dc::encode_sentence(
      vocab, language.to_words(span), max_order);
  const dc::EncodedSentence actual =
      dc::encode_span(vocab, language, span, max_order);
  EXPECT_EQ(actual.input, expected.input) << span;
  EXPECT_EQ(actual.profile.ids, expected.profile.ids) << span;
  EXPECT_EQ(actual.profile.heads, expected.profile.heads) << span;
  EXPECT_EQ(actual.profile.grams, expected.profile.grams) << span;
  EXPECT_EQ(actual.profile.max_order, expected.profile.max_order) << span;
  EXPECT_EQ(actual.profile.small, expected.profile.small) << span;
  EXPECT_EQ(actual.input_hash, expected.input_hash) << span;
  EXPECT_EQ(actual.profile_hash, expected.profile_hash) << span;
}

}  // namespace

TEST(SpanEncoder, MatchesEncodeSentenceOfTheStringWords) {
  // Every three-letter word over 'a'..'h' (ids 4..515, across 0xFF and
  // 0x1FF); 'z' makes a word unknown.
  dx::Corpus corpus(1);
  for (char a = 'a'; a <= 'h'; ++a) {
    for (char b = 'a'; b <= 'h'; ++b) {
      for (char c = 'a'; c <= 'h'; ++c) corpus[0].push_back({a, b, c});
    }
  }
  const dx::Vocabulary vocab = dx::Vocabulary::build(corpus);
  ASSERT_EQ(vocab.size(), 516u);
  const std::string& at_ff = vocab.token(0xFF);
  const std::string& past_ff = vocab.token(0x100);
  const std::string& past_1ff = vocab.token(0x200);
  const dc::LanguageGenerator tiled({3, 3, 6, 6});

  const std::vector<std::string> spans = {
      // ids at and past 0xFF, repeated.
      at_ff + past_ff + past_1ff + at_ff + past_ff + "hhh",
      // repeated unknown words, interleaved: numbered in first-seen order.
      "zzz" + at_ff + "zzy" + "zzz" + "zzy" + "zzx",
      "zzzzzzzzzzzzzzzzzz",
  };
  for (const std::string& span : spans) {
    for (const std::size_t order : {1u, 4u}) {
      expect_same_encoding(vocab, tiled, span, order);
    }
  }
  // Unknown words numbered past the vocabulary in first-seen order, each
  // distinct word once; the model input sees <unk> for all of them.
  const dc::EncodedSentence unknowns =
      dc::encode_span(vocab, tiled, spans[1], 4);
  EXPECT_EQ(unknowns.profile.ids,
            (std::vector<std::uint32_t>{516, 0xFF, 517, 516, 517, 518}));
  EXPECT_EQ(unknowns.input,
            (std::vector<std::int32_t>{1, 0xFF, 1, 1, 1, 1}));

  // Words equal to the literal specials are known tokens (ids 0..3).
  const dx::Vocabulary specials = dx::Vocabulary::build({{"<s>", "x<s"}});
  const dc::LanguageGenerator three({3, 1, 4, 4});
  expect_same_encoding(specials, three, "<s><s>", 4);
  expect_same_encoding(specials, three, "x<s>x<s", 4);
  const dc::LanguageGenerator five({5, 5, 4, 4});
  expect_same_encoding(vocab, five, "<unk><pad><unk></s>x", 4);
  const dc::LanguageGenerator four({4, 4, 2, 2});
  expect_same_encoding(vocab, four, "</s></s>", 4);

  // Random spans at word strides 1..3, over letters some of whose words
  // are unknown.
  desmine::util::Rng rng(77);
  for (std::size_t stride = 1; stride <= 3; ++stride) {
    const dc::LanguageGenerator language({3, stride, 8, 8});
    for (std::size_t n = 0; n < 200; ++n) {
      std::string span;
      for (std::size_t i = 0; i < language.sentence_span(); ++i) {
        span.push_back(static_cast<char>('a' + rng.index(n % 2 == 0 ? 9 : 3)));
      }
      expect_same_encoding(vocab, language, span, 4);
    }
  }
}
