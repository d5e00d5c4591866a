// Language sequence generation (§II-A2): characters -> words -> sentences.
//
// Words are fixed-length character windows (length i, sliding window j);
// sentences are fixed-length word windows (length m, sliding window n).
// Because every sensor uses the same window configuration over equally long
// character streams, sentence k of any two sensors covers the same time
// span — that alignment is what makes the corpora "parallel" for the NMT
// model. The sentence stride n sets the detection granularity.
#pragma once

#include <string>
#include <string_view>

#include "text/vocabulary.h"

namespace desmine::core {

struct WindowConfig {
  std::size_t word_length = 10;     ///< i — characters per word (paper: 10)
  std::size_t word_stride = 1;      ///< j — character slide (paper: 1)
  std::size_t sentence_length = 20; ///< m — words per sentence (paper: 20)
  std::size_t sentence_stride = 20; ///< n — word slide (paper: 20)
};

class LanguageGenerator {
 public:
  explicit LanguageGenerator(WindowConfig config);

  const WindowConfig& config() const { return config_; }

  /// Slide a word window over the character stream. Characters that do not
  /// fill a complete window are dropped (sequences are long relative to i).
  /// Word w is word(chars, w), for w < word_count(chars.size()).
  std::vector<std::string> to_words(std::string_view chars) const;

  /// Number of complete word windows in a stream of `chars` characters.
  std::size_t word_count(std::size_t chars) const {
    return chars < config_.word_length
               ? 0
               : (chars - config_.word_length) / config_.word_stride + 1;
  }
  /// Word w of a character stream: its i characters from w·j, as a view.
  std::string_view word(std::string_view chars, std::size_t w) const {
    return chars.substr(w * config_.word_stride, config_.word_length);
  }

  /// Slide a sentence window over a word stream; incomplete tails dropped.
  text::Corpus to_sentences(const std::vector<std::string>& words) const;

  /// chars -> sentences in one call.
  text::Corpus generate(const std::string& chars) const;

  /// Number of sentences generate() yields for a character stream of length
  /// `chars` (0 when the stream is too short).
  std::size_t sentence_count(std::size_t chars) const;

  /// Sentence t of a stream depends only on the sentence_span() characters
  /// from sentence_start(t): generate(chars)[t] is
  /// to_words(chars.substr(sentence_start(t), sentence_span())).
  /// sentence_start(t) = t·n·j.
  std::size_t sentence_start(std::size_t t) const {
    return t * config_.sentence_stride * config_.word_stride;
  }
  /// (m − 1)·j + i characters.
  std::size_t sentence_span() const {
    return (config_.sentence_length - 1) * config_.word_stride +
           config_.word_length;
  }

  /// Number of distinct words in a character stream (the sensor's
  /// vocabulary size, Fig. 3b).
  std::size_t vocabulary_size(const std::string& chars) const;

 private:
  WindowConfig config_;
};

}  // namespace desmine::core
