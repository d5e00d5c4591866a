#include "core/language.h"

#include <set>

#include "util/error.h"

namespace desmine::core {

LanguageGenerator::LanguageGenerator(WindowConfig config) : config_(config) {
  DESMINE_EXPECTS(config.word_length > 0 && config.word_stride > 0,
                  "word window must be positive");
  DESMINE_EXPECTS(config.sentence_length > 0 && config.sentence_stride > 0,
                  "sentence window must be positive");
}

std::vector<std::string> LanguageGenerator::to_words(
    std::string_view chars) const {
  std::vector<std::string> words(word_count(chars.size()));
  for (std::size_t w = 0; w < words.size(); ++w) words[w] = word(chars, w);
  return words;
}

text::Corpus LanguageGenerator::to_sentences(
    const std::vector<std::string>& words) const {
  text::Corpus sentences;
  if (words.size() < config_.sentence_length) return sentences;
  for (std::size_t start = 0;
       start + config_.sentence_length <= words.size();
       start += config_.sentence_stride) {
    sentences.emplace_back(
        words.begin() + static_cast<long>(start),
        words.begin() + static_cast<long>(start + config_.sentence_length));
  }
  return sentences;
}

text::Corpus LanguageGenerator::generate(const std::string& chars) const {
  return to_sentences(to_words(chars));
}

std::size_t LanguageGenerator::sentence_count(std::size_t chars) const {
  const std::size_t words = word_count(chars);
  if (words < config_.sentence_length) return 0;
  return (words - config_.sentence_length) / config_.sentence_stride + 1;
}

std::size_t LanguageGenerator::vocabulary_size(const std::string& chars) const {
  const std::vector<std::string> words = to_words(chars);
  return std::set<std::string>(words.begin(), words.end()).size();
}

}  // namespace desmine::core
