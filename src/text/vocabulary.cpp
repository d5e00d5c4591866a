#include "text/vocabulary.h"

#include "util/error.h"

namespace desmine::text {

Vocabulary::Vocabulary() {
  add("<pad>");
  add("<unk>");
  add("<s>");
  add("</s>");
}

Vocabulary Vocabulary::build(const Corpus& corpus) {
  Vocabulary v;
  for (const Sentence& sentence : corpus) {
    for (const std::string& word : sentence) {
      if (!v.contains(word)) v.add(word);
    }
  }
  return v;
}

void Vocabulary::add(const std::string& token) {
  index_.emplace(token, static_cast<std::int32_t>(tokens_.size()));
  tokens_.push_back(token);
}

std::int32_t Vocabulary::id(const std::string& token) const {
  const auto it = index_.find(token);
  return it == index_.end() ? kUnk : it->second;
}

const std::string& Vocabulary::token(std::int32_t id) const {
  DESMINE_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < tokens_.size(),
                  "token id out of range");
  return tokens_[static_cast<std::size_t>(id)];
}

bool Vocabulary::contains(const std::string& token) const {
  return index_.count(token) > 0;
}

std::vector<std::int32_t> Vocabulary::encode(const Sentence& sentence) const {
  std::vector<std::int32_t> out;
  out.reserve(sentence.size());
  for (const std::string& word : sentence) out.push_back(id(word));
  return out;
}

std::vector<std::uint32_t> Vocabulary::encode_exact(
    const Sentence& sentence) const {
  const std::vector<std::string_view> words(sentence.begin(), sentence.end());
  return encode_exact(words);
}

std::vector<std::uint32_t> Vocabulary::encode_exact(
    std::span<const std::string_view> words) const {
  std::vector<std::uint32_t> out;
  out.reserve(words.size());
  std::vector<std::string_view> unknown;  // these words', in order
  for (const std::string_view word : words) {
    const auto it = index_.find(word);
    if (it != index_.end()) {
      out.push_back(static_cast<std::uint32_t>(it->second));
      continue;
    }
    std::size_t k = 0;
    while (k < unknown.size() && unknown[k] != word) ++k;
    if (k == unknown.size()) unknown.push_back(word);
    out.push_back(static_cast<std::uint32_t>(tokens_.size() + k));
  }
  return out;
}

Sentence Vocabulary::decode(const std::vector<std::int32_t>& ids) const {
  Sentence out;
  out.reserve(ids.size());
  for (std::int32_t id : ids) {
    if (structural(id)) continue;
    out.push_back(token(id));
  }
  return out;
}

}  // namespace desmine::text
