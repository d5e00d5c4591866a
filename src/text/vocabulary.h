// Token vocabulary with the special symbols the seq2seq model needs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace desmine::text {

/// A sentence is an ordered list of word tokens.
using Sentence = std::vector<std::string>;
using Corpus = std::vector<Sentence>;

/// Bidirectional token<->id map. Ids 0..3 are reserved:
///   <pad>=0 (padding), <unk>=1 (unseen state, §II-A1 of the paper),
///   <s>=2 (decoder start), </s>=3 (decoder stop).
class Vocabulary {
 public:
  static constexpr std::int32_t kPad = 0;
  static constexpr std::int32_t kUnk = 1;
  static constexpr std::int32_t kBos = 2;
  static constexpr std::int32_t kEos = 3;

  Vocabulary();

  /// Build from a corpus: every distinct word becomes an id (insertion order
  /// after the specials, so construction is deterministic).
  static Vocabulary build(const Corpus& corpus);

  /// Id for a token; kUnk when the token is unknown.
  std::int32_t id(const std::string& token) const;

  /// Token for an id; throws on out-of-range ids.
  const std::string& token(std::int32_t id) const;

  bool contains(const std::string& token) const;

  /// Total entries including the four specials.
  std::size_t size() const { return tokens_.size(); }

  /// Encode a sentence to ids (unknowns -> kUnk).
  std::vector<std::int32_t> encode(const Sentence& sentence) const;

  /// Encode a sentence to ids in which distinct tokens always differ: a
  /// known token (the literal specials included) gets its id, and the k-th
  /// distinct unknown token of this sentence gets size() + k. Ids below
  /// size() are exactly encode()'s; the rest are encode()'s kUnk.
  std::vector<std::uint32_t> encode_exact(const Sentence& sentence) const;
  /// The same numbering over words that view someone else's characters
  /// (core::encode_span cuts them straight from a character span).
  std::vector<std::uint32_t> encode_exact(
      std::span<const std::string_view> words) const;

  /// Decode ids to tokens, skipping the structural specials.
  Sentence decode(const std::vector<std::int32_t>& ids) const;

  /// pad/bos/eos: ids decode() drops from a model's output.
  static bool structural(std::int32_t id) {
    return id == kPad || id == kBos || id == kEos;
  }

  bool operator==(const Vocabulary& other) const {
    return tokens_ == other.tokens_;
  }

 private:
  void add(const std::string& token);

  /// Hashes a std::string and a std::string_view alike, so the index is
  /// searched by view without building a key string.
  struct TokenHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view token) const {
      return std::hash<std::string_view>{}(token);
    }
  };

  std::unordered_map<std::string, std::int32_t, TokenHash, std::equal_to<>>
      index_;
  std::vector<std::string> tokens_;
};

}  // namespace desmine::text
