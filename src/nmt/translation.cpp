#include "nmt/translation.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/trace.h"
#include "util/error.h"

namespace desmine::nmt {

TranslationModel::TranslationModel(text::Vocabulary src_vocab,
                                   text::Vocabulary tgt_vocab,
                                   std::unique_ptr<Seq2SeqModel> model)
    : src_vocab_(std::move(src_vocab)),
      tgt_vocab_(std::move(tgt_vocab)),
      model_(std::move(model)) {
  DESMINE_EXPECTS(model_ != nullptr, "translation model must be non-null");
}

text::Sentence TranslationModel::translate(const text::Sentence& source) {
  return translate_batch({&source}).front();
}

text::BleuBreakdown TranslationModel::score(const text::Corpus& source,
                                            const text::Corpus& reference) {
  DESMINE_EXPECTS(source.size() == reference.size(),
                  "source/reference corpora must align");
  if (source.empty()) return text::corpus_bleu({}, reference, kBleu);
  std::vector<const text::Sentence*> sources;
  sources.reserve(source.size());
  for (const text::Sentence& s : source) sources.push_back(&s);
  return text::corpus_bleu(translate_batch(sources), reference, kBleu);
}

std::vector<text::Sentence> TranslationModel::translate_batch(
    const std::vector<const text::Sentence*>& sources) {
  DESMINE_EXPECTS(!sources.empty(), "cannot translate an empty batch");
  // Dedup on encoded ids: greedy decoding is deterministic, so one decode
  // serves every occurrence and the fan-out stays bit-identical.
  std::vector<std::vector<std::int32_t>> encoded;
  std::vector<std::size_t> slot(sources.size());
  std::map<std::vector<std::int32_t>, std::size_t> seen;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    DESMINE_EXPECTS(sources[i] != nullptr, "null source sentence");
    std::vector<std::int32_t> ids = src_vocab_.encode(*sources[i]);
    const auto [it, inserted] = seen.emplace(std::move(ids), encoded.size());
    if (inserted) encoded.push_back(it->first);
    slot[i] = it->second;
  }
  std::vector<const std::vector<std::int32_t>*> rows;
  rows.reserve(encoded.size());
  for (const std::vector<std::int32_t>& ids : encoded) rows.push_back(&ids);
  const std::vector<std::vector<std::int32_t>> decoded = translate_ids(rows);

  std::vector<text::Sentence> out;
  out.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out.push_back(tgt_vocab_.decode(decoded[slot[i]]));
  }
  return out;
}

std::vector<std::vector<std::int32_t>> TranslationModel::translate_ids(
    const std::vector<const std::vector<std::int32_t>*>& sources) {
  std::vector<std::vector<std::int32_t>> decoded;
  decoded.reserve(sources.size());
  std::vector<const std::vector<std::int32_t>*> chunk;
  for (std::size_t first = 0; first < sources.size();
       first += kMaxDecodeRows) {
    const std::size_t last = std::min(first + kMaxDecodeRows, sources.size());
    chunk.assign(sources.begin() + static_cast<std::ptrdiff_t>(first),
                 sources.begin() + static_cast<std::ptrdiff_t>(last));
    for (std::vector<std::int32_t>& ids : model_->translate_batch(chunk)) {
      decoded.push_back(std::move(ids));
    }
  }
  return decoded;
}

std::vector<EncodedPair> encode_pairs(const text::Vocabulary& src_vocab,
                                      const text::Vocabulary& tgt_vocab,
                                      const text::Corpus& source,
                                      const text::Corpus& target) {
  DESMINE_EXPECTS(source.size() == target.size(),
                  "parallel corpora must align");
  std::vector<EncodedPair> pairs;
  pairs.reserve(source.size());
  for (std::size_t s = 0; s < source.size(); ++s) {
    pairs.push_back({src_vocab.encode(source[s]), tgt_vocab.encode(target[s])});
  }
  return pairs;
}

TranslationModel train_translation_model(const text::Corpus& train_source,
                                         const text::Corpus& train_target,
                                         const TranslationConfig& config,
                                         std::uint64_t seed,
                                         TrainingHistory* history,
                                         tensor::Workspace* workspace) {
  DESMINE_EXPECTS(!train_source.empty(), "training corpus must be non-empty");
  text::Vocabulary src_vocab = text::Vocabulary::build(train_source);
  text::Vocabulary tgt_vocab = text::Vocabulary::build(train_target);

  util::Rng rng(seed);
  auto model = std::make_unique<Seq2SeqModel>(
      src_vocab.size(), tgt_vocab.size(), config.model, rng.fork(1),
      workspace);
  const std::vector<EncodedPair> pairs =
      encode_pairs(src_vocab, tgt_vocab, train_source, train_target);
  {
    obs::Span span("train");
    TrainingHistory h = train(*model, pairs, config.trainer, rng.fork(2));
    span.annotate(obs::kv("steps", h.steps_run));
    span.annotate(obs::kv("final_loss", h.final_loss));
    if (history) *history = std::move(h);
  }

  return TranslationModel(std::move(src_vocab), std::move(tgt_vocab),
                          std::move(model));
}

}  // namespace desmine::nmt
