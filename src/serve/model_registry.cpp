#include "serve/model_registry.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "robust/errors.h"
#include "util/error.h"

namespace desmine::serve {

std::shared_ptr<nmt::TranslationModel> EdgeModel::acquire() const {
  std::shared_ptr<nmt::TranslationModel> m = residency->acquire(map_index);
  if (src_vocab == nullptr || m->src_vocab() != *src_vocab) {
    throw robust::VocabularyMismatch(src, src, dst);
  }
  if (dst_vocab == nullptr || m->tgt_vocab() != *dst_vocab) {
    throw robust::VocabularyMismatch(dst, src, dst);
  }
  return m;
}

std::shared_ptr<const ModelGeneration> make_generation(
    std::shared_ptr<io::ArtifactMap> map, const core::DetectorConfig& detector,
    std::uint64_t id, const ResidencyConfig& residency) {
  core::validate(detector);
  auto gen = std::make_shared<ModelGeneration>();
  gen->id = id;
  gen->detector = detector;
  gen->residency =
      std::make_shared<ResidencyManager>(std::move(map), residency);
  const io::ArtifactMap& m = *gen->residency->map();
  gen->window = m.window();
  const std::size_t sensors = m.sensor_names().size();
  gen->vocabularies.assign(sensors, nullptr);
  const auto& entries = m.edges();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const io::EdgeEntry& e = entries[i];
    if (core::in_valid_band(detector, e.bleu)) {
      DESMINE_EXPECTS(e.has_model, "valid edge lacks a trained model");
      DESMINE_EXPECTS(e.src < sensors && e.dst < sensors,
                      "edge endpoint out of range");
      EdgeModel edge;
      edge.src = e.src;
      edge.dst = e.dst;
      edge.train_bleu = e.bleu;
      edge.residency = gen->residency;
      edge.map_index = i;
      gen->edges.push_back(std::move(edge));

      auto& src_vocab = gen->vocabularies[e.src];
      auto& dst_vocab = gen->vocabularies[e.dst];
      if (src_vocab != nullptr && dst_vocab != nullptr) continue;
      try {
        auto [src, dst] = m.vocabularies(i);
        if (src_vocab == nullptr) {
          src_vocab = std::make_shared<const text::Vocabulary>(std::move(src));
        }
        if (dst_vocab == nullptr) {
          dst_vocab = std::make_shared<const text::Vocabulary>(std::move(dst));
        }
      } catch (const io::ArtifactError&) {
        // A corrupt meta blob fails its own edge at first acquire; the
        // sensors' vocabularies come from their other edges.
      }
    }
  }
  for (EdgeModel& edge : gen->edges) {
    edge.src_vocab = gen->vocabularies[edge.src];
    edge.dst_vocab = gen->vocabularies[edge.dst];
  }
  // Ascending and unique by construction: the order and uniqueness submit
  // would check per window hold here once.
  gen->edge_plan.resize(gen->edges.size());
  std::iota(gen->edge_plan.begin(), gen->edge_plan.end(), std::size_t{0});
  return gen;
}

std::vector<core::EncodedSentence> encode_window(
    const ModelGeneration& gen, const core::WindowSpans& spans) {
  const core::LanguageGenerator language(gen.window);
  DESMINE_EXPECTS(spans.span == language.sentence_span(),
                  "window spans do not match the generation's windows");
  std::vector<core::EncodedSentence> out(spans.sensors());
  const std::size_t max_order = gen.detector.bleu.max_order;
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k < gen.vocabularies.size() && gen.vocabularies[k] != nullptr) {
      out[k] = core::encode_span(*gen.vocabularies[k], language,
                                 spans.sensor(k), max_order);
    }
  }
  return out;
}

ModelRegistry::ModelRegistry(std::shared_ptr<const ModelGeneration> initial)
    : current_(std::move(initial)) {
  DESMINE_EXPECTS(current_ != nullptr, "registry needs an initial generation");
}

std::shared_ptr<const ModelGeneration> ModelRegistry::current() const {
  std::lock_guard lock(mu_);
  return current_;
}

std::shared_ptr<const ModelGeneration> ModelRegistry::publish(
    std::shared_ptr<const ModelGeneration> next) {
  DESMINE_EXPECTS(next != nullptr, "cannot publish a null generation");
  std::lock_guard lock(mu_);
  DESMINE_EXPECTS(next->id > current_->id,
                  "generation ids must increase across publishes");
  std::shared_ptr<const ModelGeneration> retired = std::move(current_);
  retired_.push_back(retired);
  current_ = std::move(next);
  return retired;
}

std::uint64_t ModelRegistry::generation() const {
  std::lock_guard lock(mu_);
  return current_->id;
}

std::size_t ModelRegistry::retired_live() const {
  std::lock_guard lock(mu_);
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const std::weak_ptr<const ModelGeneration>&
                                       w) { return w.expired(); }),
                 retired_.end());
  return retired_.size();
}

}  // namespace desmine::serve
