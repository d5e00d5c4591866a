#include "core/framework.h"

#include "core/online.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/error.h"

namespace desmine::core {

Framework::Framework(FrameworkConfig config)
    : config_(std::move(config)), language_(config_.window) {}

void Framework::fit(const MultivariateSeries& train,
                    const MultivariateSeries& dev) {
  obs::Span fit_span("fit");
  {
    const obs::ScopedTimer timer("encrypt");
    encrypter_ = SensorEncrypter::fit(train);
  }
  DESMINE_EXPECTS(encrypter_->kept_sensors().size() >= 2,
                  "fewer than two informative sensors after filtering");
  DESMINE_LOG_INFO("encrypter fitted",
                   {obs::kv("kept", encrypter_->kept_sensors().size()),
                    obs::kv("dropped", encrypter_->dropped_sensors().size())});

  std::vector<SensorLanguage> languages;
  {
    const obs::ScopedTimer timer("language");
    const std::vector<std::string> train_chars = encrypter_->encode_all(train);
    const std::vector<std::string> dev_chars = encrypter_->encode_all(dev);

    languages.reserve(train_chars.size());
    for (std::size_t k = 0; k < train_chars.size(); ++k) {
      SensorLanguage lang;
      lang.name = encrypter_->kept_sensors()[k];
      lang.train = language_.generate(train_chars[k]);
      lang.dev = language_.generate(dev_chars[k]);
      languages.push_back(std::move(lang));
    }
    DESMINE_LOG_DEBUG(
        "languages generated",
        {obs::kv("sensors", languages.size()),
         obs::kv("train_sentences", languages.front().train.size()),
         obs::kv("dev_sentences", languages.front().dev.size())});
  }

  const RelationshipMiner miner(config_.miner);
  graph_ = miner.mine(languages);  // times itself as phase "mine"
}

std::vector<text::Corpus> Framework::to_corpora(
    const MultivariateSeries& series) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  const obs::ScopedTimer timer("encode");
  const std::vector<std::string> chars = encrypter_->encode_all(series);
  std::vector<text::Corpus> corpora;
  corpora.reserve(chars.size());
  for (const std::string& c : chars) corpora.push_back(language_.generate(c));
  return corpora;
}

DetectionResult Framework::detect(const MultivariateSeries& test) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  const AnomalyDetector detector(*graph_, config_.detector);
  return detector.detect(to_corpora(test));
}

DetectionResult Framework::detect_degraded(
    const MultivariateSeries& test, const robust::HealthConfig& health,
    const std::vector<std::size_t>& missing_ticks) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  const HealthMask mask = window_health_mask(*encrypter_, config_.window,
                                             test, health, missing_ticks);
  const AnomalyDetector detector(*graph_, config_.detector);
  DetectOptions options;
  options.unhealthy = &mask;
  return detector.detect(to_corpora(test), options);
}

void Framework::restore(SensorEncrypter encrypter, MvrGraph graph) {
  DESMINE_EXPECTS(graph.sensor_count() == encrypter.kept_sensors().size(),
                  "graph/encrypter sensor counts disagree");
  encrypter_ = std::move(encrypter);
  graph_ = std::move(graph);
}

const SensorEncrypter& Framework::encrypter() const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  return *encrypter_;
}

const MvrGraph& Framework::graph() const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  return *graph_;
}

}  // namespace desmine::core
