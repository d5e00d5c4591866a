#include "core/framework.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "core/online.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace desmine::core {

struct Framework::DetectorSlot {
  std::mutex build;  ///< guards `detector`
  std::shared_ptr<const AnomalyDetector> detector;
  /// Held while a detect call scores: an edge model decodes in place, so
  /// two calls must not run the same model at once.
  std::mutex scoring;
};

Framework::Framework(FrameworkConfig config)
    : config_(std::move(config)),
      language_(config_.window),
      slot_(std::make_shared<DetectorSlot>()) {}

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
  slot_ = std::make_shared<DetectorSlot>();
}

namespace {

/// The events of each kept sensor, in kept order.
std::vector<const EventSequence*> kept_events(
    const std::vector<std::string>& kept, const MultivariateSeries& series) {
  std::vector<const EventSequence*> events;
  events.reserve(kept.size());
  for (const std::string& name : kept) {
    const auto it =
        std::find_if(series.begin(), series.end(),
                     [&](const SensorSeries& s) { return s.name == name; });
    DESMINE_EXPECTS(it != series.end(), "series missing kept sensor " + name);
    events.push_back(&it->events);
  }
  return events;
}

/// build(k) for every sensor k, on the pool when there is one.
void for_each_sensor(util::ThreadPool* pool, std::size_t sensors,
                     const std::function<void(std::size_t)>& build) {
  if (pool != nullptr) {
    pool->parallel_for(sensors, build);
  } else {
    for (std::size_t k = 0; k < sensors; ++k) build(k);
  }
}

}  // namespace

std::vector<text::Corpus> Framework::to_corpora(
    const MultivariateSeries& series) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  const obs::ScopedTimer timer("encode");
  const std::vector<std::string>& kept = encrypter_->kept_sensors();
  const std::vector<const EventSequence*> events = kept_events(kept, series);
  std::vector<text::Corpus> corpora(kept.size());
  const std::shared_ptr<const AnomalyDetector> d = detector(false);
  for_each_sensor(d != nullptr ? d->pool() : nullptr, kept.size(),
                  [&](std::size_t k) {
                    corpora[k] = language_.generate(
                        encrypter_->encode(kept[k], *events[k]));
                  });
  return corpora;
}

std::vector<EncodedCorpus> Framework::encode(
    const MultivariateSeries& series, const AnomalyDetector& d) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  const std::vector<std::string>& kept = encrypter_->kept_sensors();
  DESMINE_EXPECTS(d.sensor_count() == kept.size(),
                  "detector's graph has " + std::to_string(d.sensor_count()) +
                      " sensors, the framework keeps " +
                      std::to_string(kept.size()));
  const obs::ScopedTimer timer("encode");
  const std::vector<const EventSequence*> events = kept_events(kept, series);
  const std::size_t max_order = d.config().bleu.max_order;
  const std::size_t span = language_.sentence_span();
  std::vector<EncodedCorpus> corpora(kept.size());
  for_each_sensor(d.pool(), kept.size(), [&](std::size_t k) {
    const std::string chars = encrypter_->encode(kept[k], *events[k]);
    EncodedCorpus& out = corpora[k];
    out.windows.assign(language_.sentence_count(chars.size()), 0);
    const text::Vocabulary* vocab = d.vocabulary(k);
    if (vocab == nullptr) return;
    // Sentence t is a function of its characters alone, and sensors repeat
    // theirs: words are cut and encoded once per distinct span.
    std::unordered_map<std::string_view, std::uint32_t> first;
    for (std::size_t t = 0; t < out.windows.size(); ++t) {
      const std::string_view chars_t =
          std::string_view(chars).substr(language_.sentence_start(t), span);
      const auto [it, inserted] = first.emplace(
          chars_t, static_cast<std::uint32_t>(out.sentences.size()));
      if (inserted) {
        out.sentences.push_back(
            encode_span(*vocab, language_, chars_t, max_order));
      }
      out.windows[t] = it->second;
    }
  });
  return corpora;
}

std::shared_ptr<const AnomalyDetector> Framework::detector(bool build) const {
  DESMINE_EXPECTS(slot_ != nullptr, "moved-from Framework");
  const std::lock_guard lock(slot_->build);
  if (build && slot_->detector == nullptr) {
    slot_->detector =
        std::make_shared<const AnomalyDetector>(*graph_, config_.detector);
  }
  return slot_->detector;
}

DetectionResult Framework::detect(const MultivariateSeries& test,
                                  const DetectOptions& options) const {
  const std::shared_ptr<const AnomalyDetector> d = detector(true);
  const std::vector<EncodedCorpus> corpora = encode(test, *d);
  const std::lock_guard lock(slot_->scoring);
  return d->detect(corpora, options);
}

DetectionResult Framework::detect(const MultivariateSeries& test) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  return detect(test, DetectOptions{});
}

DetectionResult Framework::detect_degraded(
    const MultivariateSeries& test, const robust::HealthConfig& health,
    const std::vector<std::size_t>& missing_ticks) const {
  DESMINE_EXPECTS(fitted(), "fit() must run first");
  const HealthMask mask = window_health_mask(*encrypter_, config_.window,
                                             test, health, missing_ticks);
  DetectOptions options;
  options.unhealthy = &mask;
  return detect(test, options);
}

void Framework::restore(SensorEncrypter encrypter, MvrGraph graph) {
  DESMINE_EXPECTS(graph.sensor_count() == encrypter.kept_sensors().size(),
                  "graph/encrypter sensor counts disagree");
  encrypter_ = std::move(encrypter);
  graph_ = std::move(graph);
  slot_ = std::make_shared<DetectorSlot>();
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
