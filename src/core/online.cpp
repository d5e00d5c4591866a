#include "core/online.h"

#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace desmine::core {

OnlineDetector::OnlineDetector(const MvrGraph& graph,
                               SensorEncrypter encrypter, WindowConfig window,
                               DetectorConfig detector,
                               DegradedConfig degraded)
    : assembler_(std::move(encrypter), window, degraded),
      detector_(graph, detector) {
  DESMINE_EXPECTS(
      graph.sensor_count() == assembler_.encrypter().kept_sensors().size(),
      "graph/encrypter sensor counts disagree");
}

std::optional<OnlineDetector::WindowResult> OnlineDetector::push(
    const std::map<std::string, std::string>& states) {
  static obs::Counter& ticks = obs::metrics().counter("online.ticks");
  static obs::Counter& windows_emitted =
      obs::metrics().counter("online.windows_emitted");
  std::optional<WindowAssembler::Window> window = assembler_.push(states);
  ticks.inc();
  if (!window) return std::nullopt;

  const std::size_t max_order = detector_.config().bleu.max_order;
  std::vector<EncodedCorpus> corpora(window->spans.sensors());
  for (std::size_t k = 0; k < corpora.size(); ++k) {
    corpora[k].windows.assign(1, 0);
    if (const text::Vocabulary* vocab = detector_.vocabulary(k)) {
      corpora[k].sentences.push_back(encode_span(
          *vocab, assembler_.language(), window->spans.sensor(k), max_order));
    }
  }
  HealthMask mask(1);
  mask[0] = window->unhealthy;
  DetectOptions options;
  if (assembler_.degraded_enabled()) options.unhealthy = &mask;
  const DetectionResult result = detector_.detect(corpora, options);

  WindowResult out;
  out.window_index = window->window_index;
  out.end_tick = window->end_tick;
  out.anomaly_score = result.anomaly_scores.front();
  out.coverage = result.coverage.front();
  out.degraded = result.degraded.front() != 0;
  out.unhealthy = std::move(window->unhealthy);
  for (std::size_t e : result.broken_edges.front()) {
    out.broken.emplace_back(result.valid_edges[e].src,
                            result.valid_edges[e].dst);
  }
  windows_emitted.inc();
  DESMINE_LOG_DEBUG("online window scored",
                    {obs::kv("window", out.window_index),
                     obs::kv("end_tick", out.end_tick),
                     obs::kv("score", out.anomaly_score),
                     obs::kv("broken", out.broken.size()),
                     obs::kv("coverage", out.coverage),
                     obs::kv("degraded", out.degraded)});
  return out;
}

HealthMask window_health_mask(const SensorEncrypter& encrypter,
                              const WindowConfig& window,
                              const MultivariateSeries& series,
                              const robust::HealthConfig& health,
                              const std::vector<std::size_t>& missing_ticks) {
  const std::vector<std::string> chars = encrypter.encode_all(series);
  DESMINE_EXPECTS(chars.size() == encrypter.kept_sensors().size(),
                  "series must contain every kept sensor");
  const std::size_t ticks = chars.empty() ? 0 : chars.front().size();

  std::vector<std::uint8_t> missing(ticks, 0);
  for (std::size_t t : missing_ticks) {
    DESMINE_EXPECTS(t < ticks, "missing tick beyond the series length");
    missing[t] = 1;
  }

  // Replay the stream through the tracker, recording per-tick taint.
  robust::SensorHealthTracker tracker(encrypter.kept_sensors(), health);
  std::vector<std::vector<std::uint8_t>> taints(
      chars.size(), std::vector<std::uint8_t>(ticks, 0));
  for (std::size_t t = 0; t < ticks; ++t) {
    const bool present = missing[t] == 0;
    for (std::size_t k = 0; k < chars.size(); ++k) {
      const char ch = chars[k][t];
      const robust::SensorState state = tracker.observe(
          k, {present, ch == SensorEncrypter::kUnknownChar, ch});
      taints[k][t] =
          (!present || state != robust::SensorState::kHealthy) ? 1 : 0;
    }
  }

  const LanguageGenerator language(window);
  const std::size_t span = language.sentence_span();
  HealthMask mask(language.sentence_count(ticks));
  for (std::size_t w = 0; w < mask.size(); ++w) {
    const std::size_t start = language.sentence_start(w);
    for (std::size_t k = 0; k < chars.size(); ++k) {
      const auto& taint = taints[k];
      for (std::size_t i = start; i < start + span; ++i) {
        if (taint[i]) {
          mask[w].push_back(k);
          break;
        }
      }
    }
  }
  return mask;
}

}  // namespace desmine::core
