#include "core/window_assembler.h"

#include <algorithm>

#include "robust/errors.h"
#include "robust/fault_injector.h"
#include "util/error.h"

namespace desmine::core {

WindowAssembler::WindowAssembler(SensorEncrypter encrypter,
                                 WindowConfig window, DegradedConfig degraded)
    : encrypter_(std::move(encrypter)),
      language_(window),
      degraded_(degraded),
      health_(encrypter_.kept_sensors(), degraded.health) {
  buffers_.resize(encrypter_.kept_sensors().size());
  taints_.resize(encrypter_.kept_sensors().size());
}

std::optional<WindowAssembler::Window> WindowAssembler::push(
    const std::map<std::string, std::string>& states) {
  const auto& kept = encrypter_.kept_sensors();
  for (std::size_t k = 0; k < kept.size(); ++k) {
    const auto it = states.find(kept[k]);
    bool present = it != states.end();
    switch (robust::fire_fault("detect.push",
                               static_cast<std::int64_t>(k))) {
      case robust::FaultAction::kThrow:
        throw RuntimeError("injected fault at detect.push for sensor " +
                           kept[k]);
      case robust::FaultAction::kDrop:
        present = false;  // simulated sensor dropout for this tick
        break;
      default:
        break;
    }
    if (!present && !degraded_.enabled) {
      throw robust::MissingSensor(kept[k], ticks_);
    }
    // A missing tick still occupies one buffer slot so the kept sensors'
    // streams stay tick-aligned; the filler never reaches a verdict
    // because the taint flag excludes every window covering it.
    const char ch = present
                        ? encrypter_.encode(kept[k], {it->second}).front()
                        : SensorEncrypter::kUnknownChar;
    buffers_[k] += ch;
    bool tainted = false;
    if (degraded_.enabled) {
      const robust::SensorState state = health_.observe(
          k, {present, ch == SensorEncrypter::kUnknownChar, ch});
      tainted = !present || state != robust::SensorState::kHealthy;
    }
    taints_[k].push_back(tainted ? 1 : 0);
  }
  ++ticks_;

  // Does the stream now cover the next window?
  const std::size_t first = language_.sentence_start(next_window_);
  const std::size_t span = language_.sentence_span();
  if (ticks_ < first + span) return std::nullopt;

  // Slice the window's characters per sensor and build one-sentence corpora.
  Window out;
  out.corpora.resize(buffers_.size());
  const std::size_t start = first - trimmed_;
  for (std::size_t k = 0; k < buffers_.size(); ++k) {
    const std::string window_chars = buffers_[k].substr(start, span);
    text::Corpus sentences = language_.generate(window_chars);
    DESMINE_ENSURES(sentences.size() == 1,
                    "window slice must yield exactly one sentence");
    out.corpora[k] = std::move(sentences);
  }

  // Degraded mode: a sensor leaves this window's valid set when any tick
  // the window covers is tainted (missing sample or unhealthy state).
  if (degraded_.enabled) {
    for (std::size_t k = 0; k < taints_.size(); ++k) {
      const auto& taint = taints_[k];
      const bool bad = std::any_of(taint.begin() + static_cast<long>(start),
                                   taint.begin() + static_cast<long>(start + span),
                                   [](std::uint8_t t) { return t != 0; });
      if (bad) out.unhealthy.push_back(k);
    }
  }

  out.window_index = next_window_;
  out.end_tick = ticks_;
  ++next_window_;

  // Characters before the next window's start are never needed again;
  // trimming in bulk keeps memory bounded on unbounded streams without
  // quadratic erase churn.
  const std::size_t keep_from = language_.sentence_start(next_window_);
  if (keep_from > trimmed_ + 4096) {
    const std::size_t drop = keep_from - trimmed_;
    for (std::string& buffer : buffers_) buffer.erase(0, drop);
    for (auto& taint : taints_) {
      taint.erase(taint.begin(), taint.begin() + static_cast<long>(drop));
    }
    trimmed_ = keep_from;
  }
  return out;
}

}  // namespace desmine::core
