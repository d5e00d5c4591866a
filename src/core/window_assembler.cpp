#include "core/window_assembler.h"

#include <algorithm>
#include <numeric>

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
  const std::vector<std::string>& kept = encrypter_.kept_sensors();
  by_name_.resize(kept.size());
  std::iota(by_name_.begin(), by_name_.end(), std::size_t{0});
  std::sort(by_name_.begin(), by_name_.end(),
            [&](std::size_t a, std::size_t b) { return kept[a] < kept[b]; });
  last_.resize(kept.size());
  found_.resize(kept.size());
  buffers_.resize(kept.size());
  if (degraded_.enabled) taints_.resize(kept.size());
}

std::optional<WindowAssembler::Window> WindowAssembler::push(
    const std::map<std::string, std::string>& states) {
  const auto& kept = encrypter_.kept_sensors();
  // The tick's map and by_name_ are both in name order: one walk finds
  // every kept sensor's state.
  auto it = states.begin();
  for (const std::size_t k : by_name_) {
    int order = 1;
    while (it != states.end() && (order = it->first.compare(kept[k])) < 0) {
      ++it;
    }
    found_[k] = it != states.end() && order == 0 ? &it->second : nullptr;
  }
  const bool faults = robust::FaultInjector::instance().any_armed();
  for (std::size_t k = 0; k < kept.size(); ++k) {
    bool present = found_[k] != nullptr;
    if (faults) {
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
    }
    if (!present && !degraded_.enabled) {
      throw robust::MissingSensor(kept[k], ticks_);
    }
    // A missing tick still occupies one buffer slot so the kept sensors'
    // streams stay tick-aligned; the filler never reaches a verdict
    // because the taint flag excludes every window covering it.
    char ch = SensorEncrypter::kUnknownChar;
    if (present) {
      // States persist for many ticks: the encrypter is asked only when
      // the state differs from this sensor's last one.
      LastLetter& last = last_[k];
      if (last.letter == 0 || *found_[k] != last.state) {
        last.letter = encrypter_.letter(k, *found_[k]);
        last.state = *found_[k];
      }
      ch = last.letter;
    }
    buffers_[k] += ch;
    if (degraded_.enabled) {
      const robust::SensorState state = health_.observe(
          k, {present, ch == SensorEncrypter::kUnknownChar, ch});
      const bool tainted = !present || state != robust::SensorState::kHealthy;
      taints_[k].push_back(tainted ? 1 : 0);
    }
  }
  ++ticks_;

  // Does the stream now cover the next window?
  const std::size_t first = language_.sentence_start(next_window_);
  const std::size_t span = language_.sentence_span();
  if (ticks_ < first + span) return std::nullopt;

  Window out;
  out.spans.span = span;
  out.spans.chars.reserve(buffers_.size() * span);
  const std::size_t start = first - trimmed_;
  for (const std::string& buffer : buffers_) {
    out.spans.chars.append(buffer, start, span);
  }

  // Degraded mode: a sensor leaves this window's valid set when any tick
  // the window covers is tainted (missing sample or unhealthy state).
  // Strict mode keeps no taints: taints_ is empty.
  for (std::size_t k = 0; k < taints_.size(); ++k) {
    const auto& taint = taints_[k];
    const bool bad = std::any_of(taint.begin() + static_cast<long>(start),
                                 taint.begin() + static_cast<long>(start + span),
                                 [](std::uint8_t t) { return t != 0; });
    if (bad) out.unhealthy.push_back(k);
  }

  out.window_index = next_window_;
  out.end_tick = ticks_;
  ++next_window_;

  // Characters before the next window's start are never needed again;
  // trimming in bulk keeps memory bounded on unbounded streams without
  // quadratic erase churn. With gapped sentences (n·j > span) that start
  // lies past the last tick, and only the ticks that arrived can go.
  const std::size_t keep_from =
      std::min(language_.sentence_start(next_window_), ticks_);
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
