// Streaming window assembly: ticks in, sentence-windows out.
//
// Both the single-stream OnlineDetector and the multi-session serving layer
// (src/serve/) consume one multivariate sample per tick and must cut the
// stream into detection windows — one sentence per kept sensor (§II-A2) —
// before any model runs. WindowAssembler owns exactly that shared half:
// per-sensor character buffering, strict/degraded ingestion (missing-sensor
// throw vs health-tracker taint), window slicing, and bounded-memory buffer
// trimming. What happens to a completed window (immediate detect() vs
// deferred batched scoring) is the caller's business, which keeps the two
// consumers bit-identical by construction.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/encryption.h"
#include "core/language.h"
#include "robust/sensor_health.h"
#include "text/bleu.h"

namespace desmine::core {

/// Degraded-mode ingestion policy (shared by OnlineDetector and serve
/// sessions).
struct DegradedConfig {
  bool enabled = false;  ///< false = strict: missing sensors throw
  robust::HealthConfig health{};
};

class WindowAssembler {
 public:
  /// One completed detection window, ready for scoring.
  struct Window {
    std::size_t window_index = 0;  ///< 0-based, in sentence-stride units
    std::size_t end_tick = 0;      ///< tick just past the window's last char
    /// One single-sentence corpus per kept sensor (graph node indexing).
    std::vector<text::Corpus> corpora;
    /// Node indices excluded from this window (degraded mode only): sensors
    /// with a missing or unhealthy tick anywhere in the window's span.
    std::vector<std::size_t> unhealthy;
  };

  /// `encrypter` must be the one the graph was mined with (same kept-sensor
  /// order).
  WindowAssembler(SensorEncrypter encrypter, WindowConfig window,
                  DegradedConfig degraded = {});

  /// Feed one tick: the categorical state of every kept sensor, keyed by
  /// sensor name (unknown states map to <unk>). In strict mode a missing
  /// kept sensor throws robust::MissingSensor; in degraded mode it is
  /// recorded with the health tracker and the tick proceeds. Returns the
  /// completed window whenever this tick finished one.
  std::optional<Window> push(const std::map<std::string, std::string>& states);

  /// Ticks consumed so far.
  std::size_t ticks() const { return ticks_; }
  /// Windows emitted so far.
  std::size_t windows_emitted() const { return next_window_; }
  const SensorEncrypter& encrypter() const { return encrypter_; }
  const WindowConfig& window_config() const { return language_.config(); }
  bool degraded_enabled() const { return degraded_.enabled; }
  /// Health states (degraded mode; all-healthy in strict mode).
  const robust::SensorHealthTracker& health() const { return health_; }

 private:
  SensorEncrypter encrypter_;
  LanguageGenerator language_;
  DegradedConfig degraded_;
  robust::SensorHealthTracker health_;
  std::vector<std::string> buffers_;  ///< encrypted chars per kept sensor
  /// Per kept sensor, one flag per buffered tick: 1 when the tick must not
  /// contribute to a verdict (missing sample, or sensor unhealthy after
  /// observing it). Trimmed in lockstep with buffers_.
  std::vector<std::vector<std::uint8_t>> taints_;
  std::size_t ticks_ = 0;
  std::size_t next_window_ = 0;
  std::size_t trimmed_ = 0;  ///< chars dropped from the buffer fronts
};

}  // namespace desmine::core
