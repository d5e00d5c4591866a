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
//
// A tick costs no string work: the kept sensors are found in the tick's
// map by one in-order walk over both name-sorted lists, and each sensor
// keeps its last state and letter, so the encrypter is asked for a letter
// only when the sensor's state changes. A window leaves as its sensors'
// character spans in one buffer (WindowSpans); its words are cut and
// encoded later, by whoever scores it (core::encode_span).
//
// Taint flags (one byte per sensor and buffered tick) are kept in degraded
// mode only: strict mode throws on a missing sensor and never excludes
// one, so it has nothing to record. The fault injector is asked once per
// tick whether any fault is armed, and polled per sensor only then.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/encryption.h"
#include "core/language.h"
#include "robust/sensor_health.h"

namespace desmine::core {

/// Degraded-mode ingestion policy (shared by OnlineDetector and serve
/// sessions).
struct DegradedConfig {
  bool enabled = false;  ///< false = strict: missing sensors throw
  robust::HealthConfig health{};
};

/// One window's sentence characters, kept sensor after kept sensor in one
/// buffer: sensor k's sentence is the words LanguageGenerator cuts from
/// sensor(k), the `span` = sentence_span() characters at k·span.
struct WindowSpans {
  std::string chars;
  std::size_t span = 0;

  std::size_t sensors() const { return span == 0 ? 0 : chars.size() / span; }
  std::string_view sensor(std::size_t k) const {
    return std::string_view(chars).substr(k * span, span);
  }
};

class WindowAssembler {
 public:
  /// One completed detection window, ready for scoring.
  struct Window {
    std::size_t window_index = 0;  ///< 0-based, in sentence-stride units
    std::size_t end_tick = 0;      ///< tick just past the window's last char
    /// Every kept sensor's span (graph node indexing).
    WindowSpans spans;
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
  const LanguageGenerator& language() const { return language_; }
  bool degraded_enabled() const { return degraded_.enabled; }
  /// Health states (degraded mode; all-healthy in strict mode).
  const robust::SensorHealthTracker& health() const { return health_; }

 private:
  /// A kept sensor's last state and its letter (0 before its first tick).
  struct LastLetter {
    std::string state;
    char letter = 0;
  };

  SensorEncrypter encrypter_;
  LanguageGenerator language_;
  DegradedConfig degraded_;
  robust::SensorHealthTracker health_;
  std::vector<std::size_t> by_name_;  ///< kept indices, names ascending
  std::vector<LastLetter> last_;      ///< per kept sensor
  /// Per kept sensor, its state in the tick being pushed (null: missing).
  std::vector<const std::string*> found_;
  std::vector<std::string> buffers_;  ///< encrypted chars per kept sensor
  /// Degraded mode only (empty in strict mode): per kept sensor, one flag
  /// per buffered tick, 1 when the tick must not contribute to a verdict
  /// (missing sample, or sensor unhealthy after observing it). Trimmed in
  /// lockstep with buffers_.
  std::vector<std::vector<std::uint8_t>> taints_;
  std::size_t ticks_ = 0;
  std::size_t next_window_ = 0;
  std::size_t trimmed_ = 0;  ///< chars dropped from the buffer fronts
};

}  // namespace desmine::core
