// Sensor encryption (§II-A1): categorical states -> character alphabets.
//
// Two steps from the paper:
//  * Sequence filtering — a sensor whose training events are all identical
//    carries no signal for the translation model and is dropped (it is also
//    excluded from online testing).
//  * Discrete event encryption — each distinct state, sorted in alphanumeric
//    order, is assigned a letter; conceptually prefixed with the sensor name
//    ("s1.a") to keep languages distinct. Unseen states at test time map to
//    the reserved unknown character.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/event.h"

namespace desmine::core {

class SensorEncrypter {
 public:
  /// The reserved character for system states never seen in training
  /// (the paper's <unk>, footnote 1).
  static constexpr char kUnknownChar = '?';

  /// Per-sensor encoding table.
  struct Encoding {
    std::string sensor;
    std::map<std::string, char> to_char;  ///< state -> letter ('a'..)
  };

  /// Fit the encrypter on training data: drops constant sensors, assigns
  /// letters to the surviving sensors' states in alphanumeric state order.
  static SensorEncrypter fit(const MultivariateSeries& train);

  /// Rebuild from persisted encodings (kept order = encoding order); used by
  /// io::load_framework.
  static SensorEncrypter from_encodings(std::vector<Encoding> encodings,
                                        std::vector<std::string> dropped);

  /// Encoding table of a kept sensor (for inspection and serialization).
  const Encoding& encoding(const std::string& sensor) const;

  /// Names of sensors kept after filtering, in input order.
  const std::vector<std::string>& kept_sensors() const { return kept_; }

  /// Names of sensors dropped by sequence filtering.
  const std::vector<std::string>& dropped_sensors() const { return dropped_; }

  bool keeps(const std::string& sensor) const;

  /// Distinct training states of a kept sensor (its cardinality).
  std::size_t cardinality(const std::string& sensor) const;

  /// Letter of `state` for kept sensor `k` (kept_sensors() order), or
  /// kUnknownChar for a state unseen in training. No sensor-name search:
  /// what streaming ingest calls when a sensor's state changes.
  char letter(std::size_t k, const std::string& state) const;

  /// Encode one kept sensor's events into a character string; unseen states
  /// become kUnknownChar. Throws for dropped/unknown sensors.
  std::string encode(const std::string& sensor,
                     const EventSequence& events) const;

  /// Paper-style token for a state: "<sensor>.<letter>"; for display.
  std::string token(const std::string& sensor, const std::string& state) const;

  /// Encode every kept sensor from a series (sensors not kept are skipped).
  /// Returns strings aligned with kept_sensors().
  std::vector<std::string> encode_all(const MultivariateSeries& series) const;

 private:
  /// Index into encodings_ (kept order) of the kept sensor `name`, or
  /// throws PreconditionError for a dropped or unknown sensor.
  std::size_t index(const std::string& name) const;

  std::vector<Encoding> encodings_;        ///< kept order
  std::map<std::string, std::size_t> index_;  ///< name -> encodings_ index
  std::vector<std::string> kept_;
  std::vector<std::string> dropped_;
};

}  // namespace desmine::core
