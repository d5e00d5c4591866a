#include "core/encryption.h"

#include <algorithm>
#include <set>

#include "util/error.h"

namespace desmine::core {

SensorEncrypter SensorEncrypter::fit(const MultivariateSeries& train) {
  SensorEncrypter enc;
  for (const SensorSeries& sensor : train) {
    std::set<std::string> states(sensor.events.begin(), sensor.events.end());
    if (states.size() < 2) {
      // Sequence filtering: constant (or empty) sequences are meaningless to
      // the translation model.
      enc.dropped_.push_back(sensor.name);
      continue;
    }
    // std::set iterates in sorted (alphanumeric) order, which fixes the
    // letter assignment deterministically.
    DESMINE_EXPECTS(states.size() <= 26,
                    "sensor cardinality exceeds the letter alphabet");
    Encoding encoding;
    encoding.sensor = sensor.name;
    char letter = 'a';
    for (const std::string& state : states) {
      encoding.to_char.emplace(state, letter++);
    }
    enc.index_.emplace(sensor.name, enc.encodings_.size());
    enc.encodings_.push_back(std::move(encoding));
    enc.kept_.push_back(sensor.name);
  }
  return enc;
}

SensorEncrypter SensorEncrypter::from_encodings(
    std::vector<Encoding> encodings, std::vector<std::string> dropped) {
  SensorEncrypter enc;
  for (Encoding& e : encodings) {
    DESMINE_EXPECTS(!e.to_char.empty(), "empty encoding table");
    const bool fresh =
        enc.index_.emplace(e.sensor, enc.encodings_.size()).second;
    DESMINE_EXPECTS(fresh, "duplicate sensor in the encoding tables");
    enc.kept_.push_back(e.sensor);
    enc.encodings_.push_back(std::move(e));
  }
  enc.dropped_ = std::move(dropped);
  return enc;
}

std::size_t SensorEncrypter::index(const std::string& name) const {
  const auto it = index_.find(name);
  DESMINE_EXPECTS(it != index_.end(), "unknown or dropped sensor");
  return it->second;
}

const SensorEncrypter::Encoding& SensorEncrypter::encoding(
    const std::string& sensor) const {
  return encodings_[index(sensor)];
}

bool SensorEncrypter::keeps(const std::string& sensor) const {
  return index_.count(sensor) > 0;
}

std::size_t SensorEncrypter::cardinality(const std::string& sensor) const {
  return encoding(sensor).to_char.size();
}

char SensorEncrypter::letter(std::size_t k, const std::string& state) const {
  const std::map<std::string, char>& table = encodings_[k].to_char;
  const auto it = table.find(state);
  return it == table.end() ? kUnknownChar : it->second;
}

std::string SensorEncrypter::encode(const std::string& sensor,
                                    const EventSequence& events) const {
  const std::size_t k = index(sensor);
  std::string out;
  out.reserve(events.size());
  // States persist for many ticks: a state equal to the previous one
  // reuses its letter instead of searching the table again.
  const std::string* previous = nullptr;
  for (const std::string& state : events) {
    if (previous == nullptr || state != *previous) {
      out.push_back(letter(k, state));
      previous = &state;
    } else {
      out.push_back(out.back());
    }
  }
  return out;
}

std::string SensorEncrypter::token(const std::string& sensor,
                                   const std::string& state) const {
  return sensor + "." + std::string(1, letter(index(sensor), state));
}

std::vector<std::string> SensorEncrypter::encode_all(
    const MultivariateSeries& series) const {
  std::vector<std::string> out;
  out.reserve(kept_.size());
  for (const std::string& name : kept_) {
    const auto it =
        std::find_if(series.begin(), series.end(),
                     [&](const SensorSeries& s) { return s.name == name; });
    DESMINE_EXPECTS(it != series.end(), "series missing kept sensor " + name);
    out.push_back(encode(name, it->events));
  }
  return out;
}

}  // namespace desmine::core
