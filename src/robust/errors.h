// Typed errors raised by the fault-tolerance layer.
//
// The miner's per-pair isolation distinguishes these from generic runtime
// failures: a DeadlineExceeded pair is not retried (retrying the same step
// budget would time out again), and Interrupted aborts the whole run after
// the checkpoint journal has been flushed. The detection-side errors
// (MissingSensor, MisalignedCorpus) carry the offending sensor so a
// degraded-mode caller can route the fault to the health tracker instead
// of aborting the stream.
#pragma once

#include <cstddef>
#include <string>

#include "util/error.h"

namespace desmine::robust {

/// A wall-clock deadline (per-pair training budget) elapsed.
class DeadlineExceeded : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// Mining was aborted deliberately — SIGINT, an armed kAbort fault, or a
/// caller-supplied should_abort() hook. Completed pairs are already
/// journaled; rerun with resume to continue where the run stopped.
class Interrupted : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// A kept sensor delivered no value for a tick while the detector runs in
/// strict mode. Degraded-mode detection routes the same condition to the
/// sensor-health tracker instead of throwing.
class MissingSensor : public RuntimeError {
 public:
  MissingSensor(std::string sensor, std::size_t tick)
      : RuntimeError("sensor '" + sensor + "' delivered no value at tick " +
                     std::to_string(tick)),
        sensor_(std::move(sensor)),
        tick_(tick) {}

  const std::string& sensor() const { return sensor_; }
  std::size_t tick() const { return tick_; }

 private:
  std::string sensor_;
  std::size_t tick_;
};

/// Test corpora handed to the detector are not aligned: the named sensor's
/// corpus has a different window count than the first sensor's. Raised up
/// front (with the offender named) instead of surfacing as undefined
/// behavior deep inside edge scoring.
class MisalignedCorpus : public PreconditionError {
 public:
  MisalignedCorpus(std::string sensor, std::size_t expected, std::size_t got)
      : PreconditionError("test corpus of sensor '" + sensor + "' has " +
                          std::to_string(got) + " windows, expected " +
                          std::to_string(expected) +
                          " (test corpora must be aligned across sensors)"),
        sensor_(std::move(sensor)),
        expected_(expected),
        got_(got) {}

  const std::string& sensor() const { return sensor_; }
  std::size_t expected() const { return expected_; }
  std::size_t got() const { return got_; }

 private:
  std::string sensor_;
  std::size_t expected_;
  std::size_t got_;
};

/// An edge model's vocabulary differs from its sensor's. Every edge out of
/// or into a sensor must be trained on that sensor's one vocabulary, because
/// scoring encodes each window's sentence once per sensor and hands the same
/// ids to all of them.
class VocabularyMismatch : public RuntimeError {
 public:
  VocabularyMismatch(std::size_t sensor, std::size_t src, std::size_t dst)
      : RuntimeError("edge " + std::to_string(src) + "->" +
                     std::to_string(dst) + " was trained on a vocabulary of "
                     "sensor " + std::to_string(sensor) +
                     " that differs from the sensor's"),
        sensor_(sensor),
        src_(src),
        dst_(dst) {}

  std::size_t sensor() const { return sensor_; }
  std::size_t src() const { return src_; }
  std::size_t dst() const { return dst_; }

 private:
  std::size_t sensor_;
  std::size_t src_;
  std::size_t dst_;
};

}  // namespace desmine::robust
