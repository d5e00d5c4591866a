// Structured, leveled logging for the desmine library and tools.
//
// Library code never writes to std streams directly; it logs through the
// process-wide obs::logger(), which fans records out to pluggable sinks
// (stderr text, file text, JSON lines). Records carry key=value fields so
// downstream tooling can filter without parsing prose:
//
//   DESMINE_LOG_DEBUG("pair model trained",
//                     {obs::kv("src", name), obs::kv("bleu", 87.2)});
//
// The level check is a relaxed atomic load, so disabled levels cost one
// branch. Trace/debug calls can additionally be stripped at compile time by
// defining DESMINE_OBS_MIN_LEVEL above their numeric level.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace desmine::obs {

enum class Level : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Lower-case level name ("trace" ... "off").
const char* level_name(Level level);

/// Parse "trace|debug|info|warn|error|off"; throws PreconditionError.
Level parse_level(std::string_view name);

/// One structured key=value pair attached to a log record or span.
struct Field {
  std::string key;
  std::string value;
};

Field kv(std::string key, std::string value);
Field kv(std::string key, std::string_view value);
Field kv(std::string key, const char* value);
Field kv(std::string key, double value);
Field kv(std::string key, bool value);

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
Field kv(std::string key, T value) {
  return Field{std::move(key), std::to_string(value)};
}

struct LogRecord {
  Level level = Level::kInfo;
  std::string message;
  std::vector<Field> fields;
  std::chrono::system_clock::time_point time;
  std::uint64_t thread_id = 0;  ///< hashed std::thread::id
};

/// Human-readable single line: "HH:MM:SS.mmm LEVEL message key=value ...".
std::string format_text(const LogRecord& record);

/// One JSON object (no trailing newline): {"ts":..., "level":..., ...}.
std::string format_jsonl(const LogRecord& record);

/// Output backend. write() calls are serialized by the logger.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Text lines to stderr (the default sink).
class StderrSink : public Sink {
 public:
  void write(const LogRecord& record) override;
};

/// Text lines appended to a file; throws RuntimeError if it cannot open.
class FileSink : public Sink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  void write(const LogRecord& record) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// JSON-lines records to a caller-owned stream (tests) or a file (tools).
class JsonLinesSink : public Sink {
 public:
  explicit JsonLinesSink(std::ostream& out);
  explicit JsonLinesSink(const std::string& path);
  ~JsonLinesSink() override;
  void write(const LogRecord& record) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::ostream* out_;  ///< non-owning when constructed from a stream
};

/// Thread-safe leveled logger fanning out to its sinks.
class Logger {
 public:
  /// Starts at kInfo with a StderrSink installed.
  Logger();

  bool enabled(Level level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }
  Level level() const {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }
  void set_level(Level level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }

  /// Replace all sinks / add another sink. Thread-safe.
  void set_sink(std::shared_ptr<Sink> sink);
  void add_sink(std::shared_ptr<Sink> sink);

  void log(Level level, std::string_view message,
           std::vector<Field> fields = {});

  void trace(std::string_view msg, std::vector<Field> f = {}) {
    log(Level::kTrace, msg, std::move(f));
  }
  void debug(std::string_view msg, std::vector<Field> f = {}) {
    log(Level::kDebug, msg, std::move(f));
  }
  void info(std::string_view msg, std::vector<Field> f = {}) {
    log(Level::kInfo, msg, std::move(f));
  }
  void warn(std::string_view msg, std::vector<Field> f = {}) {
    log(Level::kWarn, msg, std::move(f));
  }
  void error(std::string_view msg, std::vector<Field> f = {}) {
    log(Level::kError, msg, std::move(f));
  }

 private:
  std::atomic<int> level_;
  std::mutex mutex_;
  std::vector<std::shared_ptr<Sink>> sinks_;
};

/// The process-wide logger every library component reports through.
Logger& logger();

}  // namespace desmine::obs

// Numeric level constants usable in #if / if constexpr.
#define DESMINE_OBS_LEVEL_TRACE 0
#define DESMINE_OBS_LEVEL_DEBUG 1
#define DESMINE_OBS_LEVEL_INFO 2
#define DESMINE_OBS_LEVEL_WARN 3
#define DESMINE_OBS_LEVEL_ERROR 4

// Calls below this level compile to nothing (e.g. build with
// -DDESMINE_OBS_MIN_LEVEL=DESMINE_OBS_LEVEL_INFO to strip debug logging).
#ifndef DESMINE_OBS_MIN_LEVEL
#define DESMINE_OBS_MIN_LEVEL DESMINE_OBS_LEVEL_TRACE
#endif

#define DESMINE_LOG_AT_(numeric, enum_level, ...)                         \
  do {                                                                    \
    if constexpr ((numeric) >= DESMINE_OBS_MIN_LEVEL) {                   \
      auto& desmine_lg_ = ::desmine::obs::logger();                       \
      if (desmine_lg_.enabled(enum_level)) {                              \
        desmine_lg_.log(enum_level, __VA_ARGS__);                         \
      }                                                                   \
    }                                                                     \
  } while (0)

#define DESMINE_LOG_TRACE(...)                                      \
  DESMINE_LOG_AT_(DESMINE_OBS_LEVEL_TRACE,                          \
                  ::desmine::obs::Level::kTrace, __VA_ARGS__)
#define DESMINE_LOG_DEBUG(...)                                      \
  DESMINE_LOG_AT_(DESMINE_OBS_LEVEL_DEBUG,                          \
                  ::desmine::obs::Level::kDebug, __VA_ARGS__)
#define DESMINE_LOG_INFO(...)                                       \
  DESMINE_LOG_AT_(DESMINE_OBS_LEVEL_INFO,                           \
                  ::desmine::obs::Level::kInfo, __VA_ARGS__)
#define DESMINE_LOG_WARN(...)                                       \
  DESMINE_LOG_AT_(DESMINE_OBS_LEVEL_WARN,                           \
                  ::desmine::obs::Level::kWarn, __VA_ARGS__)
#define DESMINE_LOG_ERROR(...)                                      \
  DESMINE_LOG_AT_(DESMINE_OBS_LEVEL_ERROR,                          \
                  ::desmine::obs::Level::kError, __VA_ARGS__)
