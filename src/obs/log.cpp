#include "obs/log.h"

#include <cctype>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <thread>

#include "obs/json.h"
#include "util/error.h"

namespace desmine::obs {

namespace {

std::uint64_t this_thread_hash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

/// "12.5" for round-ish doubles, "%g" keeps fields compact.
std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

bool needs_quoting(std::string_view v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t') return true;
  }
  return false;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kTrace: return "trace";
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: return "off";
  }
  return "unknown";
}

Level parse_level(std::string_view name) {
  for (Level l : {Level::kTrace, Level::kDebug, Level::kInfo, Level::kWarn,
                  Level::kError, Level::kOff}) {
    if (name == level_name(l)) return l;
  }
  DESMINE_EXPECTS(false, "unknown log level '" + std::string(name) +
                             "' (want trace|debug|info|warn|error|off)");
  return Level::kInfo;  // unreachable
}

Field kv(std::string key, std::string value) {
  return Field{std::move(key), std::move(value)};
}
Field kv(std::string key, std::string_view value) {
  return Field{std::move(key), std::string(value)};
}
Field kv(std::string key, const char* value) {
  return Field{std::move(key), std::string(value)};
}
Field kv(std::string key, double value) {
  return Field{std::move(key), format_double(value)};
}
Field kv(std::string key, bool value) {
  return Field{std::move(key), value ? "true" : "false"};
}

std::string format_text(const LogRecord& record) {
  const std::time_t secs = std::chrono::system_clock::to_time_t(record.time);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      record.time.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char stamp[40];
  std::snprintf(stamp, sizeof(stamp), "%02d:%02d:%02d.%03d", tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));

  std::string out = stamp;
  out += ' ';
  std::string lvl = level_name(record.level);
  for (char& c : lvl) c = static_cast<char>(std::toupper(c));
  out += lvl;
  out.append(6 - lvl.size(), ' ');  // align messages ("DEBUG " vs "INFO  ")
  out += record.message;
  for (const Field& f : record.fields) {
    out += ' ';
    out += f.key;
    out += '=';
    if (needs_quoting(f.value)) {
      out += JsonWriter::quote(f.value);
    } else {
      out += f.value;
    }
  }
  return out;
}

std::string format_jsonl(const LogRecord& record) {
  JsonWriter w;
  w.begin_object();
  const double ts =
      std::chrono::duration<double>(record.time.time_since_epoch()).count();
  w.key("ts").value(ts);
  w.key("level").value(std::string_view(level_name(record.level)));
  w.key("msg").value(std::string_view(record.message));
  w.key("tid").value(static_cast<std::uint64_t>(record.thread_id));
  for (const Field& f : record.fields) {
    w.key(f.key).value(std::string_view(f.value));
  }
  w.end_object();
  return w.str();
}

void StderrSink::write(const LogRecord& record) {
  std::cerr << format_text(record) << '\n';
}

struct FileSink::Impl {
  std::ofstream file;
};

FileSink::FileSink(const std::string& path) : impl_(std::make_unique<Impl>()) {
  impl_->file.open(path, std::ios::app);
  if (!impl_->file) throw RuntimeError("cannot open log file: " + path);
}

FileSink::~FileSink() = default;

void FileSink::write(const LogRecord& record) {
  impl_->file << format_text(record) << '\n';
  impl_->file.flush();
}

struct JsonLinesSink::Impl {
  std::ofstream file;
};

JsonLinesSink::JsonLinesSink(std::ostream& out) : out_(&out) {}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : impl_(std::make_unique<Impl>()), out_(nullptr) {
  impl_->file.open(path, std::ios::app);
  if (!impl_->file) throw RuntimeError("cannot open log file: " + path);
  out_ = &impl_->file;
}

JsonLinesSink::~JsonLinesSink() = default;

void JsonLinesSink::write(const LogRecord& record) {
  *out_ << format_jsonl(record) << '\n';
  out_->flush();
}

Logger::Logger() : level_(static_cast<int>(Level::kInfo)) {
  sinks_.push_back(std::make_shared<StderrSink>());
}

void Logger::set_sink(std::shared_ptr<Sink> sink) {
  std::lock_guard lock(mutex_);
  sinks_.clear();
  if (sink) sinks_.push_back(std::move(sink));
}

void Logger::add_sink(std::shared_ptr<Sink> sink) {
  DESMINE_EXPECTS(sink != nullptr, "sink must be non-null");
  std::lock_guard lock(mutex_);
  sinks_.push_back(std::move(sink));
}

void Logger::log(Level level, std::string_view message,
                 std::vector<Field> fields) {
  if (!enabled(level) || level == Level::kOff) return;
  LogRecord record;
  record.level = level;
  record.message = std::string(message);
  record.fields = std::move(fields);
  record.time = std::chrono::system_clock::now();
  record.thread_id = this_thread_hash();
  std::lock_guard lock(mutex_);  // serializes sink writes (unscrambled lines)
  for (const auto& sink : sinks_) sink->write(record);
}

Logger& logger() {
  static Logger instance;
  return instance;
}

}  // namespace desmine::obs
