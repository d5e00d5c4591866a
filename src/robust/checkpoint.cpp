#include "robust/checkpoint.h"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>

#include "obs/json.h"
#include "util/error.h"

namespace desmine::robust {

namespace {

/// Hex encoding of a double's bit pattern — exact round-trip.
std::string double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

bool bits_to_double(const std::string& hex, double& out) {
  if (hex.size() != 16) return false;
  std::uint64_t bits = 0;
  for (char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    bits = (bits << 4) | static_cast<std::uint64_t>(digit);
  }
  std::memcpy(&out, &bits, sizeof(out));
  return true;
}

/// A field of decimal digits only: no sign, fraction, exponent or overflow.
bool parse_size(const std::map<std::string, std::string>& m, const char* key,
                std::size_t& out) {
  const auto it = m.find(key);
  if (it == m.end()) return false;
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  out = value;
  return true;
}

std::string get_or(const std::map<std::string, std::string>& m,
                   const char* key, const std::string& fallback = "") {
  const auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

}  // namespace

std::string checkpoint_model_dir(const std::string& journal_path) {
  return journal_path + ".models";
}

std::string checkpoint_model_file(const std::string& journal_path,
                                  std::size_t pair_index) {
  return checkpoint_model_dir(journal_path) + "/pair_" +
         std::to_string(pair_index) + ".bin";
}

CheckpointState load_checkpoint(const std::string& path) {
  CheckpointState state;
  std::ifstream is(path);
  if (!is) return state;
  state.exists = true;

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::map<std::string, std::string> fields;
    if (!obs::parse_flat_json(line, fields)) {
      // A crash mid-append leaves a partial trailing line; skip it.
      ++state.skipped_lines;
      continue;
    }
    const std::string type = get_or(fields, "type");
    if (type == "header") {
      std::size_t fp = 0;
      if (parse_size(fields, "fingerprint", fp)) {
        state.fingerprint = static_cast<std::uint32_t>(fp);
        state.has_header = true;
      }
      parse_size(fields, "pairs", state.pair_count);
      continue;
    }
    if (type != "pair") {
      ++state.skipped_lines;
      continue;
    }
    PairRecord rec;
    if (!parse_size(fields, "pair", rec.pair_index) ||
        !parse_size(fields, "src", rec.src) ||
        !parse_size(fields, "dst", rec.dst)) {
      ++state.skipped_lines;
      continue;
    }
    rec.ok = get_or(fields, "ok") == "true";
    parse_size(fields, "steps", rec.steps);
    parse_size(fields, "attempts", rec.attempts);
    rec.error = get_or(fields, "error");
    rec.model_file = get_or(fields, "model_file");
    if (!bits_to_double(get_or(fields, "bleu_bits"), rec.bleu)) {
      try {
        rec.bleu = std::stod(get_or(fields, "bleu", "0"));
      } catch (...) {
        rec.bleu = 0.0;
      }
    }
    if (!bits_to_double(get_or(fields, "runtime_bits"), rec.runtime_s)) {
      try {
        rec.runtime_s = std::stod(get_or(fields, "runtime_s", "0"));
      } catch (...) {
        rec.runtime_s = 0.0;
      }
    }
    if (rec.ok) {
      state.completed[rec.pair_index] = std::move(rec);
    } else {
      ++state.failed_records;
    }
  }
  return state;
}

CheckpointJournal::CheckpointJournal(const std::string& path, bool append)
    : path_(path) {
  file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file_ == nullptr) {
    throw RuntimeError("cannot open checkpoint journal " + path + ": " +
                       std::strerror(errno));
  }
}

CheckpointJournal::~CheckpointJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointJournal::write_line(const std::string& line) {
  std::lock_guard lock(mutex_);
  // fsync so a finished pair survives a machine crash, not just a process
  // crash. One sync per pair is negligible next to minutes of training.
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0 ||
      ::fsync(::fileno(file_)) != 0) {
    throw RuntimeError("checkpoint journal write failed: " + path_);
  }
}

void CheckpointJournal::write_header(std::uint32_t fingerprint,
                                     std::size_t pair_count) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("header");
  w.key("fingerprint").value(static_cast<std::uint64_t>(fingerprint));
  w.key("pairs").value(static_cast<std::uint64_t>(pair_count));
  w.end_object();
  write_line(w.str());
}

void CheckpointJournal::append(const PairRecord& record) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("type").value("pair");
  w.key("pair").value(static_cast<std::uint64_t>(record.pair_index));
  w.key("src").value(static_cast<std::uint64_t>(record.src));
  w.key("dst").value(static_cast<std::uint64_t>(record.dst));
  w.key("ok").value(record.ok);
  w.key("bleu").value(record.bleu);
  w.key("bleu_bits").value(double_bits(record.bleu));
  w.key("runtime_s").value(record.runtime_s);
  w.key("runtime_bits").value(double_bits(record.runtime_s));
  w.key("steps").value(static_cast<std::uint64_t>(record.steps));
  w.key("attempts").value(static_cast<std::uint64_t>(record.attempts));
  if (!record.error.empty()) w.key("error").value(record.error);
  if (!record.model_file.empty()) {
    w.key("model_file").value(record.model_file);
  }
  w.end_object();
  write_line(w.str());
}

}  // namespace desmine::robust
