#include "util/table.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace desmine::util {

namespace {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  DESMINE_EXPECTS(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::to_text(const std::string& title) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  if (!title.empty()) os << "== " << title << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << " | ";
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = header_.size() - 1;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

}  // namespace desmine::util
