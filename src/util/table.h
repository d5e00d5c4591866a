// Aligned text tables and CSV output for the bench harness.
//
// Every bench binary prints paper-style rows; Table renders them with aligned
// columns on stdout and can also persist the same rows as CSV for plotting.
#pragma once

#include <string>
#include <vector>

namespace desmine::util {

/// Column-aligned text table with an optional title, also serializable as CSV.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append a row; it is padded/truncated to the header width.
  void add_row(std::vector<std::string> row);

  std::size_t row_count() const { return rows_.size(); }

  /// Render with space-padded, pipe-separated columns.
  std::string to_text(const std::string& title = "") const;

  /// Render as RFC-4180-ish CSV (fields containing comma/quote are quoted).
  std::string to_csv() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace desmine::util
