// Tests for CSV event-series ingestion/egress: strict parsing, RFC-4180
// edge cases, and the tolerant skip/quarantine modes feeding degraded-mode
// detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "io/csv.h"
#include "obs/json.h"
#include "robust/fault_injector.h"
#include "util/crc32.h"
#include "util/error.h"

namespace di = desmine::io;
namespace dc = desmine::core;
namespace dr = desmine::robust;

namespace {

/// Temp file path that cleans up on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_csv_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

TEST(Csv, ParsesBasicSeries) {
  std::istringstream in("s1,s2\nON,idle\nOFF,busy\nON,idle\n");
  const auto series = di::parse_series_csv(in);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "s1");
  EXPECT_EQ(series[1].name, "s2");
  EXPECT_EQ(dc::series_length(series), 3u);
  EXPECT_EQ(series[0].events[1], "OFF");
  EXPECT_EQ(series[1].events[2], "idle");
}

TEST(Csv, SkipsTimestampColumn) {
  std::istringstream in(
      "timestamp,s1\n2017-11-01T00:00,ON\n2017-11-01T00:01,OFF\n");
  const auto series = di::parse_series_csv(in);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].name, "s1");
  EXPECT_EQ(series[0].events.size(), 2u);
}

TEST(Csv, HandlesQuotedFields) {
  std::istringstream in(
      "\"sensor, one\",s2\n\"status, 1\",\"say \"\"hi\"\"\"\n");
  const auto series = di::parse_series_csv(in);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "sensor, one");
  EXPECT_EQ(series[0].events[0], "status, 1");
  EXPECT_EQ(series[1].events[0], "say \"hi\"");
}

TEST(Csv, SkipsBlankLinesAndCarriageReturns) {
  std::istringstream in("s1\r\nON\r\n\r\nOFF\r\n");
  const auto series = di::parse_series_csv(in);
  EXPECT_EQ(series[0].events.size(), 2u);
}

TEST(Csv, RejectsRaggedRows) {
  std::istringstream in("s1,s2\nON\n");
  EXPECT_THROW(di::parse_series_csv(in), desmine::RuntimeError);
}

TEST(Csv, RejectsEmptyInput) {
  std::istringstream empty("");
  EXPECT_THROW(di::parse_series_csv(empty), desmine::RuntimeError);
  std::istringstream only_timestamp("timestamp\n1\n");
  EXPECT_THROW(di::parse_series_csv(only_timestamp), desmine::RuntimeError);
}

TEST(Csv, RoundTrip) {
  dc::MultivariateSeries series = {
      {"a,b", {"x", "y,z", "w\"q\""}},
      {"plain", {"1", "2", "3"}},
  };
  std::ostringstream out;
  di::write_series_csv(out, series);
  std::istringstream in(out.str());
  const auto back = di::parse_series_csv(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "a,b");
  EXPECT_EQ(back[0].events, series[0].events);
  EXPECT_EQ(back[1].events, series[1].events);
}

TEST(Csv, FileIoErrors) {
  EXPECT_THROW(di::read_series_csv("/nonexistent/dir/x.csv"),
               desmine::RuntimeError);
  EXPECT_THROW(
      di::write_series_csv("/nonexistent/dir/x.csv", dc::MultivariateSeries{}),
      desmine::RuntimeError);
}

TEST(Csv, StripsUtf8BomFromHeader) {
  std::istringstream in("\xEF\xBB\xBFs1,s2\nON,idle\n");
  const auto series = di::parse_series_csv(in);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "s1");
  EXPECT_EQ(series[0].events[0], "ON");
}

TEST(Csv, MissingTrailingNewlineStillParsesLastRow) {
  std::istringstream in("s1,s2\nON,idle\nOFF,busy");
  const auto series = di::parse_series_csv(in);
  EXPECT_EQ(dc::series_length(series), 2u);
  EXPECT_EQ(series[1].events[1], "busy");
}

TEST(Csv, CrlfWithQuotedEmbeddedCommasAndQuotes) {
  std::istringstream in(
      "\xEF\xBB\xBFtimestamp,\"s,1\",s2\r\n"
      "t0,\"a,b\",\"say \"\"hi\"\"\"\r\n"
      "t1,plain,\"\"\r\n");
  const auto series = di::parse_series_csv(in);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "s,1");
  EXPECT_EQ(series[0].events[0], "a,b");
  EXPECT_EQ(series[1].events[0], "say \"hi\"");
  EXPECT_EQ(series[1].events[1], "");
}

TEST(Csv, SkipModeDropsMalformedTicks) {
  std::istringstream in("s1,s2\nON,idle\nBAD\nOFF,busy\nA,B,C\nON,idle\n");
  di::CsvOptions opts;
  opts.on_bad_row = di::OnBadRow::kSkip;
  di::CsvReport report;
  const auto series = di::parse_series_csv(in, opts, &report);
  EXPECT_EQ(dc::series_length(series), 3u);  // both bad ticks gone
  EXPECT_EQ(report.rows_total, 5u);
  EXPECT_EQ(report.rows_ok, 3u);
  EXPECT_EQ(report.rows_bad, 2u);
  EXPECT_EQ(report.bad_row_numbers, (std::vector<std::size_t>{3, 5}));
  EXPECT_TRUE(report.missing_ticks.empty());  // skip mode keeps no holes
}

TEST(Csv, QuarantineModeKeepsTicksAndJournalsRows) {
  TempFile journal("quarantine.jsonl");
  std::istringstream in("s1,s2\nON,idle\nBAD\nOFF,busy\n");
  di::CsvOptions opts;
  opts.on_bad_row = di::OnBadRow::kQuarantine;
  opts.quarantine_path = journal.path;
  di::CsvReport report;
  const auto series = di::parse_series_csv(in, opts, &report);

  // The tick survives with empty cells, so the timeline stays aligned.
  ASSERT_EQ(dc::series_length(series), 3u);
  EXPECT_EQ(series[0].events[1], "");
  EXPECT_EQ(series[1].events[1], "");
  EXPECT_EQ(report.missing_ticks, (std::vector<std::size_t>{1}));
  EXPECT_EQ(report.rows_bad, 1u);

  // Journal: one self-checksummed JSON record per quarantined row.
  const auto lines = read_lines(journal.path);
  ASSERT_EQ(lines.size(), 1u);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(desmine::obs::parse_flat_json(lines[0], fields));
  EXPECT_EQ(fields.at("row"), "3");
  EXPECT_EQ(fields.at("expected_fields"), "2");
  EXPECT_EQ(fields.at("got_fields"), "1");
  EXPECT_EQ(fields.at("line"), "BAD");
  EXPECT_EQ(fields.at("crc32"),
            std::to_string(desmine::util::crc32("BAD")));
}

TEST(Csv, QuarantineWithoutPathCountsButDoesNotJournal) {
  std::istringstream in("s1\nON\nBAD,ROW\nOFF\n");
  di::CsvOptions opts;
  opts.on_bad_row = di::OnBadRow::kQuarantine;
  di::CsvReport report;
  const auto series = di::parse_series_csv(in, opts, &report);
  EXPECT_EQ(dc::series_length(series), 3u);
  EXPECT_EQ(report.missing_ticks, (std::vector<std::size_t>{1}));
}

TEST(Csv, MaxBadRowsOverflowAborts) {
  std::istringstream in("s1,s2\nBAD\nBAD\nBAD\nOK,OK\n");
  di::CsvOptions opts;
  opts.on_bad_row = di::OnBadRow::kSkip;
  opts.max_bad_rows = 2;
  EXPECT_THROW(di::parse_series_csv(in, opts), desmine::RuntimeError);
}

TEST(Csv, StrictModeIgnoresMaxBadRows) {
  // kThrow aborts on the first malformed row regardless of the budget.
  std::istringstream in("s1,s2\nBAD\n");
  di::CsvOptions opts;
  opts.max_bad_rows = 100;
  EXPECT_THROW(di::parse_series_csv(in, opts), desmine::RuntimeError);
}

TEST(Csv, InjectedRowFaultTreatsRowAsMalformed) {
  auto& injector = dr::FaultInjector::instance();
  injector.clear();
  injector.arm("csv.row", 3, dr::FaultAction::kDrop, 1);
  std::istringstream in("s1,s2\nON,idle\nOFF,busy\nON,idle\n");
  di::CsvOptions opts;
  opts.on_bad_row = di::OnBadRow::kSkip;
  di::CsvReport report;
  const auto series = di::parse_series_csv(in, opts, &report);
  injector.clear();
  // Row 3 (the second data row) was forced malformed and skipped.
  EXPECT_EQ(dc::series_length(series), 2u);
  EXPECT_EQ(report.bad_row_numbers, (std::vector<std::size_t>{3}));
  EXPECT_EQ(series[0].events, (dc::EventSequence{"ON", "ON"}));
}

TEST(Csv, InjectedRowFaultCanThrow) {
  auto& injector = dr::FaultInjector::instance();
  injector.clear();
  injector.arm("csv.row", 2, dr::FaultAction::kThrow, 1);
  std::istringstream in("s1\nON\n");
  EXPECT_THROW(di::parse_series_csv(in, di::CsvOptions{}),
               desmine::RuntimeError);
  injector.clear();
}

TEST(Csv, TenThousandRowMalformedCorpusSmoke) {
  // Generated corpus: every 7th row is ragged. Quarantine mode must absorb
  // all of it, keep the timeline aligned, and journal every bad row.
  TempFile journal("smoke.jsonl");
  std::ostringstream gen;
  gen << "s1,s2\n";
  std::size_t expected_bad = 0;
  for (std::size_t r = 0; r < 10000; ++r) {
    if (r % 7 == 3) {
      gen << "only_one_field\n";
      ++expected_bad;
    } else {
      gen << (r % 2 == 0 ? "ON" : "OFF") << ",v" << r % 5 << "\n";
    }
  }
  std::istringstream in(gen.str());
  di::CsvOptions opts;
  opts.on_bad_row = di::OnBadRow::kQuarantine;
  opts.max_bad_rows = 10000;
  opts.quarantine_path = journal.path;
  di::CsvReport report;
  const auto series = di::parse_series_csv(in, opts, &report);

  EXPECT_EQ(report.rows_total, 10000u);
  EXPECT_EQ(report.rows_bad, expected_bad);
  EXPECT_EQ(report.rows_ok, 10000u - expected_bad);
  EXPECT_EQ(dc::series_length(series), 10000u);  // every tick preserved
  EXPECT_EQ(report.missing_ticks.size(), expected_bad);
  const auto lines = read_lines(journal.path);
  ASSERT_EQ(lines.size(), expected_bad);
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(desmine::obs::parse_flat_json(lines.back(), fields));
  EXPECT_EQ(fields.at("line"), "only_one_field");
}
