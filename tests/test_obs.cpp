// Unit tests for desmine::obs — logger level filtering and sinks, metrics
// correctness under concurrent writers, span nesting, and JSON export.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace obs = desmine::obs;
namespace du = desmine::util;

namespace {

/// Collects records in memory so tests can assert on what got through.
class CaptureSink : public obs::Sink {
 public:
  void write(const obs::LogRecord& record) override {
    records.push_back(record);
  }
  std::vector<obs::LogRecord> records;
};

/// Minimal recursive-descent JSON validity checker (no value semantics —
/// just "would a real parser accept this"). Lets the export tests assert
/// round-trippable output without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // {
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // [
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string_view want(lit);
    if (s_.compare(pos_, want.size(), want) != 0) return false;
    pos_ += want.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Restores the global logger to its default state when a test exits.
class LoggerGuard {
 public:
  ~LoggerGuard() {
    obs::logger().set_level(obs::Level::kInfo);
    obs::logger().set_sink(std::make_shared<obs::StderrSink>());
  }
};

}  // namespace

// ---------------------------------------------------------------- json -----

TEST(Json, WriterProducesValidDocuments) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("name").value("de\"smine\n");
  w.key("pi").value(3.25);
  w.key("n").value(std::uint64_t{42});
  w.key("flag").value(true);
  w.key("nothing").null();
  w.key("items").begin_array().value(1.0).value(2.0).end_array();
  w.key("nested").begin_object().key("x").value(1.0).end_object();
  w.end_object();
  EXPECT_TRUE(JsonChecker(w.str()).valid()) << w.str();
  EXPECT_NE(w.str().find("\\\""), std::string::npos);
  EXPECT_NE(w.str().find("\\n"), std::string::npos);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::nan(""));
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, TreeDecodesUnicodeEscapesAsUtf8) {
  const obs::JsonValue v =
      obs::parse_json(R"({"cjk":"\u4e2d","emoji":"\ud83d\ude00","e":"\u00e9"})");
  EXPECT_EQ(v.find("cjk")->string, "\xe4\xb8\xad");
  EXPECT_EQ(v.find("emoji")->string, "\xf0\x9f\x98\x80");
  EXPECT_EQ(v.find("e")->string, "\xc3\xa9");
  EXPECT_THROW(obs::parse_json(R"(["\ud83d"])"), desmine::RuntimeError);
  EXPECT_THROW(obs::parse_json(R"(["\ude00"])"), desmine::RuntimeError);
}

TEST(Json, TreeRejectsNumbersOutsideTheGrammar) {
  for (const char* bad : {"01", "1.", ".5", "+1", "-", "1e", "1e+", "0x10",
                          "1abc", "[1,]", "{\"a\":1,}", "\"tab\there\""}) {
    EXPECT_THROW(obs::parse_json(bad), desmine::RuntimeError) << bad;
  }
  EXPECT_EQ(obs::parse_json("-0.5e+2").number, -50.0);
  EXPECT_EQ(obs::parse_json("0").number, 0.0);
  EXPECT_EQ(obs::parse_json("  [1E3 , true, null] ").array.at(0).number,
            1000.0);
}

TEST(Json, DeepNestingIsAParseErrorNotAStackOverflow) {
  // A million unclosed brackets used to recurse until the stack ran out.
  EXPECT_THROW(obs::parse_json(std::string(1000000, '[')),
               desmine::RuntimeError);
  std::string objects;
  for (int i = 0; i < 300000; ++i) objects += "{\"a\":";
  EXPECT_THROW(obs::parse_json(objects), desmine::RuntimeError);
  std::string nested = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(obs::parse_json(nested).is_array());
}

// ----------------------------------------------------------- flat JSON -----

TEST(FlatJson, ParsesTypicalRecord) {
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(obs::parse_flat_json(
      R"({"type":"pair","pair":3,"ok":true,"bleu":91.25,"error":"a \"b\"\nc"})",
      kv));
  EXPECT_EQ(kv.at("type"), "pair");
  EXPECT_EQ(kv.at("pair"), "3");
  EXPECT_EQ(kv.at("ok"), "true");
  EXPECT_EQ(kv.at("bleu"), "91.25");
  EXPECT_EQ(kv.at("error"), "a \"b\"\nc");
}

TEST(FlatJson, RejectsMalformedInput) {
  std::map<std::string, std::string> kv;
  EXPECT_FALSE(obs::parse_flat_json("", kv));
  EXPECT_FALSE(obs::parse_flat_json("not json", kv));
  EXPECT_FALSE(obs::parse_flat_json(R"({"type":"pair","pair":)", kv));
  EXPECT_FALSE(obs::parse_flat_json(R"({"unterminated":"str)", kv));
}

TEST(FlatJson, KeepsScalarLiteralsAsTheirText) {
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(obs::parse_flat_json(
      " {\"session\" : 12 ,\"ok\":true,\"no\":false,\"v\":null,"
      "\"x\":-1.5e3,\"s\":\"12\"}\r\n",
      kv));
  EXPECT_EQ(kv.at("session"), "12");
  EXPECT_EQ(kv.at("ok"), "true");
  EXPECT_EQ(kv.at("no"), "false");
  EXPECT_EQ(kv.at("v"), "null");
  EXPECT_EQ(kv.at("x"), "-1.5e3");
  EXPECT_EQ(kv.at("s"), "12");
  ASSERT_TRUE(obs::parse_flat_json("{}", kv));
  EXPECT_TRUE(kv.empty());
}

TEST(FlatJson, DecodesASurrogatePairToOneCodePoint) {
  std::map<std::string, std::string> kv;
  ASSERT_TRUE(obs::parse_flat_json(
      R"({"emoji":"\ud83d\ude00","cjk":"\u4e2d","raw":"中"})", kv));
  EXPECT_EQ(kv.at("emoji"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(kv.at("cjk"), "\xe4\xb8\xad");
  EXPECT_EQ(kv.at("cjk"), kv.at("raw"));
}

TEST(FlatJson, RejectsALoneSurrogate) {
  std::map<std::string, std::string> kv;
  EXPECT_FALSE(obs::parse_flat_json(R"({"s":"\ud83d"})", kv));
  EXPECT_FALSE(obs::parse_flat_json(R"({"s":"\ud83dx"})", kv));
  EXPECT_FALSE(obs::parse_flat_json(R"({"s":"\ud83d\u0041"})", kv));
  EXPECT_FALSE(obs::parse_flat_json(R"({"s":"\ude00"})", kv));
  EXPECT_FALSE(obs::parse_flat_json(R"({"s":"\ude00\ud83d"})", kv));
}

TEST(FlatJson, RejectsWhatTheGrammarRejectsAndLeavesTheMapEmpty) {
  for (const char* bad : {
           R"({"op":"ping"} x)",         // trailing text
           R"({"op":"ping"}{})",         // a second document
           R"({"session":1abc})",        // invalid number
           R"({"session":01})",
           R"({"session":1.})",
           R"({"session":+1})",
           R"({"ok":tru})",              // invalid literal
           R"({"ok":truex})",
           R"({"ok":yes})",
           R"({"a":{"b":"c"}})",         // nested object
           R"({"a":["b"]})",             // nested array
           R"({"a":"1","a":"2"})",       // duplicate key
           R"({"a":"\q"})",              // bad escape
           R"({"a":"\u12g4"})",
           "{\"a\":\"raw\ttab\"}",    // unescaped control character
           R"({"a":1,})",
           R"({a:1})",
           R"(["a","b"])",
       }) {
    std::map<std::string, std::string> kv{{"stale", "x"}};
    EXPECT_FALSE(obs::parse_flat_json(bad, kv)) << bad;
    EXPECT_TRUE(kv.empty()) << bad;
  }
}

TEST(FlatJson, ReportsTheLexersOffsetAndReason) {
  const struct {
    const char* text;
    std::size_t offset;
    const char* reason;
  } cases[] = {
      {R"({"a":"1","a":"2"})", 16, "duplicate key"},
      {R"({"a":{"b":"c"}})", 5, "nested value"},
      {R"({"ok":tru})", 6, "invalid literal"},
      {R"({"op":"ping"} x)", 14, "trailing characters after document"},
  };
  for (const auto& c : cases) {
    std::map<std::string, std::string> kv;
    obs::JsonError error;
    EXPECT_FALSE(obs::parse_flat_json(c.text, kv, &error)) << c.text;
    EXPECT_EQ(error.offset, c.offset) << c.text;
    EXPECT_EQ(error.reason, c.reason) << c.text;
  }
}

// -------------------------------------------------------------- logger -----

TEST(Logger, LevelFiltering) {
  LoggerGuard guard;
  auto sink = std::make_shared<CaptureSink>();
  obs::logger().set_sink(sink);
  obs::logger().set_level(obs::Level::kWarn);

  obs::logger().debug("below threshold");
  obs::logger().info("below threshold");
  obs::logger().warn("at threshold");
  obs::logger().error("above threshold");

  ASSERT_EQ(sink->records.size(), 2u);
  EXPECT_EQ(sink->records[0].message, "at threshold");
  EXPECT_EQ(sink->records[1].level, obs::Level::kError);

  obs::logger().set_level(obs::Level::kOff);
  obs::logger().error("dropped entirely");
  EXPECT_EQ(sink->records.size(), 2u);
}

TEST(Logger, MacrosRespectRuntimeLevel) {
  LoggerGuard guard;
  auto sink = std::make_shared<CaptureSink>();
  obs::logger().set_sink(sink);
  obs::logger().set_level(obs::Level::kInfo);

  DESMINE_LOG_DEBUG("filtered", {obs::kv("k", 1)});
  DESMINE_LOG_INFO("kept", {obs::kv("k", 2), obs::kv("s", "str")});

  ASSERT_EQ(sink->records.size(), 1u);
  EXPECT_EQ(sink->records[0].message, "kept");
  ASSERT_EQ(sink->records[0].fields.size(), 2u);
  EXPECT_EQ(sink->records[0].fields[0].key, "k");
  EXPECT_EQ(sink->records[0].fields[0].value, "2");
  EXPECT_EQ(sink->records[0].fields[1].value, "str");
}

TEST(Logger, KvFormatsTypes) {
  EXPECT_EQ(obs::kv("a", 3).value, "3");
  EXPECT_EQ(obs::kv("a", std::size_t{7}).value, "7");
  EXPECT_EQ(obs::kv("a", true).value, "true");
  EXPECT_EQ(obs::kv("a", "text").value, "text");
  EXPECT_EQ(obs::kv("a", 2.5).value, "2.5");
}

TEST(Logger, TextFormatContainsFields) {
  obs::LogRecord record;
  record.level = obs::Level::kWarn;
  record.message = "something happened";
  record.fields = {obs::kv("sensor", "s1"), obs::kv("v", 1.5),
                   obs::kv("note", "two words")};
  record.time = std::chrono::system_clock::now();

  const std::string line = obs::format_text(record);
  EXPECT_NE(line.find("WARN"), std::string::npos);
  EXPECT_NE(line.find("something happened"), std::string::npos);
  EXPECT_NE(line.find("sensor=s1"), std::string::npos);
  EXPECT_NE(line.find("v=1.5"), std::string::npos);
  // Values with spaces are quoted.
  EXPECT_NE(line.find("note=\"two words\""), std::string::npos);
}

TEST(Logger, JsonLinesSinkEmitsValidJson) {
  LoggerGuard guard;
  std::ostringstream out;
  obs::logger().set_sink(std::make_shared<obs::JsonLinesSink>(out));
  obs::logger().set_level(obs::Level::kDebug);
  obs::logger().debug("structured \"record\"",
                      {obs::kv("pair", 12), obs::kv("bleu", 86.5)});

  std::string line = out.str();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // trailing newline
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_NE(line.find("\"level\":\"debug\""), std::string::npos);
  EXPECT_NE(line.find("\"pair\":\"12\""), std::string::npos);
}

TEST(Logger, ConcurrentLoggingKeepsAllRecords) {
  LoggerGuard guard;
  auto sink = std::make_shared<CaptureSink>();
  obs::logger().set_sink(sink);
  obs::logger().set_level(obs::Level::kInfo);

  du::ThreadPool pool(4);
  pool.parallel_for(64, [](std::size_t i) {
    obs::logger().info("worker message", {obs::kv("i", i)});
  });
  EXPECT_EQ(sink->records.size(), 64u);
}

TEST(Logger, ParseLevelRoundTrip) {
  for (obs::Level l : {obs::Level::kTrace, obs::Level::kDebug,
                       obs::Level::kInfo, obs::Level::kWarn,
                       obs::Level::kError, obs::Level::kOff}) {
    EXPECT_EQ(obs::parse_level(obs::level_name(l)), l);
  }
  EXPECT_THROW(obs::parse_level("loud"), desmine::PreconditionError);
}

// ------------------------------------------------------------- metrics -----

TEST(Metrics, CounterUnderConcurrentWriters) {
  obs::Counter& c = obs::metrics().counter("test.counter.concurrent");
  c.reset();
  du::ThreadPool pool(8);
  pool.parallel_for(8, [&](std::size_t) {
    for (int i = 0; i < 10000; ++i) c.inc();
  });
  EXPECT_EQ(c.value(), 80000u);
}

TEST(Metrics, GaugeSetAndBalancedAdds) {
  obs::Gauge& g = obs::metrics().gauge("test.gauge.balanced");
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  du::ThreadPool pool(4);
  pool.parallel_for(32, [&](std::size_t) {
    for (int i = 0; i < 500; ++i) {
      g.add(1.0);
      g.add(-1.0);
    }
  });
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Metrics, HistogramBasics) {
  obs::Histogram& h = obs::metrics().histogram("test.hist.basics");
  h.reset();
  for (double v : {0.5, 1.0, 2.0, 4.0, 100.0}) h.record(v);

  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 107.5);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 21.5);
  // The p50 upper-bound estimate must bracket the true median (2.0).
  EXPECT_GE(snap.quantile(0.5), 2.0);
  EXPECT_LE(snap.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 100.0);
}

TEST(Metrics, HistogramQuantileInterpolation) {
  // A single-valued distribution must report that value at every quantile:
  // the estimate interpolates within the bucket and clamps to [min, max],
  // so it cannot drift to the bucket's upper bound (100 lands in the
  // (64, 128] bucket — the old upper-bound estimator answered 128).
  obs::Histogram single;
  for (int i = 0; i < 1000; ++i) single.record(100.0);
  const auto one = single.snapshot();
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(one.quantile(q), 100.0) << "q=" << q;
  }

  // Two bucket-separated values: interpolated quantiles stay inside each
  // value's own bucket and the endpoints are exact.
  obs::Histogram two;
  for (int i = 0; i < 50; ++i) two.record(2.0);
  for (int i = 0; i < 50; ++i) two.record(1000.0);
  const auto snap = two.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1000.0);
  EXPECT_LE(snap.quantile(0.25), obs::Histogram::bucket_upper(
                                     obs::Histogram::bucket_of(2.0)));
  EXPECT_GE(snap.quantile(0.25), snap.min);
  EXPECT_GT(snap.quantile(0.95), obs::Histogram::bucket_upper(
                                     obs::Histogram::bucket_of(2.0)));
  EXPECT_LE(snap.quantile(0.95), snap.max);
}

TEST(Metrics, HistogramBucketsMonotonic) {
  for (std::size_t b = 1; b + 1 < obs::Histogram::kBuckets; ++b) {
    EXPECT_LT(obs::Histogram::bucket_upper(b - 1),
              obs::Histogram::bucket_upper(b));
    // A value at a bucket's upper bound lands in that bucket.
    EXPECT_EQ(obs::Histogram::bucket_of(obs::Histogram::bucket_upper(b)), b);
  }
  EXPECT_EQ(obs::Histogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0u);
}

TEST(Metrics, HistogramUnderConcurrentWriters) {
  obs::Histogram& h = obs::metrics().histogram("test.hist.concurrent");
  h.reset();
  constexpr int kPerTask = 1000;
  du::ThreadPool pool(8);
  pool.parallel_for(16, [&](std::size_t t) {
    for (int i = 0; i < kPerTask; ++i) {
      h.record(static_cast<double>(t + 1));
    }
  });
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 16u * kPerTask);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 16.0);
  double expected_sum = 0.0;
  for (int t = 1; t <= 16; ++t) expected_sum += t * kPerTask;
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
}

TEST(Metrics, RegistryReturnsStableInstances) {
  obs::Counter& a = obs::metrics().counter("test.registry.same");
  obs::Counter& b = obs::metrics().counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, JsonDumpIsValidAndNamed) {
  obs::metrics().counter("test.dump.counter").inc(2);
  obs::metrics().gauge("test.dump.gauge").set(1.5);
  obs::metrics().histogram("test.dump.hist").record(3.0);

  const std::string json = obs::metrics().to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.dump.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.dump.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.dump.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);

  const std::string text = obs::metrics().to_text();
  EXPECT_NE(text.find("test.dump.counter"), std::string::npos);
  EXPECT_NE(text.find("test.dump.hist"), std::string::npos);
}

TEST(Metrics, ThreadPoolReportsQueueMetrics) {
  obs::MetricsRegistry& m = obs::metrics();
  const std::uint64_t submitted_before =
      m.counter("threadpool.tasks_submitted").value();
  const std::uint64_t completed_before =
      m.counter("threadpool.tasks_completed").value();
  {
    du::ThreadPool pool(2);
    pool.parallel_for(32, [](std::size_t) {});
  }
  EXPECT_EQ(m.counter("threadpool.tasks_submitted").value(),
            submitted_before + 32);
  EXPECT_EQ(m.counter("threadpool.tasks_completed").value(),
            completed_before + 32);
  EXPECT_DOUBLE_EQ(m.gauge("threadpool.queue_depth").value(), 0.0);
  EXPECT_GE(m.histogram("threadpool.queue_wait_us").snapshot().count, 32u);
}

// --------------------------------------------------------------- trace -----

namespace {

const obs::SpanRecord& find_span(const std::vector<obs::SpanRecord>& records,
                                 const std::string& name) {
  for (const auto& r : records) {
    if (r.name == name) return r;
  }
  ADD_FAILURE() << "span not found: " << name;
  static obs::SpanRecord missing;
  return missing;
}

}  // namespace

TEST(Trace, DisabledTracerRecordsNothing) {
  obs::tracer().disable();
  obs::tracer().reset();
  {
    obs::Span outer("outer");
    EXPECT_FALSE(outer.active());
  }
  EXPECT_TRUE(obs::tracer().records().empty());
}

TEST(Trace, SpansNestOnOneThread) {
  obs::tracer().reset();
  obs::tracer().enable();
  {
    obs::Span root("root");
    {
      obs::Span child("child", {obs::kv("k", "v")});
      { obs::Span grandchild("grandchild"); }
    }
    { obs::Span sibling("sibling"); }
  }
  obs::tracer().disable();

  const auto records = obs::tracer().records();
  ASSERT_EQ(records.size(), 4u);
  const auto& root = find_span(records, "root");
  const auto& child = find_span(records, "child");
  const auto& grandchild = find_span(records, "grandchild");
  const auto& sibling = find_span(records, "sibling");

  EXPECT_EQ(root.parent, obs::SpanRecord::kNoParent);
  EXPECT_EQ(records[child.parent].name, "root");
  EXPECT_EQ(records[grandchild.parent].name, "child");
  EXPECT_EQ(records[sibling.parent].name, "root");
  ASSERT_EQ(child.attrs.size(), 1u);
  EXPECT_EQ(child.attrs[0].key, "k");

  // Children are contained in their parent's interval.
  EXPECT_GE(child.start_ns, root.start_ns);
  EXPECT_LE(child.end_ns, root.end_ns);
  EXPECT_GE(grandchild.start_ns, child.start_ns);
  EXPECT_LE(grandchild.end_ns, child.end_ns);
}

TEST(Trace, AnnotateAttachesFieldsOnClose) {
  obs::tracer().reset();
  obs::tracer().enable();
  {
    obs::Span span("annotated");
    span.annotate(obs::kv("bleu", 91.25));
  }
  obs::tracer().disable();
  const auto records = obs::tracer().records();
  const auto& span = find_span(records, "annotated");
  ASSERT_EQ(span.attrs.size(), 1u);
  EXPECT_EQ(span.attrs[0].key, "bleu");
}

TEST(Trace, PoolWorkerSpansCarryTheirThread) {
  obs::tracer().reset();
  obs::tracer().enable();
  {
    obs::Span root("root");
    du::ThreadPool pool(2);
    pool.parallel_for(4, [](std::size_t i) {
      obs::Span work("work", {obs::kv("i", i)});
    });
  }
  obs::tracer().disable();

  const auto records = obs::tracer().records();
  ASSERT_EQ(records.size(), 5u);
  const auto& root = find_span(records, "root");
  for (const auto& r : records) {
    if (r.name != "work") continue;
    // Pool workers run on other threads; their spans are roots of those
    // threads' tracks, not children of "root".
    EXPECT_NE(r.thread_id, root.thread_id);
    EXPECT_EQ(r.parent, obs::SpanRecord::kNoParent);
  }
}

TEST(Trace, ExportsAreValidJson) {
  obs::tracer().reset();
  obs::tracer().enable();
  {
    obs::Span root("fit");
    { obs::Span child("encrypt", {obs::kv("sensors", 17)}); }
    { obs::Span child("mine"); }
  }
  obs::tracer().disable();

  const std::string chrome = obs::tracer().to_chrome_json();
  EXPECT_TRUE(JsonChecker(chrome).valid()) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"fit\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);

  const std::string tree = obs::tracer().to_tree_json();
  EXPECT_TRUE(JsonChecker(tree).valid()) << tree;
  // "encrypt" and "mine" nest under "fit" in the tree.
  const auto fit_pos = tree.find("\"fit\"");
  const auto children_pos = tree.find("\"children\"", fit_pos);
  const auto encrypt_pos = tree.find("\"encrypt\"", fit_pos);
  EXPECT_NE(children_pos, std::string::npos);
  EXPECT_NE(encrypt_pos, std::string::npos);
  EXPECT_LT(children_pos, encrypt_pos);
}

TEST(Trace, ScopedTimerFeedsPhaseHistogram) {
  obs::Histogram& h = obs::metrics().histogram("phase.test-phase.wall_ms");
  h.reset();
  { obs::ScopedTimer timer("test-phase"); }
  { obs::ScopedTimer timer("test-phase"); }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_GE(snap.sum, 0.0);
}
