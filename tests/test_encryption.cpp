// Tests for sensor encryption (§II-A1): sequence filtering, alphanumeric
// letter assignment, unknown-state handling, and the per-kept-index letter
// lookup streaming ingest uses.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/encryption.h"
#include "core/event.h"
#include "util/error.h"

namespace dc = desmine::core;

namespace {

dc::MultivariateSeries sample_series() {
  return {
      {"s1", {"ON", "OFF", "ON", "OFF"}},
      {"s2", {"idle", "idle", "idle", "idle"}},  // constant -> dropped
      {"s3", {"status 2", "status 1", "status 3", "status 1"}},
  };
}

}  // namespace

TEST(Encryption, ConstantSensorsDropped) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  EXPECT_EQ(enc.kept_sensors().size(), 2u);
  EXPECT_EQ(enc.dropped_sensors().size(), 1u);
  EXPECT_EQ(enc.dropped_sensors()[0], "s2");
  EXPECT_TRUE(enc.keeps("s1"));
  EXPECT_FALSE(enc.keeps("s2"));
}

TEST(Encryption, AlphanumericLetterAssignment) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  // s1 states sorted: OFF < ON -> OFF='a', ON='b'.
  EXPECT_EQ(enc.encode("s1", {"ON", "OFF"}), "ba");
  // s3 states sorted: "status 1" < "status 2" < "status 3".
  EXPECT_EQ(enc.encode("s3", {"status 1", "status 2", "status 3"}), "abc");
}

TEST(Encryption, CardinalityReported) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  EXPECT_EQ(enc.cardinality("s1"), 2u);
  EXPECT_EQ(enc.cardinality("s3"), 3u);
  EXPECT_THROW(enc.cardinality("s2"), desmine::PreconditionError);
}

TEST(Encryption, UnknownStatesMapToUnknownChar) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  const std::string out = enc.encode("s1", {"ON", "BROKEN", "OFF"});
  EXPECT_EQ(out, std::string("b") + dc::SensorEncrypter::kUnknownChar + "a");
}

TEST(Encryption, TokenHasSensorPrefix) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  EXPECT_EQ(enc.token("s1", "OFF"), "s1.a");
  EXPECT_EQ(enc.token("s1", "ON"), "s1.b");
  EXPECT_EQ(enc.token("s1", "???"),
            std::string("s1.") + dc::SensorEncrypter::kUnknownChar);
}

TEST(Encryption, EncodeAllAlignsWithKeptSensors) {
  const auto series = sample_series();
  const auto enc = dc::SensorEncrypter::fit(series);
  const auto all = enc.encode_all(series);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].size(), 4u);
  EXPECT_EQ(all[0], "baba");
}

TEST(Encryption, EncodeAllMissingSensorThrows) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  dc::MultivariateSeries partial = {{"s1", {"ON"}}};
  EXPECT_THROW(enc.encode_all(partial), desmine::PreconditionError);
}

TEST(Encryption, DroppedSensorEncodeThrows) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  EXPECT_THROW(enc.encode("s2", {"idle"}), desmine::PreconditionError);
  EXPECT_THROW(enc.encode("ghost", {"x"}), desmine::PreconditionError);
}

TEST(Encryption, CardinalityBeyondAlphabetThrows) {
  dc::SensorSeries wide;
  wide.name = "wide";
  for (int i = 0; i < 30; ++i) {
    wide.events.push_back("state" + std::to_string(i));
  }
  EXPECT_THROW(dc::SensorEncrypter::fit({wide}), desmine::PreconditionError);
}

TEST(Encryption, EmptySeriesDropsEverything) {
  const auto enc = dc::SensorEncrypter::fit({{"e", {}}});
  EXPECT_TRUE(enc.kept_sensors().empty());
  EXPECT_EQ(enc.dropped_sensors().size(), 1u);
}

TEST(Encryption, LetterByKeptIndexMatchesEncode) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  ASSERT_EQ(enc.kept_sensors(), (std::vector<std::string>{"s1", "s3"}));
  for (std::size_t k = 0; k < enc.kept_sensors().size(); ++k) {
    const std::string& name = enc.kept_sensors()[k];
    for (const std::string state :
         {"ON", "OFF", "status 1", "status 3", "idle", "", "BROKEN"}) {
      EXPECT_EQ(enc.letter(k, state), enc.encode(name, {state}).front())
          << name << " " << state;
    }
  }
  EXPECT_EQ(enc.letter(0, "BROKEN"), dc::SensorEncrypter::kUnknownChar);
  EXPECT_EQ(enc.letter(1, "status 2"), 'b');
}

TEST(Encryption, RebuiltEncrypterKeepsOrderAndRejectsARepeatedSensor) {
  const auto enc = dc::SensorEncrypter::fit(sample_series());
  std::vector<dc::SensorEncrypter::Encoding> tables = {enc.encoding("s3"),
                                                       enc.encoding("s1")};
  const auto rebuilt = dc::SensorEncrypter::from_encodings(tables, {"s2"});
  EXPECT_EQ(rebuilt.kept_sensors(), (std::vector<std::string>{"s3", "s1"}));
  EXPECT_EQ(rebuilt.letter(0, "status 3"), 'c');
  EXPECT_EQ(rebuilt.letter(1, "ON"), 'b');
  EXPECT_EQ(rebuilt.encode("s1", {"OFF", "ON"}), "ab");
  tables.push_back(enc.encoding("s1"));
  EXPECT_THROW(dc::SensorEncrypter::from_encodings(tables, {}),
               desmine::PreconditionError);
}

// --------------------------------------------------------- event helpers ---

TEST(Event, SliceClampsBounds) {
  dc::MultivariateSeries series = {{"a", {"x", "y", "z"}}};
  const auto s = dc::slice(series, 1, 10);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].events.size(), 2u);
  EXPECT_EQ(s[0].events[0], "y");
  const auto empty = dc::slice(series, 5, 9);
  EXPECT_TRUE(empty[0].events.empty());
}

TEST(Event, SeriesLengthChecksAgreement) {
  dc::MultivariateSeries ok = {{"a", {"x", "y"}}, {"b", {"p", "q"}}};
  EXPECT_EQ(dc::series_length(ok), 2u);
  dc::MultivariateSeries bad = {{"a", {"x"}}, {"b", {"p", "q"}}};
  EXPECT_THROW(dc::series_length(bad), desmine::PreconditionError);
  EXPECT_EQ(dc::series_length({}), 0u);
}
