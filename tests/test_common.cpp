// Tests for the common utilities: tables/CSV, flag parsing, logging
// levels, and notation helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/types.hpp"

namespace lagover {
namespace {

TEST(TableTest, AlignedRendering) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 12345 |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.column_count(), 2u);
}

TEST(TableTest, CsvEscapesSpecialCells) {
  Table table({"a", "b"});
  table.add_row({"plain", "with,comma"});
  table.add_row({"quote\"inside", "multi\nline"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
}

TEST(TableTest, RowArityEnforced) {
  Table table({"one", "two"});
  EXPECT_DEATH(table.add_row({"only-one"}), "precondition");
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_pair(1.0, 2.5, 1), "1.0 / 2.5");
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",      "--peers=120", "--trials", "7",
                        "positional", "--verbose"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.get_int("peers", 0), 120);
  EXPECT_EQ(flags.get_int("trials", 0), 7);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.has("peers"));
  EXPECT_FALSE(flags.has("absent"));
  EXPECT_EQ(flags.get_int("absent", 42), 42);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, DoublesAndStrings) {
  const char* argv[] = {"prog", "--rate=0.25", "--name", "bench"};
  Flags flags(4, argv);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 0.25);
  EXPECT_EQ(flags.get_string("name", ""), "bench");
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 1.5), 1.5);
}

TEST(FlagsTest, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false"};
  Flags flags(5, argv);
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(FlagsTest, MalformedNumbersAreUsageErrors) {
  const char* argv[] = {"prog", "--peers", "abc", "--rate=0.5x", "--seed="};
  Flags flags(5, argv);
  EXPECT_THROW(flags.get_int("peers", 0), InvalidArgument);
  EXPECT_THROW(flags.get_double("rate", 0.0), InvalidArgument);
  EXPECT_THROW(flags.get_int("seed", 1), InvalidArgument);
  const char* big[] = {"prog", "--big=99999999999999999999"};
  EXPECT_THROW(Flags(2, big).get_int("big", 0), InvalidArgument);
  try {
    flags.get_int("peers", 0);
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "--peers expects an integer, got 'abc'");
  }
}

TEST(FlagsTest, ListsUnknownNames) {
  const char* argv[] = {"prog", "--peers=3", "--zeta", "--alpha=1", "pos"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.unknown({"peers"}),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_TRUE(flags.unknown({"alpha", "peers", "zeta"}).empty());
}

TEST(FlagsTest, ParseUintTakesOnlyDigitsInRange) {
  EXPECT_EQ(parse_uint("0", 10, "<n>"), 0u);
  EXPECT_EQ(parse_uint("42", 42, "<n>"), 42u);
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(parse_uint("18446744073709551615", kMax, "<n>"), kMax);
  for (const char* bad : {"", "-5x", "-1", "+5", " 5", "5 ", "0x10", "3x",
                          "18446744073709551616", "43"})
    EXPECT_THROW(parse_uint(bad, 42, "<n>"), InvalidArgument) << bad;
  try {
    parse_uint("abc", 7, "<node>");
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(),
                 "<node> expects an integer in [0, 7], got 'abc'");
  }
}

TEST(FlagsDeathTest, ReadFlagsOrExitGivesUsageAndStatusTwo) {
  const char* unknown[] = {"prog", "--seed=3", "--bogus"};
  const char* malformed[] = {"prog", "--seed=abc"};
  const auto read = [](const Flags& flags) { return flags.get_int("seed", 1); };
  EXPECT_EXIT(read_flags_or_exit(3, unknown, {{"seed", "S"}}, read),
              testing::ExitedWithCode(2),
              "unknown flag --bogus\nusage: prog");
  EXPECT_EXIT(read_flags_or_exit(2, malformed, {{"seed", "S"}}, read),
              testing::ExitedWithCode(2), "--seed expects an integer");
  const char* good[] = {"prog", "--seed=3"};
  EXPECT_EQ(read_flags_or_exit(2, good, {{"seed", "S"}}, read), 3);
}

TEST(JsonTest, ScalarsSerialize) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::integer(-42).dump(), "-42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(JsonTest, EscapesStrings) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonTest, NestedStructures) {
  Json root = Json::object();
  Json list = Json::array();
  list.push_back(Json::integer(1)).push_back(Json::integer(2));
  root.set("name", Json::string("lagover"));
  root.set("values", std::move(list));
  root.set("empty", Json::array());
  EXPECT_EQ(root.dump(),
            "{\"name\":\"lagover\",\"values\":[1,2],\"empty\":[]}");
  // Overwriting a key keeps insertion order.
  root.set("name", Json::string("v2"));
  EXPECT_EQ(root.dump(), "{\"name\":\"v2\",\"values\":[1,2],\"empty\":[]}");
}

TEST(JsonTest, PrettyPrintIndents) {
  Json root = Json::object();
  root.set("k", Json::integer(1));
  EXPECT_EQ(root.dump_pretty(), "{\n  \"k\": 1\n}");
}

TEST(JsonParseTest, RoundTripsEveryKind) {
  Json root = Json::object();
  root.set("null", Json::null());
  root.set("bool", Json::boolean(true));
  root.set("int", Json::integer(-7));
  root.set("num", Json::number(2.5));
  root.set("str", Json::string("a\"b\nc"));
  Json list = Json::array();
  list.push_back(Json::integer(1)).push_back(Json::string("x"));
  root.set("list", std::move(list));
  Json parsed;
  ASSERT_TRUE(Json::parse(root.dump(), parsed));
  EXPECT_EQ(parsed.dump(), root.dump());
  EXPECT_TRUE(parsed.find("null")->is_null());
  EXPECT_TRUE(parsed.find("bool")->as_bool());
  EXPECT_EQ(parsed.find("int")->as_int(), -7);
  EXPECT_DOUBLE_EQ(parsed.find("num")->as_number(), 2.5);
  EXPECT_EQ(parsed.find("str")->as_string(), "a\"b\nc");
  EXPECT_EQ(parsed.find("list")->size(), 2u);
  EXPECT_EQ(parsed.find("list")->at(0).as_int(), 1);
  EXPECT_EQ(parsed.find("missing"), nullptr);
}

TEST(JsonParseTest, AsIntRangeChecksNonIntegerNumbers) {
  // A non-integer number truncates toward zero inside [-2^63, 2^63) and
  // yields the fallback outside it, where the cast would be undefined.
  const char* const text = R"({"frac": -2.75, "exp": 1e3, "big": 1e300,
      "neg": -1e300, "inf": 1e400, "top": 9223372036854775808,
      "bottom": -9.223372036854775808e18})";
  Json parsed;
  ASSERT_TRUE(Json::parse(text, parsed));
  EXPECT_EQ(parsed.find("frac")->as_int(42), -2);
  EXPECT_EQ(parsed.find("exp")->as_int(42), 1000);
  EXPECT_EQ(parsed.find("big")->as_int(42), 42);
  EXPECT_EQ(parsed.find("neg")->as_int(42), 42);
  EXPECT_EQ(parsed.find("inf")->as_int(42), 42);
  // 2^63 overflows strtoll, so it is read as a double: one past the range.
  EXPECT_FALSE(parsed.find("top")->is_integer());
  EXPECT_EQ(parsed.find("top")->as_int(42), 42);
  // -2^63 is the range's lower edge and converts exactly.
  EXPECT_EQ(parsed.find("bottom")->as_int(42),
            std::numeric_limits<std::int64_t>::min());
}

TEST(JsonParseTest, AcceptsEscapesAndUnicode) {
  Json parsed;
  ASSERT_TRUE(Json::parse(R"("A\t\u00e9")", parsed));
  EXPECT_EQ(parsed.as_string(),
            "A\t\xc3\xa9");  // é decodes to UTF-8 e-acute
}

TEST(JsonParseTest, RejectsMalformedInput) {
  Json parsed;
  std::string error;
  EXPECT_FALSE(Json::parse("", parsed, &error));
  EXPECT_FALSE(Json::parse("{", parsed, &error));
  EXPECT_FALSE(Json::parse("[1,]", parsed, &error));
  EXPECT_FALSE(Json::parse("{\"a\":1} trailing", parsed, &error));
  EXPECT_FALSE(Json::parse("\"unterminated", parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(JsonParseTest, LenientAccessorsFallBack) {
  Json parsed;
  ASSERT_TRUE(Json::parse("{\"s\":\"text\"}", parsed));
  const Json* s = parsed.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->as_number(2.0), 2.0);  // kind mismatch -> fallback
  EXPECT_FALSE(s->as_bool(false));
}

TEST(TableTest, JsonFormContainsHeaderAndRows) {
  Table table({"a", "b"});
  table.add_row({"x", "1"});
  const std::string json = table.to_json();
  EXPECT_NE(json.find("\"header\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"x\""), std::string::npos);
}

TEST(LoggingTest, LevelsGateOutput) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kError);
  EXPECT_FALSE(logger.enabled(LogLevel::kDebug));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  logger.set_level(LogLevel::kTrace);
  EXPECT_TRUE(logger.enabled(LogLevel::kDebug));
  logger.set_level(original);
}

TEST(LoggingTest, DirectCallWithOffLevelEmitsNothing) {
  // kOff is a threshold, not an emission level: enabled(kOff) is
  // trivially true at any threshold, so log(kOff, ...) must be
  // suppressed by its own check rather than printed as "[off]".
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kTrace);
  testing::internal::CaptureStderr();
  logger.log(LogLevel::kOff, "must not appear");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(err.empty()) << err;
  logger.set_level(original);
}

TEST(LoggingTest, EmittedLinesCarrySimAndWallPrefix) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  logger.set_level(LogLevel::kInfo);
  telemetry::note_sim_time(42.5);
  testing::internal::CaptureStderr();
  logger.log(LogLevel::kInfo, "payload %d", 7);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[t=42.50 w="), std::string::npos) << err;
  EXPECT_NE(err.find("info] payload 7"), std::string::npos) << err;
  logger.set_level(original);
  telemetry::note_sim_time(0.0);
}

TEST(LoggingTest, RoutesThroughLogBusWhenTelemetryEnabled) {
  Logger& logger = Logger::instance();
  const LogLevel original = logger.level();
  const bool telemetry_was_on = telemetry::enabled();
  logger.set_level(LogLevel::kInfo);
  telemetry::set_enabled(true);
  std::vector<std::string> seen;
  const auto sub = telemetry::log_bus().subscribe(
      [&](const telemetry::LogRecord& record) {
        seen.push_back(record.message);
      });
  testing::internal::CaptureStderr();
  logger.log(LogLevel::kInfo, "bus line");
  logger.log(LogLevel::kDebug, "below threshold");  // not emitted
  testing::internal::GetCapturedStderr();
  telemetry::log_bus().unsubscribe(sub);
  telemetry::set_enabled(telemetry_was_on);
  logger.set_level(original);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "bus line");
}

TEST(LoggingTest, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::kWarn);
}

TEST(TypesTest, NotationMatchesPaper) {
  EXPECT_EQ(to_notation(NodeSpec{3, Constraints{2, 4}}), "3_2^4");
  EXPECT_EQ(to_notation(NodeSpec{10, Constraints{0, 1}}), "10_0^1");
}

TEST(TypesTest, EnumNames) {
  EXPECT_EQ(to_string(AlgorithmKind::kGreedy), "greedy");
  EXPECT_EQ(to_string(AlgorithmKind::kHybrid), "hybrid");
  EXPECT_EQ(to_string(SourceMode::kPullOnly), "pull-only");
  EXPECT_EQ(to_string(SourceMode::kPush), "push");
  EXPECT_EQ(to_string(OracleKind::kRandomDelay), "Random-Delay");
}

}  // namespace
}  // namespace lagover
