#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/error.hpp"

namespace bgl {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(to_lower("123AbC"), "123abc");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  const auto fields = split_ws("  a \t b\n c  ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b");
  EXPECT_EQ(fields[2], "c");
}

TEST(Strings, SplitWsEmptyInput) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   \t ").empty());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("; MaxProcs: 128", ";"));
  EXPECT_FALSE(starts_with("x", "xy"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_FALSE(parse_int("42x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-1").value(), -1.0);
  EXPECT_FALSE(parse_double("1.2.3").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Strings, RequireFlagValuesAreStrictAndFinite) {
  EXPECT_EQ(require_int("--jobs", "12"), 12);
  EXPECT_DOUBLE_EQ(require_double("--alpha", "0.25"), 0.25);
  EXPECT_THROW(require_int("--jobs", "1.5"), ConfigError);
  EXPECT_THROW(require_double("--alpha", "banana"), ConfigError);
  for (const char* token : {"nan", "inf", "-inf", "NaN", "infinity"}) {
    try {
      require_double("--alpha", token);
      ADD_FAILURE() << token << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--alpha"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos);
    }
  }
}

TEST(Strings, RequireIntRangeRefusesInsteadOfWrapping) {
  EXPECT_EQ(require_int("--max-conns", "1", 1, 8), 1);
  EXPECT_EQ(require_int("--max-conns", "8", 1, 8), 8);
  // 2^32 + 1 narrows to 1 through static_cast<int>; the range check must
  // see the wide value first.
  for (const char* token : {"0", "9", "-8", "4294967297", "x"}) {
    try {
      require_int("--max-conns", token, 1, 8);
      ADD_FAILURE() << token << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("--max-conns"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos);
    }
  }
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(0.0), "00:00:00");
  EXPECT_EQ(format_duration(3661.0), "01:01:01");
  EXPECT_EQ(format_duration(2.0 * 86400.0 + 3600.0), "2d 01:00:00");
}

}  // namespace
}  // namespace bgl
