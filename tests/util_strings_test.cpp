#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace mcdft::util {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n"), "");
}

TEST(Trim, NoWhitespaceIsIdentity) { EXPECT_EQ(Trim("abc"), "abc"); }

TEST(SplitFields, SplitsOnSpacesAndTabs) {
  auto f = SplitFields("R1  n1\tn2  10k");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0], "R1");
  EXPECT_EQ(f[3], "10k");
}

TEST(SplitFields, EmptyInputGivesNoFields) {
  EXPECT_TRUE(SplitFields("").empty());
  EXPECT_TRUE(SplitFields("   ").empty());
}

TEST(SplitFields, CustomDelimiters) {
  auto f = SplitFields("a,b;;c", ",;");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "b");
}

TEST(SplitKeepEmpty, KeepsEmptyPieces) {
  auto f = SplitKeepEmpty("a,,b", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[1], "");
}

TEST(SplitKeepEmpty, TrailingDelimiter) {
  auto f = SplitKeepEmpty("x,", ',');
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[1], "");
}

TEST(CaseFolding, LowerUpper) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("aBc1"), "ABC1");
}

TEST(CaseFolding, EqualsNoCase) {
  EXPECT_TRUE(EqualsNoCase("MEG", "meg"));
  EXPECT_FALSE(EqualsNoCase("MEG", "me"));
  EXPECT_FALSE(EqualsNoCase("MEG", "mex"));
}

TEST(CaseFolding, StartsWithNoCase) {
  EXPECT_TRUE(StartsWithNoCase("10MEGohm", "10meg"));
  EXPECT_FALSE(StartsWithNoCase("10k", "10meg"));
}

struct EngCase {
  const char* text;
  double value;
};

// Names each case by its text.  The default printer dumps the struct's
// bytes, and the pointer among them moves with the load address, so the
// CTest name of a case would change from one build to the next.
void PrintTo(const EngCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.text));
}

class ParseEngineeringTest : public ::testing::TestWithParam<EngCase> {};

TEST_P(ParseEngineeringTest, ParsesSuffix) {
  double v = 0.0;
  ASSERT_TRUE(ParseEngineering(GetParam().text, v)) << GetParam().text;
  EXPECT_NEAR(v, GetParam().value, std::abs(GetParam().value) * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, ParseEngineeringTest,
    ::testing::Values(
        EngCase{"1k", 1e3}, EngCase{"4.7K", 4.7e3}, EngCase{"2.2n", 2.2e-9},
        EngCase{"10meg", 1e7}, EngCase{"10MEG", 1e7}, EngCase{"3m", 3e-3},
        EngCase{"5u", 5e-6}, EngCase{"7p", 7e-12}, EngCase{"1.5f", 1.5e-15},
        EngCase{"2g", 2e9}, EngCase{"3t", 3e12}, EngCase{"1e-6", 1e-6},
        EngCase{"-12.5", -12.5}, EngCase{"10kohm", 1e4},
        EngCase{"100nF", 100e-9}, EngCase{"0", 0.0}, EngCase{"  42  ", 42.0},
        EngCase{"1E3", 1e3}, EngCase{"2.5e-3k", 2.5}, EngCase{"10hz", 10.0}));

struct BadEngCase {
  const char* text;
};

void PrintTo(const BadEngCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(std::string(c.text));
}

class ParseEngineeringRejectTest : public ::testing::TestWithParam<BadEngCase> {
};

TEST_P(ParseEngineeringRejectTest, Rejects) {
  double v = 0.0;
  EXPECT_FALSE(ParseEngineering(GetParam().text, v)) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(BadInputs, ParseEngineeringRejectTest,
                         ::testing::Values(BadEngCase{""}, BadEngCase{"abc"},
                                           BadEngCase{"k10"},
                                           BadEngCase{"10k5"},
                                           BadEngCase{"--5"}));

TEST(FormatEngineering, RoundTripsCommonValues) {
  EXPECT_EQ(FormatEngineering(4700.0), "4.7k");
  EXPECT_EQ(FormatEngineering(2.2e-9), "2.2n");
  EXPECT_EQ(FormatEngineering(1e6), "1Meg");
  EXPECT_EQ(FormatEngineering(0.0), "0");
  EXPECT_EQ(FormatEngineering(-1500.0), "-1.5k");
}

TEST(FormatEngineering, ParseFormatRoundTrip) {
  for (double v : {1.0, 12.0, 4.7e3, 2.2e-9, 15.9e3, 1e-12, 3.3e6}) {
    double parsed = 0.0;
    ASSERT_TRUE(ParseEngineering(FormatEngineering(v, 9), parsed));
    EXPECT_NEAR(parsed, v, std::abs(v) * 1e-6);
  }
}

TEST(FormatTrimmed, DropsTrailingZeros) {
  EXPECT_EQ(FormatTrimmed(12.50), "12.5");
  EXPECT_EQ(FormatTrimmed(3.00), "3");
  EXPECT_EQ(FormatTrimmed(0.25), "0.25");
  EXPECT_EQ(FormatTrimmed(-0.0), "0");
}

TEST(Join, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

}  // namespace
}  // namespace mcdft::util
