#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>

namespace mcdft::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Parse("null").IsNull());
  EXPECT_TRUE(Parse("true").AsBool());
  EXPECT_FALSE(Parse("false").AsBool());
  EXPECT_DOUBLE_EQ(Parse("42").AsDouble(), 42.0);
  EXPECT_DOUBLE_EQ(Parse("-1.5e3").AsDouble(), -1500.0);
  EXPECT_EQ(Parse("\"hi\"").AsString(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Value v = Parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(v.IsObject());
  const Value& a = v.Get("a");
  ASSERT_EQ(a.Size(), 3u);
  EXPECT_DOUBLE_EQ(a.At(0).AsDouble(), 1.0);
  EXPECT_TRUE(a.At(2).Get("b").AsBool());
  EXPECT_EQ(v.Get("c").AsString(), "x");
  EXPECT_EQ(v.Find("missing"), nullptr);
  EXPECT_THROW(v.Get("missing"), JsonError);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(Parse(R"("a\"b\\c\n\t")").AsString(), "a\"b\\c\n\t");
  // \u escape decodes to UTF-8 (micro sign U+00B5 -> 0xC2 0xB5).
  EXPECT_EQ(Parse(R"("µs")").AsString(), "\xC2\xB5s");
}

TEST(Json, SerializeRoundTrips) {
  Value obj = Value::Object();
  obj.Set("name", Value::Str("bench \"x\"\n"));
  obj.Set("count", Value::Number(std::uint64_t{12345}));
  obj.Set("ratio", Value::Number(0.125));
  obj.Set("flag", Value::Bool(true));
  obj.Set("none", Value::Null());
  Value arr = Value::Array();
  arr.PushBack(Value::Number(1.0));
  arr.PushBack(Value::Number(2.5));
  obj.Set("items", std::move(arr));

  const Value back = Parse(obj.Serialize());
  EXPECT_EQ(back.Get("name").AsString(), "bench \"x\"\n");
  EXPECT_DOUBLE_EQ(back.Get("count").AsDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(back.Get("ratio").AsDouble(), 0.125);
  EXPECT_TRUE(back.Get("flag").AsBool());
  EXPECT_TRUE(back.Get("none").IsNull());
  EXPECT_DOUBLE_EQ(back.Get("items").At(1).AsDouble(), 2.5);
}

TEST(Json, IntegralNumbersSerializeWithoutDecimalPoint) {
  EXPECT_EQ(Value::Number(42.0).Serialize(0), "42");
  EXPECT_EQ(Value::Number(-3.0).Serialize(0), "-3");
  EXPECT_EQ(Value::Number(0.0).Serialize(0), "0");
}

TEST(Json, DoubleSerializationRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789, 2.5e17}) {
    const double back = Parse(Value::Number(v).Serialize(0)).AsDouble();
    EXPECT_EQ(back, v);
  }
}

/// The number formatter this serializer shipped with before it moved to
/// std::to_chars, kept as the reference its bytes must match: "%.0f" for
/// integers below 1e15, else the first "%.{p}g" (p = 1..16) that sscanf
/// reads back exactly, else "%.17g".
std::string ReferenceNumberText(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec < 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == v) return buf;
  }
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void ExpectReferenceBytes(double v) {
  EXPECT_EQ(Value::Number(v).Serialize(0), ReferenceNumberText(v))
      << "bits " << std::hex << std::bit_cast<std::uint64_t>(v);
}

TEST(Json, NumberBytesMatchReferenceFormatterOnEdgeCases) {
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {p, -p, std::nextafter(p, 0.0),
                           std::nextafter(p, 2.0 * p), 3.0 * p / 2.0}) {
      ExpectReferenceBytes(v);
    }
  }
  for (const double v :
       {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(), 1e15, -1e15, 1e15 - 1.0,
        1e15 + 2.0, 999999999999999.5, std::nextafter(1e15, 0.0),
        std::nextafter(1e15, 2e15), 1e16, 0.1, 0.2, 0.3, 1.0 / 3.0, 5e-324,
        2.2250738585072014e-308, 1e23, 9007199254740993.0, 123456.789e-300}) {
    ExpectReferenceBytes(v);
  }
}

TEST(Json, NumberBytesMatchReferenceFormatterOnRandomBits) {
  std::mt19937_64 rng(0x75CA2);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int i = 0; i < 20'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) ExpectReferenceBytes(v);
    // Campaign-shaped values: deviations, responses, frequencies.
    ExpectReferenceBytes(unit(rng) * std::pow(10.0, (i % 40) - 20));
  }
}

TEST(Json, ObjectMembersKeepInsertionOrder) {
  Value obj = Value::Object();
  obj.Set("z", Value::Number(1.0));
  obj.Set("a", Value::Number(2.0));
  obj.Set("m", Value::Number(3.0));
  const auto& members = obj.Members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
  // Overwrite keeps the original position.
  obj.Set("a", Value::Number(9.0));
  EXPECT_EQ(obj.Members()[1].first, "a");
  EXPECT_DOUBLE_EQ(obj.Get("a").AsDouble(), 9.0);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Parse(""), JsonError);
  EXPECT_THROW(Parse("{"), JsonError);
  EXPECT_THROW(Parse("[1,]"), JsonError);
  EXPECT_THROW(Parse("{\"a\": 1,}"), JsonError);
  EXPECT_THROW(Parse("nul"), JsonError);
  EXPECT_THROW(Parse("1 2"), JsonError);  // trailing garbage
  EXPECT_THROW(Parse("\"unterminated"), JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const Value v = Parse("[1]");
  EXPECT_THROW(v.AsBool(), JsonError);
  EXPECT_THROW(v.AsString(), JsonError);
  EXPECT_THROW(v.Get("x"), JsonError);
}

TEST(Json, ParseFileReadsDocument) {
  const std::string path = ::testing::TempDir() + "/mcdft_json_test.json";
  {
    std::ofstream out(path);
    out << R"({"k": [true, 7]})";
  }
  const Value v = ParseFile(path);
  EXPECT_DOUBLE_EQ(v.Get("k").At(1).AsDouble(), 7.0);
  std::remove(path.c_str());
  EXPECT_THROW(ParseFile(path), JsonError);
}

}  // namespace
}  // namespace mcdft::util::json
