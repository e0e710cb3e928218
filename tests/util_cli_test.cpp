#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mcdft::util {
namespace {

CliArgs Make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SpaceSeparatedValue) {
  auto a = Make({"--circuit", "biquad"});
  EXPECT_TRUE(a.Has("circuit"));
  EXPECT_EQ(a.GetString("circuit", ""), "biquad");
}

TEST(CliArgs, EqualsSeparatedValue) {
  auto a = Make({"--eps=0.1"});
  EXPECT_DOUBLE_EQ(a.GetDouble("eps", 0.0), 0.1);
}

TEST(CliArgs, BooleanFlag) {
  auto a = Make({"--verbose"});
  EXPECT_TRUE(a.Has("verbose"));
  EXPECT_EQ(a.GetString("verbose", "x"), "");
}

TEST(CliArgs, EngineeringValues) {
  auto a = Make({"--f0", "1k"});
  EXPECT_DOUBLE_EQ(a.GetDouble("f0", 0.0), 1000.0);
}

TEST(CliArgs, IntValues) {
  auto a = Make({"--n=42"});
  EXPECT_EQ(a.GetInt("n", 0), 42);
}

TEST(CliArgs, FallbacksWhenAbsent) {
  auto a = Make({});
  EXPECT_FALSE(a.Has("x"));
  EXPECT_EQ(a.GetString("x", "def"), "def");
  EXPECT_DOUBLE_EQ(a.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(a.GetInt("x", 7), 7);
}

TEST(CliArgs, PositionalArguments) {
  auto a = Make({"file1", "--opt", "v", "file2"});
  ASSERT_EQ(a.Positional().size(), 2u);
  EXPECT_EQ(a.Positional()[0], "file1");
  EXPECT_EQ(a.Positional()[1], "file2");
}

/// The message of the util::Error `get` throws, or "" when it returns.
template <typename Get>
std::string ErrorOf(Get get) {
  try {
    get();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CliArgs, UnparsableDoubleThrows) {
  auto a = Make({"--eps", "abc", "--tol=", "--f0", "1k5"});
  EXPECT_NE(ErrorOf([&] { a.GetDouble("eps", 9.0); }).find("--eps"),
            std::string::npos);
  EXPECT_NE(ErrorOf([&] { a.GetDouble("tol", 9.0); }).find("--tol"),
            std::string::npos);
  EXPECT_NE(ErrorOf([&] { a.GetDouble("f0", 9.0); }).find("--f0"),
            std::string::npos);
}

TEST(CliArgs, UnparsableIntThrows) {
  auto a = Make({"--ppd", "12x", "--samples", "abc", "--n", "",
                 "--big", "2147483648", "--neg", "-7", "--max", "2147483647"});
  for (const char* flag : {"ppd", "samples", "n", "big"}) {
    EXPECT_NE(ErrorOf([&] { a.GetInt(flag, 1); }).find(std::string("--") + flag),
              std::string::npos)
        << flag;
  }
  EXPECT_NE(ErrorOf([&] { a.GetInt("big", 1); }).find("out of range"),
            std::string::npos);
  EXPECT_EQ(a.GetInt("neg", 1), -7);
  EXPECT_EQ(a.GetInt("max", 1), 2147483647);
}

// mcdftd reads its size flags (--workers, --queue, --cache-mb,
// --factor-cache-mb) with a lower bound of 0: a negative value is an error
// naming the flag instead of wrapping into a huge std::size_t (a negative
// --workers would ask for ~2^64 threads).
TEST(CliArgs, IntBelowMinimumThrows) {
  auto a = Make({"--workers", "-1", "--queue", "0"});
  const std::string error = ErrorOf([&] { a.GetInt("workers", 2, 0); });
  EXPECT_NE(error.find("--workers"), std::string::npos) << error;
  EXPECT_NE(error.find(">= 0"), std::string::npos) << error;
  EXPECT_EQ(a.GetInt("workers", 2), -1);  // no bound: the value as given
  EXPECT_EQ(a.GetInt("queue", 64, 0), 0);
  EXPECT_EQ(a.GetInt("absent", 5, 0), 5);
}

// A port is read with both bounds: 70000 would otherwise wrap to 4464.
TEST(CliArgs, IntAboveMaximumThrows) {
  auto a = Make({"--tcp", "70000", "--port", "65535"});
  const std::string error = ErrorOf([&] { a.GetInt("tcp", 0, 0, 65535); });
  EXPECT_NE(error.find("--tcp"), std::string::npos) << error;
  EXPECT_NE(error.find("<= 65535"), std::string::npos) << error;
  EXPECT_EQ(a.GetInt("port", 0, 0, 65535), 65535);
}

TEST(CliArgs, FlagFollowedByFlag) {
  auto a = Make({"--a", "--b", "val"});
  EXPECT_TRUE(a.Has("a"));
  EXPECT_EQ(a.GetString("a", "x"), "");
  EXPECT_EQ(a.GetString("b", ""), "val");
}

}  // namespace
}  // namespace mcdft::util
