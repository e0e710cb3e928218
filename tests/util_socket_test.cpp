// Conn::ReadLineBounded over a socketpair: line framing, EOF semantics,
// the per-line byte bound, and the per-line read timeout — the transport
// hardening under the daemon's NDJSON protocol.
#include "util/socket.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::util {
namespace {

/// Both ends of a connected AF_UNIX stream pair wrapped as Conns.
std::pair<std::unique_ptr<Conn>, std::unique_ptr<Conn>> MakePair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<Conn>(fds[0]), std::make_unique<Conn>(fds[1])};
}

class UtilSocket : public ::testing::Test {
 protected:
  void SetUp() override { faultpoint::DisarmAll(); }
};

TEST_F(UtilSocket, SplitsBufferedLinesAndStripsNewlines) {
  auto [a, b] = MakePair();
  ASSERT_TRUE(a->WriteAll("first\nsecond\nthird\n"));
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "first");
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "second");
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "third");
}

TEST_F(UtilSocket, CleanEofAfterLastLine) {
  auto [a, b] = MakePair();
  ASSERT_TRUE(a->WriteAll("only\n"));
  a->Close();
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "only");
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kEof);
}

TEST_F(UtilSocket, TrailingUnterminatedLineSurfacesOnceThenEof) {
  auto [a, b] = MakePair();
  ASSERT_TRUE(a->WriteAll("complete\npartial"));
  a->Close();
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "complete");
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "partial");
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kEof);
}

TEST_F(UtilSocket, OverlongLineIsRejectedNotBuffered) {
  auto [a, b] = MakePair();
  b->SetMaxLineBytes(16);
  ASSERT_TRUE(a->WriteAll(std::string(64, 'x')));  // no newline in sight
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOverlong);
}

TEST_F(UtilSocket, LineWithinBoundStillDeliversUnderTheCap) {
  auto [a, b] = MakePair();
  b->SetMaxLineBytes(16);
  ASSERT_TRUE(a->WriteAll("short enough\n"));
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "short enough");
}

TEST_F(UtilSocket, HalfLineThenStallTimesOut) {
  // The slow-loris shape: a peer sends half a request and goes quiet.
  // The per-line budget must expire even though bytes did arrive.
  auto [a, b] = MakePair();
  b->SetReadTimeoutMs(50);
  ASSERT_TRUE(a->WriteAll(R"({"op":"sub)"));  // half a line, then silence
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kTimeout);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 45);  // waited (about) the budget, not forever
}

// A negative budget used to reach setsockopt as a negative timeval, which
// fails and leaves the connection with no timeout at all.
TEST_F(UtilSocket, NegativeTimeoutsAreRefused) {
  auto [a, b] = MakePair();
  EXPECT_THROW(b->SetReadTimeoutMs(-5), util::Error);
  EXPECT_THROW(b->SetWriteTimeoutMs(-5), util::Error);
  b->SetReadTimeoutMs(0);
  b->SetWriteTimeoutMs(0);
}

TEST_F(UtilSocket, PromptPeerBeatsTheTimeout) {
  auto [a, b] = MakePair();
  b->SetReadTimeoutMs(5'000);
  std::thread writer([conn = a.get()] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(conn->WriteAll("late but fine\n"));
  });
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "late but fine");
  writer.join();
}

TEST_F(UtilSocket, ArmedStallFaultpointReportsTimeoutWithoutWaiting) {
  // socket.read.stall lets armed CI runs cover the reap path with no real
  // waiting: the bounded read reports kTimeout exactly as if the budget
  // elapsed with no bytes.
  faultpoint::Arm("socket.read.stall", 1.0, 7);
  auto [a, b] = MakePair();
  std::string line;
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kTimeout);
  EXPECT_GE(faultpoint::StatsOf("socket.read.stall").fired, 1u);
  faultpoint::DisarmAll();

  // Disarmed again, the same connection reads normally — the injection
  // point never consumed bytes.
  ASSERT_TRUE(a->WriteAll("after the stall\n"));
  EXPECT_EQ(b->ReadLineBounded(line), ReadStatus::kOk);
  EXPECT_EQ(line, "after the stall");
}

}  // namespace
}  // namespace mcdft::util
