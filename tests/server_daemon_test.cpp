// The mcdftd NDJSON protocol, driven over real sockets: an in-process
// Daemon on a TCP loopback / Unix-domain listener, plus a smoke test of
// the shipped binaries (`mcdftd` + `mcdft submit`) talking over a Unix
// socket exactly the way the CI daemon job does.
#include "core/server/daemon.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "core/server/request.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace mcdft::core::server {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;

ServiceOptions SmallService() {
  ServiceOptions options;
  options.workers = 2;
  return options;
}

/// One request/response round trip on an open connection.
json::Value RoundTrip(util::Conn& conn, const std::string& line) {
  EXPECT_TRUE(conn.WriteAll(line + "\n"));
  std::string response;
  EXPECT_TRUE(conn.ReadLine(response));
  return json::Parse(response);
}

std::string SubmitLine(const std::string& circuit) {
  json::Value v = json::Value::Object();
  v.Set("op", json::Value::Str("submit"));
  v.Set("circuit", json::Value::Str(circuit));
  v.Set("ppd", json::Value::Number(std::int64_t{4}));
  v.Set("samples", json::Value::Number(std::int64_t{4}));
  return v.Serialize(0);
}

TEST(ServerDaemon, PingStatsAndUnknownOpOverTcp) {
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
  ASSERT_NE(conn, nullptr);

  json::Value pong = RoundTrip(*conn, R"({"op":"ping"})");
  EXPECT_TRUE(pong.Get("ok").AsBool());
  EXPECT_EQ(pong.Get("op").AsString(), "ping");

  json::Value stats = RoundTrip(*conn, R"({"op":"stats"})");
  EXPECT_TRUE(stats.Get("ok").AsBool());
  EXPECT_GE(stats.Get("stats").Get("server").Get("workers").AsDouble(), 1.0);

  json::Value unknown = RoundTrip(*conn, R"({"op":"frobnicate"})");
  EXPECT_FALSE(unknown.Get("ok").AsBool());
  EXPECT_NE(unknown.Get("error").AsString().find("frobnicate"),
            std::string::npos);

  daemon.Stop();
}

TEST(ServerDaemon, MalformedLineErrorsButConnectionStaysOpen) {
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
  ASSERT_NE(conn, nullptr);

  json::Value bad = RoundTrip(*conn, "this is not json {{{");
  EXPECT_FALSE(bad.Get("ok").AsBool());
  EXPECT_FALSE(bad.Get("error").AsString().empty());

  // The same connection still serves: protocol errors are per-line.
  json::Value pong = RoundTrip(*conn, R"({"op":"ping"})");
  EXPECT_TRUE(pong.Get("ok").AsBool());

  daemon.Stop();
}

TEST(ServerDaemon, FinishedConnectionThreadsAreReaped) {
  // Serve many short-lived connections: finished handler threads must be
  // joined as the daemon runs (on each accept), not accumulate until
  // Stop().  The tracked count should drop back to ~the live connections.
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  for (int i = 0; i < 16; ++i) {
    std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
    ASSERT_NE(conn, nullptr);
    json::Value pong = RoundTrip(*conn, R"({"op":"ping"})");
    EXPECT_TRUE(pong.Get("ok").AsBool());
  }

  // Reaping happens at accept time and a handler publishes completion
  // shortly after its peer closes, so probe with fresh connections until
  // the count collapses to just the probe itself (bounded wait).
  bool reaped = false;
  for (int attempt = 0; attempt < 200 && !reaped; ++attempt) {
    std::unique_ptr<util::Conn> probe = util::ConnectTcp(port);
    ASSERT_NE(probe, nullptr);
    json::Value pong = RoundTrip(*probe, R"({"op":"ping"})");
    EXPECT_TRUE(pong.Get("ok").AsBool());
    reaped = daemon.LiveConnectionThreads() <= 4;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reaped) << "tracked threads: " << daemon.LiveConnectionThreads();

  daemon.Stop();
}

TEST(ServerDaemon, RequestFromJsonRejectsNonFiniteAndOutOfRangeNumbers) {
  const auto parse = [](const std::string& body) {
    return RequestFromJson(json::Parse(body));
  };
  // In-range values survive the round trip.
  const CampaignRequest ok = parse(R"({"samples":16,"ppd":4,"threads":2})");
  EXPECT_EQ(ok.samples, 16);
  EXPECT_EQ(ok.ppd, 4);
  EXPECT_EQ(ok.threads, 2);

  // Values that would make the double→int cast UB (or wrap to a huge
  // size_t downstream) are rejected with the field named.
  EXPECT_THROW(parse(R"({"samples":1e300})"), util::Error);
  EXPECT_THROW(parse(R"({"samples":-1})"), util::Error);
  EXPECT_THROW(parse(R"({"ppd":0})"), util::Error);
  EXPECT_THROW(parse(R"({"ppd":-4})"), util::Error);
  EXPECT_THROW(parse(R"({"max_followers":-2})"), util::Error);
  EXPECT_THROW(parse(R"({"threads":1e18})"), util::Error);
  EXPECT_THROW(parse(R"({"priority":1e300})"), util::Error);
  EXPECT_THROW(parse(R"({"eps":1e999})"), util::Error);  // parser rejects
  try {
    parse(R"({"samples":1e300})");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("samples"), std::string::npos);
  }
}

TEST(ServerDaemon, OutOfRangeSubmitFieldErrorsOverTheWire) {
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
  ASSERT_NE(conn, nullptr);
  json::Value bad = RoundTrip(
      *conn, R"({"op":"submit","circuit":"biquad","samples":1e300})");
  EXPECT_FALSE(bad.Get("ok").AsBool());
  EXPECT_NE(bad.Get("error").AsString().find("samples"), std::string::npos);

  // A negative tolerance is an error, not the envelope switched off.
  json::Value negative_tol = RoundTrip(
      *conn, R"({"op":"submit","circuit":"biquad","tol":-0.03})");
  EXPECT_FALSE(negative_tol.Get("ok").AsBool());
  EXPECT_NE(negative_tol.Get("error").AsString().find("'tol'"),
            std::string::npos)
      << negative_tol.Serialize(0);

  // The connection still serves after the rejected submit.
  json::Value pong = RoundTrip(*conn, R"({"op":"ping"})");
  EXPECT_TRUE(pong.Get("ok").AsBool());

  daemon.Stop();
}

TEST(ServerDaemon, SubmitColdThenWarmReturnsByteEqualReports) {
  const std::string socket_path =
      (fs::temp_directory_path() /
       ("mcdftd_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  util::Listener listener = util::Listener::Unix(socket_path);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  std::unique_ptr<util::Conn> conn = util::ConnectUnix(socket_path);
  ASSERT_NE(conn, nullptr);

  json::Value cold = RoundTrip(*conn, SubmitLine("biquad"));
  ASSERT_TRUE(cold.Get("ok").AsBool()) << cold.Serialize(0);
  EXPECT_EQ(cold.Get("cache").AsString(), "compute");
  EXPECT_EQ(cold.Get("exit_code").AsDouble(), 0.0);
  const std::string cold_report = cold.Get("report").AsString();
  ASSERT_FALSE(cold_report.empty());
  // The report member round-trips as the exact bytes of a run report.
  EXPECT_EQ(json::Parse(cold_report).Get("schema").AsString(),
            "mcdft.run_report/10");

  // Warm hit from a *different* connection: the cache is service-wide.
  std::unique_ptr<util::Conn> conn2 = util::ConnectUnix(socket_path);
  ASSERT_NE(conn2, nullptr);
  json::Value warm = RoundTrip(*conn2, SubmitLine("biquad"));
  ASSERT_TRUE(warm.Get("ok").AsBool());
  EXPECT_EQ(warm.Get("cache").AsString(), "memory");
  EXPECT_EQ(warm.Get("key").AsString(), cold.Get("key").AsString());
  EXPECT_EQ(warm.Get("report").AsString(), cold_report);

  daemon.Stop();
  EXPECT_FALSE(fs::exists(socket_path));  // listener unlinked its socket
}

TEST(ServerDaemon, SubmitErrorCarriesExitCodeAndMessage) {
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
  ASSERT_NE(conn, nullptr);
  json::Value bad = RoundTrip(*conn, SubmitLine("no-such-circuit"));
  EXPECT_FALSE(bad.Get("ok").AsBool());
  EXPECT_EQ(bad.Get("exit_code").AsDouble(), 1.0);
  EXPECT_NE(bad.Get("error").AsString().find("no-such-circuit"),
            std::string::npos);

  daemon.Stop();
}

TEST(ServerDaemon, ShutdownOpStopsAcceptingNewConnections) {
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), SmallService());
  daemon.Start();

  {
    std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
    ASSERT_NE(conn, nullptr);
    json::Value ack = RoundTrip(*conn, R"({"op":"shutdown"})");
    EXPECT_TRUE(ack.Get("ok").AsBool());
  }
  daemon.Stop();  // idempotent with the op-initiated stop
  // The listener is gone: a fresh dial must fail.
  EXPECT_EQ(util::ConnectTcp(port), nullptr);
}

// --- real-binary smoke ----------------------------------------------------
//
// Drives the shipped mcdftd + mcdft binaries the same way the CI daemon
// job does: start the daemon on a Unix socket with a disk cache, submit
// the same campaign twice, expect compute-then-memory and byte-equal
// report files, then shut down over the wire.

int RunCmd(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  EXPECT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(ServerDaemon, RealBinariesSubmitShutdownRoundTrip) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mcdftd_bin_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string sock = (dir / "d.sock").string();
  const std::string log = (dir / "daemon.log").string();

  RunCmd(std::string(MCDFT_MCDFTD_BIN) + " --socket " + sock +
         " --workers 2 --cache-dir " + (dir / "cache").string() + " > " +
         log + " 2>&1 &");
  // Wait for the socket to appear (the daemon prints "listening on" and
  // flushes before accepting).
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    ::usleep(50 * 1000);
    up = fs::exists(sock);
  }
  ASSERT_TRUE(up) << ReadBytes(log);

  const std::string cli = MCDFT_CLI_BIN;
  EXPECT_EQ(RunCmd(cli + " submit --socket " + sock +
                   " --ping > /dev/null 2>&1"),
            0);

  const std::string cold = (dir / "cold.json").string();
  const std::string warm = (dir / "warm.json").string();
  const std::string campaign =
      " --circuit biquad --ppd 4 --samples 4 ";
  EXPECT_EQ(RunCmd(cli + " submit --socket " + sock + campaign +
                   "--report " + cold + " > /dev/null 2>" +
                   (dir / "cold.err").string()),
            0);
  EXPECT_EQ(RunCmd(cli + " submit --socket " + sock + campaign +
                   "--report " + warm + " > /dev/null 2>" +
                   (dir / "warm.err").string()),
            0);

  // Cache-tier lines (what the CI job tabulates) and byte equality.
  EXPECT_NE(ReadBytes((dir / "cold.err").string()).find("cache: compute"),
            std::string::npos);
  EXPECT_NE(ReadBytes((dir / "warm.err").string()).find("cache: memory"),
            std::string::npos);
  const std::string cold_bytes = ReadBytes(cold);
  ASSERT_FALSE(cold_bytes.empty());
  EXPECT_EQ(cold_bytes, ReadBytes(warm));

  EXPECT_EQ(RunCmd(cli + " submit --socket " + sock +
                   " --shutdown > /dev/null 2>&1"),
            0);
  // The daemon exits and removes its socket.
  bool down = false;
  for (int i = 0; i < 100 && !down; ++i) {
    ::usleep(50 * 1000);
    down = !fs::exists(sock);
  }
  EXPECT_TRUE(down) << ReadBytes(log);
  fs::remove_all(dir);
}

// Out-of-range knobs stop in BuildCampaignJob, which every entry point
// reaches: the real CLI exits 1 with a message naming the request field
// instead of aborting on a negative sample count or wrapping a negative
// grid density into a huge size_t.  A flag `analyze` does not read — the
// retired --screen-margin and --no-lowrank, a typo of --no-screen — is a
// usage error (exit 2) naming the flag, never silently dropped: a dropped
// --no-screnn would run the screened campaign.
TEST(ServerDaemon, CliRejectsOutOfRangeRequestFields) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mcdft_cli_range_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string err = (dir / "stderr.txt").string();
  const std::string cli = MCDFT_CLI_BIN;
  struct Case {
    const char* flags;
    const char* field;
    int exit_code = 1;
  };
  for (const Case c : {Case{"--samples -1", "'samples'"},
                       Case{"--samples 0", "'samples'"},
                       Case{"--ppd -1", "'ppd'"},
                       Case{"--ppd 0", "'ppd'"},
                       Case{"--analysis transient --steps -1",
                            "'transient_steps'"},
                       Case{"--analysis transient --t-end -1",
                            "'transient_t_end'"},
                       Case{"--screen-margin 0.5", "--screen-margin", 2},
                       Case{"--no-lowrank", "--no-lowrank", 2},
                       Case{"--no-screnn", "--no-screnn", 2},
                       Case{"--eps abc", "--eps"},
                       Case{"--ppd 12x", "--ppd"},
                       Case{"--samples abc", "--samples"},
                       Case{"--tol -0.03", "'tol'"},
                       Case{"--eps inf", "'eps'"},
                       Case{"--max-followers -5", "'max_followers'"}}) {
    EXPECT_EQ(RunCmd(cli + " analyze --circuit biquad " + c.flags +
                     " > /dev/null 2> " + err),
              c.exit_code)
        << c.flags;
    const std::string message = ReadBytes(err);
    EXPECT_NE(message.find(c.field), std::string::npos)
        << c.flags << ": " << message;
  }
  fs::remove_all(dir);
}

// Integer environment variables obey the flag rule: a value that is not a
// whole decimal int stops the binary the way a bad flag does (mcdftd exits
// 2, mcdft exits 1) with a message naming the variable, instead of
// silently reading as 0 (timeouts off, no deadline).  `timeout` bounds the
// daemon runs: a daemon that accepted the value would serve forever.
TEST(ServerDaemon, MalformedEnvIntegersFailLikeBadFlags) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mcdft_env_int_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string sock = (dir / "d.sock").string();
  const std::string err = (dir / "stderr.txt").string();
  for (const char* value : {"abc", "12x", "-", "99999999999"}) {
    const std::string env = std::string("'") + value + "' ";
    EXPECT_EQ(RunCmd("MCDFT_IO_TIMEOUT_MS=" + env + "timeout 20 " +
                     MCDFT_MCDFTD_BIN + " --socket " + sock +
                     " > /dev/null 2> " + err),
              2)
        << value;
    EXPECT_NE(ReadBytes(err).find("MCDFT_IO_TIMEOUT_MS"), std::string::npos)
        << value << ": " << ReadBytes(err);
    EXPECT_FALSE(fs::exists(sock)) << value;

    EXPECT_EQ(RunCmd("MCDFT_DEADLINE_MS=" + env + MCDFT_CLI_BIN +
                     " submit --socket " + sock +
                     " --circuit biquad > /dev/null 2> " + err),
              1)
        << value;
    EXPECT_NE(ReadBytes(err).find("MCDFT_DEADLINE_MS"), std::string::npos)
        << value << ": " << ReadBytes(err);
  }
  // MCDFT_CACHE_MB and MCDFT_THREADS read "unset, empty or 0" as their
  // default and nothing else leniently: a negative or malformed value
  // stops mcdftd before it binds and `mcdft analyze` before it runs.
  // Malformed strings only — a large thread count would start threads.
  for (const char* value : {"abc", "12x", "-3"}) {
    const std::string quoted = std::string("'") + value + "' ";
    for (const char* var : {"MCDFT_CACHE_MB", "MCDFT_THREADS"}) {
      EXPECT_EQ(RunCmd(std::string(var) + "=" + quoted + "timeout 20 " +
                       MCDFT_MCDFTD_BIN + " --socket " + sock +
                       " > /dev/null 2> " + err),
                2)
          << var << "=" << value;
      EXPECT_NE(ReadBytes(err).find(var), std::string::npos)
          << var << "=" << value << ": " << ReadBytes(err);
      EXPECT_FALSE(fs::exists(sock)) << var << "=" << value;
    }
    EXPECT_EQ(RunCmd("MCDFT_THREADS=" + quoted + MCDFT_CLI_BIN +
                     " analyze --circuit biquad --ppd 4 --samples 4"
                     " > /dev/null 2> " + err),
              1)
        << value;
    EXPECT_NE(ReadBytes(err).find("MCDFT_THREADS"), std::string::npos)
        << value << ": " << ReadBytes(err);
  }
  fs::remove_all(dir);
}

// mcdftd's size flags are whole integers >= 0: a negative value stops the
// daemon before it binds (exit 2, naming the flag) instead of wrapping into
// a huge std::size_t (a cache cap that is effectively off).  `timeout`
// bounds the runs: a daemon that accepted the value would serve forever.  --workers shares the read and
// is covered in process (CliArgs.IntBelowMinimumThrows): a daemon that
// accepted a negative --workers would ask for ~2^64 threads.
TEST(ServerDaemon, NegativeSizeFlagsFailBeforeBinding) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mcdftd_size_flag_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string sock = (dir / "d.sock").string();
  const std::string err = (dir / "stderr.txt").string();
  for (const std::string flag :
       {"--cache-mb -1", "--factor-cache-mb -2", "--queue -1"}) {
    EXPECT_EQ(RunCmd(std::string("timeout 10 ") + MCDFT_MCDFTD_BIN +
                     " --socket " + sock + " " + flag + " > /dev/null 2> " +
                     err),
              2)
        << flag;
    const std::string name = flag.substr(0, flag.find(' '));
    EXPECT_NE(ReadBytes(err).find(name), std::string::npos)
        << flag << ": " << ReadBytes(err);
    EXPECT_FALSE(fs::exists(sock)) << flag;
  }
  fs::remove_all(dir);
}

// A negative I/O timeout or drain budget and a port outside 0-65535 stop
// the daemon before it binds (exit 2, naming the flag or variable) instead
// of serving with no socket timeout or on the port the value wraps to;
// `mcdft submit` refuses the same port before dialling (exit 1).  `timeout`
// bounds the runs: a daemon that accepted the value would serve forever.
TEST(ServerDaemon, OutOfRangeTimeoutsAndPortFailBeforeBinding) {
  const fs::path dir = fs::temp_directory_path() /
                       ("mcdftd_range_flag_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string sock = (dir / "d.sock").string();
  const std::string out = (dir / "stdout.txt").string();
  const std::string err = (dir / "stderr.txt").string();
  struct Probe {
    std::string env;
    std::string args;
    std::string names;
  };
  for (const Probe& probe : std::vector<Probe>{
           {"", "--socket " + sock + " --io-timeout-ms -5", "--io-timeout-ms"},
           {"", "--socket " + sock + " --drain-ms -7", "--drain-ms"},
           {"MCDFT_IO_TIMEOUT_MS=-5 ", "--socket " + sock,
            "MCDFT_IO_TIMEOUT_MS"},
           {"", "--tcp 70000", "--tcp"},
           {"", "--tcp -1", "--tcp"}}) {
    EXPECT_EQ(RunCmd(probe.env + "timeout 10 " + MCDFT_MCDFTD_BIN + " " +
                     probe.args + " > " + out + " 2> " + err),
              2)
        << probe.args;
    EXPECT_NE(ReadBytes(err).find(probe.names), std::string::npos)
        << probe.args << ": " << ReadBytes(err);
    EXPECT_EQ(ReadBytes(out).find("listening"), std::string::npos)
        << probe.args << ": " << ReadBytes(out);
    EXPECT_FALSE(fs::exists(sock)) << probe.args;
  }
  EXPECT_EQ(RunCmd(std::string("timeout 10 ") + MCDFT_CLI_BIN +
                   " submit --tcp 70000 --ping > /dev/null 2> " + err),
            1);
  EXPECT_NE(ReadBytes(err).find("--tcp"), std::string::npos) << ReadBytes(err);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mcdft::core::server
