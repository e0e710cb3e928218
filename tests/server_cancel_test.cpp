// Request-lifecycle robustness: deadlines, the `cancel` verb, poisoned
// single-flight recovery, drain-on-shutdown durability, queue-full
// backoff hints, and the daemon's slow-client / overlong-line reaping.
//
// The acceptance pins live here: a cancelled or deadline-expired request
// stops within one campaign unit (measured through the armed
// `campaign.unit.stall` faultpoint, whose evaluation count is a progress
// probe — every unit boundary evaluates it once), cancelled runs never
// plant cache entries, and a resubmit after cancellation produces the
// same campaign bytes as a run that was never cancelled.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/server/daemon.hpp"
#include "core/server/request.hpp"
#include "core/server/service.hpp"
#include "util/cancel.hpp"
#include "util/faultpoint.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace mcdft::core::server {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;

constexpr const char* kStall = "campaign.unit.stall";

CampaignRequest SmallRequest(const std::string& circuit) {
  CampaignRequest r;
  r.circuit = circuit;
  r.ppd = 4;
  r.samples = 4;
  return r;
}

/// The campaign payload — the science — of a serialized run report.
/// Timing bytes differ between independent computes; the campaign member
/// must not (determinism contract).
std::string CampaignBytes(const std::string& report_json) {
  return json::Parse(report_json).Get("campaign").Serialize(0);
}

/// Spin until the armed stall faultpoint has seen at least `n` unit
/// boundaries — i.e. a campaign is demonstrably computing.
bool WaitForProgress(std::uint64_t n) {
  for (int i = 0; i < 2'000; ++i) {
    if (util::faultpoint::StatsOf(kStall).evaluations >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

class ServerCancel : public ::testing::Test {
 protected:
  void SetUp() override {
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_server_cancel_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  /// Single worker, no result cache: every submit computes, which is what
  /// lets one test run the same request twice and measure progress both
  /// times.
  ServiceOptions UncachedOptions() {
    ServiceOptions options;
    options.workers = 1;
    options.cache.capacity_bytes = 0;
    return options;
  }

  ServiceOptions DiskOptions(const std::string& subdir = "cache") {
    ServiceOptions options;
    options.workers = 2;
    options.cache.disk_dir = (dir_ / subdir).string();
    fs::create_directories(dir_ / subdir);
    return options;
  }

  fs::path dir_;
};

TEST_F(ServerCancel, DeadlineExpiredSubmitStopsWithinOneUnit) {
  CampaignService service(UncachedOptions());

  // Baseline: a full run's unit-boundary count, with the stall armed so
  // each unit also costs ~25 ms (the clock the deadline races against).
  util::faultpoint::Arm(kStall, 1.0, 11);
  const SubmitOutcome full = service.Submit(SmallRequest("biquad"));
  ASSERT_TRUE(full.ok) << full.error;
  const std::uint64_t baseline =
      util::faultpoint::StatsOf(kStall).evaluations;
  ASSERT_GE(baseline, 3u) << "campaign too small to measure truncation";

  // Re-arming resets the counters; a 1 ms deadline has long expired by the
  // first 25 ms-stalled unit boundary (or before the worker even starts).
  util::faultpoint::Arm(kStall, 1.0, 11);
  CampaignRequest doomed = SmallRequest("biquad");
  doomed.deadline_ms = 1;
  const SubmitOutcome outcome = service.Submit(doomed);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_kind, "deadline_exceeded");
  EXPECT_EQ(outcome.exit_code, kExitDeadline);
  EXPECT_NE(outcome.error.find("deadline"), std::string::npos);
  EXPECT_LT(util::faultpoint::StatsOf(kStall).evaluations, baseline);

  const json::Value stats = service.StatsJson();
  EXPECT_EQ(stats.Get("server").Get("deadline_exceeded").AsDouble(), 1.0);
  EXPECT_EQ(stats.Get("server").Get("cancelled").AsDouble(), 0.0);
}

TEST_F(ServerCancel, CancelledRunNeverReachesTheCacheAndResubmitIsClean) {
  const CampaignRequest request = SmallRequest("biquad");
  std::string resubmit_bytes;
  {
    CampaignService service(DiskOptions());
    util::faultpoint::Arm(kStall, 1.0, 11);
    CampaignRequest doomed = request;
    doomed.deadline_ms = 1;
    const SubmitOutcome cancelled = service.Submit(doomed);
    ASSERT_FALSE(cancelled.ok);
    ASSERT_EQ(cancelled.error_kind, "deadline_exceeded");
    util::faultpoint::DisarmAll();

    // The truncated run must not have planted bytes under the key: the
    // resubmit computes cold instead of hitting a (partial) cache entry.
    const SubmitOutcome resubmit = service.Submit(request);
    ASSERT_TRUE(resubmit.ok) << resubmit.error;
    EXPECT_EQ(resubmit.cache_tier, "compute");
    EXPECT_EQ(resubmit.key, cancelled.key);
    resubmit_bytes = resubmit.report_json;
  }

  // Byte-identity with a run that never saw a cancellation: the campaign
  // payload is bit-equal (timing bytes legitimately differ), and the
  // disk-restored report after a "restart" is byte-equal in full.
  CampaignService pristine(DiskOptions("pristine"));
  const SubmitOutcome golden = pristine.Submit(request);
  ASSERT_TRUE(golden.ok) << golden.error;
  EXPECT_EQ(CampaignBytes(resubmit_bytes), CampaignBytes(golden.report_json));

  CampaignService restarted(DiskOptions());
  const SubmitOutcome restored = restarted.Submit(request);
  ASSERT_TRUE(restored.ok) << restored.error;
  EXPECT_EQ(restored.cache_tier, "disk");
  EXPECT_EQ(restored.report_json, resubmit_bytes);
}

TEST_F(ServerCancel, CancelVerbStopsAComputingCampaignMidFlight) {
  CampaignService service(UncachedOptions());
  util::faultpoint::Arm(kStall, 1.0, 11);
  const SubmitOutcome full = service.Submit(SmallRequest("biquad"));
  ASSERT_TRUE(full.ok) << full.error;
  const std::uint64_t baseline =
      util::faultpoint::StatsOf(kStall).evaluations;
  ASSERT_GE(baseline, 3u);

  util::faultpoint::Arm(kStall, 1.0, 11);
  SubmitOutcome outcome;
  std::thread submitter([&] {
    CampaignRequest victim = SmallRequest("biquad");
    victim.request_id = "victim-1";
    outcome = service.Submit(victim);
  });
  // Wait for the campaign to be demonstrably mid-compute, then fire the
  // cancel the way the daemon's `cancel` verb does — from another thread,
  // keyed by request id.
  ASSERT_TRUE(WaitForProgress(1));
  EXPECT_TRUE(service.Cancel("victim-1"));
  submitter.join();

  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_kind, "cancelled");
  EXPECT_EQ(outcome.exit_code, kExitDeadline);
  EXPECT_EQ(outcome.request_id, "victim-1");
  EXPECT_LT(util::faultpoint::StatsOf(kStall).evaluations, baseline);

  // The registration died with the Submit call: a second cancel (or one
  // for an id that never existed) finds nothing.
  EXPECT_FALSE(service.Cancel("victim-1"));
  EXPECT_FALSE(service.Cancel("no-such-request"));
  EXPECT_EQ(service.StatsJson().Get("server").Get("cancelled").AsDouble(),
            1.0);
}

TEST_F(ServerCancel, ConcurrentJobCancelIsNotHeldByAnotherJobsCampaign) {
  // Two jobs at 4 threads share the process-wide worker pool.  The long
  // one's whole-unit claim loops occupy every pool worker for its whole
  // campaign, so the short one's pool tasks queue behind them; the short
  // job must still finish (here: be cancelled) on its own caller thread
  // instead of waiting for the long campaign to end.
  ServiceOptions options;
  options.workers = 2;
  options.cache.capacity_bytes = 0;
  CampaignService service(options);
  util::faultpoint::Arm(kStall, 1.0, 11);  // every unit costs >= 25 ms

  SubmitOutcome long_outcome;
  std::thread long_job([&] {
    CampaignRequest r = SmallRequest("cascade6");
    r.max_followers = 3;  // 130 units: >= 0.8 s on 4 threads
    r.threads = 4;
    long_outcome = service.Submit(r);
  });
  ASSERT_TRUE(WaitForProgress(8));  // all four of its claimers are busy

  SubmitOutcome short_outcome;
  std::uint64_t units_started_when_short_returned = 0;
  std::thread short_job([&] {
    CampaignRequest r = SmallRequest("cascade6");
    r.max_followers = 2;  // 46 units: >= 1.1 s on one thread
    r.threads = 4;
    r.request_id = "short-1";
    short_outcome = service.Submit(r);
    units_started_when_short_returned =
        util::faultpoint::StatsOf(kStall).evaluations;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(service.Cancel("short-1"));
  short_job.join();
  long_job.join();

  EXPECT_FALSE(short_outcome.ok);
  EXPECT_EQ(short_outcome.error_kind, "cancelled");
  ASSERT_TRUE(long_outcome.ok) << long_outcome.error;
  // Had the short job waited on its queued tasks, it would have returned
  // only once the long job's claimers ran out of units to start.
  EXPECT_LT(units_started_when_short_returned,
            util::faultpoint::StatsOf(kStall).evaluations)
      << "the cancelled job waited for the other job's campaign";
}

TEST_F(ServerCancel, FollowersOfACancelledLeaderRecomputeCleanly) {
  // The poisoned-flight pin: followers who joined a leader's single
  // flight must not inherit the leader's cancellation — they retry from
  // the cache-lookup step and end up with a complete, correct report.
  CampaignService service(DiskOptions());
  util::faultpoint::Arm(kStall, 1.0, 11);

  SubmitOutcome leader_outcome;
  std::thread leader([&] {
    CampaignRequest r = SmallRequest("khn");
    r.request_id = "leader-1";
    // One thread keeps the stalled units serial (~25 ms each), so the
    // campaign outlasts the 100 ms the followers get to join; threads stay
    // outside the request key, so the followers still join this flight.
    r.threads = 1;
    leader_outcome = service.Submit(r);
  });
  ASSERT_TRUE(WaitForProgress(1));

  SubmitOutcome follower_outcomes[2];
  std::thread followers[2];
  for (int i = 0; i < 2; ++i) {
    followers[i] = std::thread([&service, &follower_outcomes, i] {
      follower_outcomes[i] = service.Submit(SmallRequest("khn"));
    });
  }
  // Give the followers a beat to join the in-flight computation, then
  // cancel the leader out from under them.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(service.Cancel("leader-1"));

  leader.join();
  for (std::thread& t : followers) t.join();

  EXPECT_FALSE(leader_outcome.ok);
  EXPECT_EQ(leader_outcome.error_kind, "cancelled");
  for (const SubmitOutcome& f : follower_outcomes) {
    ASSERT_TRUE(f.ok) << f.error << " (" << f.error_kind << ")";
    EXPECT_EQ(f.exit_code, 0);
    ASSERT_FALSE(f.report_json.empty());
  }
  // Whichever follower recomputed, the other shared its bytes (dedup or
  // cache) — and both match a never-cancelled run of the same request.
  EXPECT_EQ(follower_outcomes[0].report_json,
            follower_outcomes[1].report_json);
  util::faultpoint::DisarmAll();
  CampaignService pristine(DiskOptions("pristine"));
  const SubmitOutcome golden = pristine.Submit(SmallRequest("khn"));
  ASSERT_TRUE(golden.ok) << golden.error;
  EXPECT_EQ(CampaignBytes(follower_outcomes[0].report_json),
            CampaignBytes(golden.report_json));
}

TEST_F(ServerCancel, QueueFullRejectionCarriesABackoffHint) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_limit = 0;  // every enqueue rejects: pure admission test
  CampaignService service(options);
  const SubmitOutcome outcome = service.Submit(SmallRequest("biquad"));
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_kind, "queue_full");
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_GE(outcome.retry_after_ms, 100);
  EXPECT_LE(outcome.retry_after_ms, 10'000);
  EXPECT_EQ(service.StatsJson().Get("server").Get("rejected").AsDouble(),
            1.0);
}

TEST_F(ServerCancel, ShutdownDrainsRunningJobsToDurableDiskRecords)
{
  // One thread per job keeps each job at one stalled unit boundary per
  // ~25 ms, so two boundaries mean both jobs are computing; at more threads
  // one job's whole-unit claimers pass two boundaries at once, and the
  // shutdown could reject the other job before it is admitted.  Threads
  // stay outside the request key.
  CampaignRequest requests[] = {SmallRequest("biquad"), SmallRequest("khn")};
  for (CampaignRequest& r : requests) r.threads = 1;
  SubmitOutcome outcomes[2];
  {
    ServiceOptions options = DiskOptions();
    options.drain_budget_ms = 30'000;  // generous: this test pins the
                                       // *drain*, not the budget expiry
    CampaignService service(options);
    util::faultpoint::Arm(kStall, 1.0, 11);
    std::thread submitters[2];
    for (int i = 0; i < 2; ++i) {
      submitters[i] = std::thread([&service, &requests, &outcomes, i] {
        outcomes[i] = service.Submit(requests[i]);
      });
    }
    // Both workers mid-campaign (each unit stalls ~25 ms, so the runs are
    // comfortably still going), then shut down under load.
    ASSERT_TRUE(WaitForProgress(2));
    service.Shutdown();
    for (std::thread& t : submitters) t.join();

    for (const SubmitOutcome& o : outcomes) {
      ASSERT_TRUE(o.ok) << o.error << " (" << o.error_kind << ")";
      EXPECT_EQ(o.cache_tier, "compute");
    }
    // Jobs that finished inside the drain window are tallied.
    EXPECT_GE(service.StatsJson().Get("server").Get("drained").AsDouble(),
              1.0);
  }

  // The regression pin for the shutdown-ordering fix: nothing the drain
  // completed may be truncated on disk.  A fresh service over the same
  // spill directory restores every record byte-identically.
  util::faultpoint::DisarmAll();
  CampaignService restarted(DiskOptions());
  for (int i = 0; i < 2; ++i) {
    const SubmitOutcome restored = restarted.Submit(requests[i]);
    ASSERT_TRUE(restored.ok) << restored.error;
    EXPECT_EQ(restored.cache_tier, "disk") << requests[i].circuit;
    EXPECT_EQ(restored.report_json, outcomes[i].report_json);
  }
}

TEST_F(ServerCancel, DrainTimeoutFaultpointForcesCancellation) {
  // service.drain.timeout deterministically skips the drain wait, so the
  // budget-expiry path — cancel whatever is still running — is exercised
  // without waiting out a real budget.
  ServiceOptions options = DiskOptions();
  options.workers = 1;
  options.drain_budget_ms = 60'000;
  CampaignService service(options);
  util::faultpoint::Arm(kStall, 1.0, 11);
  util::faultpoint::Arm("service.drain.timeout", 1.0, 3);

  SubmitOutcome outcome;
  std::thread submitter([&] {
    CampaignRequest r = SmallRequest("biquad");
    r.request_id = "drainee";
    outcome = service.Submit(r);
  });
  ASSERT_TRUE(WaitForProgress(1));
  const auto start = std::chrono::steady_clock::now();
  service.Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  submitter.join();

  // The 60 s budget was skipped: shutdown force-cancelled the running
  // campaign, which bailed out at its next unit boundary.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_GE(util::faultpoint::StatsOf("service.drain.timeout").fired, 1u);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.error_kind, "cancelled");
  EXPECT_EQ(outcome.exit_code, kExitDeadline);

  // Force-cancelled work planted nothing: a fresh service over the same
  // disk directory computes cold.
  util::faultpoint::DisarmAll();
  CampaignService restarted(DiskOptions());
  const SubmitOutcome clean = restarted.Submit(SmallRequest("biquad"));
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(clean.cache_tier, "compute");
}

TEST_F(ServerCancel, DuplicateActiveRequestIdIsRejectedThenReusable) {
  CampaignService service(UncachedOptions());
  util::faultpoint::Arm(kStall, 1.0, 11);
  SubmitOutcome first;
  std::thread submitter([&] {
    CampaignRequest r = SmallRequest("biquad");
    r.request_id = "dup";
    first = service.Submit(r);
  });
  ASSERT_TRUE(WaitForProgress(1));

  CampaignRequest clash = SmallRequest("khn");
  clash.request_id = "dup";
  const SubmitOutcome rejected = service.Submit(clash);
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error_kind, "bad_request");
  EXPECT_NE(rejected.error.find("dup"), std::string::npos);

  EXPECT_TRUE(service.Cancel("dup"));
  submitter.join();
  EXPECT_EQ(first.error_kind, "cancelled");

  // Once the first holder finished, the id is free again.
  util::faultpoint::DisarmAll();
  CampaignRequest reuse = SmallRequest("khn");
  reuse.request_id = "dup";
  const SubmitOutcome ok = service.Submit(reuse);
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.request_id, "dup");
}

TEST_F(ServerCancel, DeadlineAndRequestIdRideTheWireButNotTheCacheKey) {
  // Omitted at defaults: existing clients' request bytes are unchanged.
  const json::Value plain = RequestToJson(SmallRequest("biquad"));
  EXPECT_EQ(plain.Find("deadline_ms"), nullptr);
  EXPECT_EQ(plain.Find("request_id"), nullptr);

  CampaignRequest r = SmallRequest("biquad");
  r.deadline_ms = 1'500;
  r.request_id = "abc-1";
  const CampaignRequest round = RequestFromJson(RequestToJson(r));
  EXPECT_EQ(round.deadline_ms, 1'500);
  EXPECT_EQ(round.request_id, "abc-1");

  // Lifecycle fields truncate work; they never change what a completed
  // run computes — so they must not split the content-addressed cache.
  EXPECT_EQ(BuildCampaignJob(r).key,
            BuildCampaignJob(SmallRequest("biquad")).key);

  // An unbounded id is a protocol error, not a map key of arbitrary size.
  json::Value oversized = RequestToJson(SmallRequest("biquad"));
  oversized.Set("request_id", json::Value::Str(std::string(4'096, 'x')));
  EXPECT_THROW(RequestFromJson(oversized), util::Error);
}

// --- daemon-level lifecycle (sockets, timeouts, the cancel op) ------------

json::Value RoundTrip(util::Conn& conn, const std::string& line) {
  EXPECT_TRUE(conn.WriteAll(line + "\n"));
  std::string response;
  EXPECT_TRUE(conn.ReadLine(response));
  return json::Parse(response);
}

std::string SubmitLine(const std::string& circuit,
                       const std::string& request_id = "") {
  json::Value v = json::Value::Object();
  v.Set("op", json::Value::Str("submit"));
  v.Set("circuit", json::Value::Str(circuit));
  v.Set("ppd", json::Value::Number(std::int64_t{4}));
  v.Set("samples", json::Value::Number(std::int64_t{4}));
  if (!request_id.empty()) {
    v.Set("request_id", json::Value::Str(request_id));
  }
  return v.Serialize(0);
}

TEST_F(ServerCancel, SlowClientIsReapedWithoutDisturbingOthers) {
  DaemonOptions options;
  options.service.workers = 1;
  options.io_timeout_ms = 150;
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), options);
  daemon.Start();

  // The slow-loris client: half a request, then silence.
  std::unique_ptr<util::Conn> slow = util::ConnectTcp(port);
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(slow->WriteAll(R"({"op":"pi)"));

  // A well-behaved client on another connection is unaffected while the
  // slow one sits in its timeout window.
  std::unique_ptr<util::Conn> good = util::ConnectTcp(port);
  ASSERT_NE(good, nullptr);
  EXPECT_TRUE(RoundTrip(*good, R"({"op":"ping"})").Get("ok").AsBool());

  // The daemon reaps the stalled connection with a typed error...
  std::string line;
  ASSERT_TRUE(slow->ReadLine(line));
  const json::Value reaped = json::Parse(line);
  EXPECT_FALSE(reaped.Get("ok").AsBool());
  EXPECT_EQ(reaped.Get("error_kind").AsString(), "timeout");
  // ... and closes it: the next read sees EOF — or ECONNRESET, when the
  // close raced bytes the server never consumed.
  EXPECT_NE(slow->ReadLineBounded(line), util::ReadStatus::kOk);

  // The daemon itself is unharmed: a fresh client still gets served.  (The
  // earlier `good` connection has been idle past io_timeout_ms by now and
  // is legitimately reaped too — the timeout doubles as an idle reaper.)
  std::unique_ptr<util::Conn> fresh = util::ConnectTcp(port);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(RoundTrip(*fresh, R"({"op":"ping"})").Get("ok").AsBool());
  daemon.Stop();
}

TEST_F(ServerCancel, OverlongLineGetsTypedErrorAndClose) {
  DaemonOptions options;
  options.service.workers = 1;
  options.max_line_bytes = 1'024;
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), options);
  daemon.Start();

  std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
  ASSERT_NE(conn, nullptr);
  // Far past the bound with no newline: an unframed (or hostile) stream.
  ASSERT_TRUE(conn->WriteAll(std::string(8'192, 'x')));
  std::string line;
  ASSERT_TRUE(conn->ReadLine(line));
  const json::Value rejected = json::Parse(line);
  EXPECT_FALSE(rejected.Get("ok").AsBool());
  EXPECT_EQ(rejected.Get("error_kind").AsString(), "overlong_line");
  // Closed with unread bytes pending, so EOF or a reset — never a line.
  EXPECT_NE(conn->ReadLineBounded(line), util::ReadStatus::kOk);

  // The socket-layer tally must count even though no compute ever ran
  // (metrics scopes were never enabled) — a hostile peer usually shows
  // up while the daemon is idle.
  std::unique_ptr<util::Conn> fresh = util::ConnectTcp(port);
  ASSERT_NE(fresh, nullptr);
  const json::Value stats = RoundTrip(*fresh, "{\"op\":\"stats\"}\n");
  ASSERT_TRUE(stats.Get("ok").AsBool());
  EXPECT_EQ(stats.Get("stats").Get("server").Get("overlong_lines").AsDouble(),
            1.0);
  daemon.Stop();
}

TEST_F(ServerCancel, CancelOpReachesASubmitOnAnotherConnection) {
  DaemonOptions options;
  options.service.workers = 1;
  util::Listener listener = util::Listener::Tcp(0);
  ASSERT_TRUE(listener.Valid()) << listener.Error();
  const int port = listener.BoundPort();
  Daemon daemon(std::move(listener), options);
  daemon.Start();
  util::faultpoint::Arm(kStall, 1.0, 11);

  json::Value submit_response;
  std::thread submitter([&] {
    std::unique_ptr<util::Conn> conn = util::ConnectTcp(port);
    ASSERT_NE(conn, nullptr);
    submit_response = RoundTrip(*conn, SubmitLine("biquad", "wire-1"));
  });
  ASSERT_TRUE(WaitForProgress(1));

  std::unique_ptr<util::Conn> control = util::ConnectTcp(port);
  ASSERT_NE(control, nullptr);
  // Cancelling a request that never existed reports false, not an error.
  const json::Value miss =
      RoundTrip(*control, R"({"op":"cancel","request_id":"ghost"})");
  EXPECT_TRUE(miss.Get("ok").AsBool());
  EXPECT_FALSE(miss.Get("cancelled").AsBool());

  const json::Value hit =
      RoundTrip(*control, R"({"op":"cancel","request_id":"wire-1"})");
  EXPECT_TRUE(hit.Get("ok").AsBool());
  EXPECT_TRUE(hit.Get("cancelled").AsBool());

  submitter.join();
  EXPECT_FALSE(submit_response.Get("ok").AsBool());
  EXPECT_EQ(submit_response.Get("error_kind").AsString(), "cancelled");
  EXPECT_EQ(submit_response.Get("exit_code").AsDouble(), 4.0);
  EXPECT_EQ(submit_response.Get("request_id").AsString(), "wire-1");
  daemon.Stop();
}

// --- real-binary smoke: the shipped daemon reaps a stalled client ---------

TEST_F(ServerCancel, RealDaemonReapsAStalledClient) {
  const fs::path bin_dir = dir_ / "bin";
  fs::create_directories(bin_dir);
  const std::string sock = (bin_dir / "d.sock").string();
  const std::string log = (bin_dir / "daemon.log").string();
  const int status = std::system((std::string(MCDFT_MCDFTD_BIN) +
                                  " --socket " + sock +
                                  " --workers 1 --io-timeout-ms 300 > " +
                                  log + " 2>&1 &")
                                     .c_str());
  ASSERT_NE(status, -1);
  bool up = false;
  for (int i = 0; i < 100 && !up; ++i) {
    ::usleep(50 * 1000);
    up = fs::exists(sock);
  }
  ASSERT_TRUE(up);

  std::unique_ptr<util::Conn> slow = util::ConnectUnix(sock);
  ASSERT_NE(slow, nullptr);
  ASSERT_TRUE(slow->WriteAll(R"({"op":"st)"));  // half a line, then stall
  std::string line;
  ASSERT_TRUE(slow->ReadLine(line));
  const json::Value reaped = json::Parse(line);
  EXPECT_FALSE(reaped.Get("ok").AsBool());
  EXPECT_EQ(reaped.Get("error_kind").AsString(), "timeout");
  EXPECT_EQ(slow->ReadLineBounded(line), util::ReadStatus::kEof);

  // The daemon survived its rude client: a fresh connection shuts it down
  // cleanly over the wire.
  std::unique_ptr<util::Conn> control = util::ConnectUnix(sock);
  ASSERT_NE(control, nullptr);
  EXPECT_TRUE(RoundTrip(*control, R"({"op":"shutdown"})").Get("ok").AsBool());
  bool down = false;
  for (int i = 0; i < 100 && !down; ++i) {
    ::usleep(50 * 1000);
    down = !fs::exists(sock);
  }
  EXPECT_TRUE(down);
}

}  // namespace
}  // namespace mcdft::core::server
