// CampaignService byte-equality battery (the daemon's hard contract): a
// cache hit — memory, single-flight dedup, or disk-restored after a
// "restart" — returns byte-identical report bytes to the cold run, with
// the quarantine list and exit-code-3 semantics riding along unchanged.
// Thread-count differences must hit the same cache entry: threads are
// deliberately excluded from the content hash.
#include "core/server/service.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "util/faultpoint.hpp"
#include "util/json.hpp"

namespace mcdft::core::server {
namespace {

namespace fs = std::filesystem;

/// The resilience suite's poisoned-biquad pattern, expressed through the
/// request schema: a dangling 1e200 ohm resistor whose deviation-up fault
/// overflows the floating-point range — every ladder stage fails and the
/// cell quarantines.
constexpr const char* kPoisonedDeck = R"(poisoned filter
V1 in 0 AC 1
R1 in minus 1k
R2 minus out 1k
C1 minus out 100n
O1 0 minus out A0=1e6
RQ out qx 1e200
.probe v(out)
.end
)";

CampaignRequest SmallRequest(const std::string& circuit,
                             int max_followers = -1) {
  CampaignRequest r;
  r.circuit = circuit;
  r.ppd = 4;
  r.samples = 4;
  r.max_followers = max_followers;
  return r;
}

CampaignRequest PoisonedRequest() {
  CampaignRequest r;
  r.deck = kPoisonedDeck;
  r.ppd = 4;
  r.samples = 4;
  ExtraFault poison;
  poison.device = "RQ";
  poison.kind = "up";
  poison.magnitude = 1e150;
  r.extra_faults.push_back(poison);
  return r;
}

class ServerService : public ::testing::Test {
 protected:
  void SetUp() override {
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_server_service_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceOptions DiskOptions() {
    ServiceOptions options;
    options.workers = 2;
    options.cache.disk_dir = dir_.string();
    return options;
  }

  fs::path dir_;
};

TEST_F(ServerService, ColdWarmAndDiskRestoredReportsAreByteEqual) {
  // The zoo battery: the paper's biquad, the KHN state-variable filter,
  // and the 9-opamp cascade6 (follower cap 1 keeps the config set small).
  const CampaignRequest requests[] = {
      SmallRequest("biquad"), SmallRequest("khn"),
      SmallRequest("cascade6", 1)};
  std::string cold_bytes[3];

  {
    CampaignService service(DiskOptions());
    for (int i = 0; i < 3; ++i) {
      const SubmitOutcome cold = service.Submit(requests[i]);
      ASSERT_TRUE(cold.ok) << cold.error;
      EXPECT_EQ(cold.cache_tier, "compute");
      EXPECT_EQ(cold.exit_code, 0);
      ASSERT_FALSE(cold.report_json.empty());
      cold_bytes[i] = cold.report_json;

      const SubmitOutcome warm = service.Submit(requests[i]);
      ASSERT_TRUE(warm.ok) << warm.error;
      EXPECT_EQ(warm.cache_tier, "memory");
      EXPECT_EQ(warm.key, cold.key);
      EXPECT_EQ(warm.exit_code, cold.exit_code);
      EXPECT_EQ(warm.report_json, cold_bytes[i]) << requests[i].circuit;
    }
  }

  // "Restart" the daemon: a fresh service over the same spill directory
  // restores every report from the disk tier, byte-identical.
  CampaignService restarted(DiskOptions());
  for (int i = 0; i < 3; ++i) {
    const SubmitOutcome restored = restarted.Submit(requests[i]);
    ASSERT_TRUE(restored.ok) << restored.error;
    EXPECT_EQ(restored.cache_tier, "disk");
    EXPECT_EQ(restored.report_json, cold_bytes[i]) << requests[i].circuit;
  }
}

TEST_F(ServerService, ThreadCountsShareOneCacheEntry) {
  // Threads are excluded from CampaignContentHash: requests differing only
  // in thread count are the same work and must share bytes.  Cold-run at
  // 1 thread, then hit from 2 and 8.
  CampaignService service(DiskOptions());
  CampaignRequest request = SmallRequest("biquad");
  request.threads = 1;
  const SubmitOutcome cold = service.Submit(request);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cold.cache_tier, "compute");

  for (int threads : {2, 8}) {
    request.threads = threads;
    const SubmitOutcome warm = service.Submit(request);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cache_tier, "memory") << threads;
    EXPECT_EQ(warm.key, cold.key) << threads;
    EXPECT_EQ(warm.report_json, cold.report_json) << threads;
  }
}

TEST_F(ServerService, QuarantineExitCodeSurvivesEveryCacheTier) {
  const CampaignRequest poisoned = PoisonedRequest();
  std::string cold_bytes;
  std::string key;
  {
    CampaignService service(DiskOptions());
    const SubmitOutcome cold = service.Submit(poisoned);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.cache_tier, "compute");
    EXPECT_EQ(cold.exit_code, kExitQuarantine);
    EXPECT_GT(cold.quarantined_cells, 0u);
    cold_bytes = cold.report_json;
    key = cold.key;

    // The report carries the per-config quarantine lists — the degraded
    // cells are named, not silently dropped.
    const util::json::Value report = util::json::Parse(cold_bytes);
    const util::json::Value& campaign = report.Get("campaign");
    EXPECT_GT(campaign.Get("cells").Get("quarantined").AsDouble(), 0.0);
    bool found_list = false;
    for (const auto& row : campaign.Get("per_config").Items()) {
      if (row.Find("quarantine") != nullptr) {
        found_list = true;
        for (const auto& q : row.Get("quarantine").Items()) {
          EXPECT_EQ(q.Get("device").AsString(), "RQ");
        }
      }
    }
    EXPECT_TRUE(found_list);

    const SubmitOutcome warm = service.Submit(poisoned);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.cache_tier, "memory");
    EXPECT_EQ(warm.exit_code, kExitQuarantine);
    EXPECT_EQ(warm.quarantined_cells, cold.quarantined_cells);
    EXPECT_EQ(warm.report_json, cold_bytes);
  }

  CampaignService restarted(DiskOptions());
  const SubmitOutcome restored = restarted.Submit(poisoned);
  ASSERT_TRUE(restored.ok);
  EXPECT_EQ(restored.cache_tier, "disk");
  EXPECT_EQ(restored.key, key);
  EXPECT_EQ(restored.exit_code, kExitQuarantine);
  EXPECT_EQ(restored.report_json, cold_bytes);
}

TEST_F(ServerService, DisabledCacheComputesEveryTimeButStaysBitIdentical) {
  // MCDFT_CACHE_MB=0 semantics: no memoization, every submit computes.
  // Timing bytes differ between runs, but the campaign payload — the
  // science — must still be bit-identical (determinism contract).
  ServiceOptions options;
  options.cache.capacity_bytes = 0;
  CampaignService service(options);
  const CampaignRequest request = SmallRequest("biquad");

  const SubmitOutcome first = service.Submit(request);
  const SubmitOutcome second = service.Submit(request);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.cache_tier, "compute");
  EXPECT_EQ(second.cache_tier, "compute");

  const util::json::Value a = util::json::Parse(first.report_json);
  const util::json::Value b = util::json::Parse(second.report_json);
  EXPECT_EQ(a.Get("campaign").Serialize(0), b.Get("campaign").Serialize(0));
}

TEST_F(ServerService, DaemonReportsCarryCacheAndServerCounterGroups) {
  CampaignService service(DiskOptions());
  const SubmitOutcome cold = service.Submit(SmallRequest("biquad"));
  ASSERT_TRUE(cold.ok) << cold.error;
  const util::json::Value report = util::json::Parse(cold.report_json);
  EXPECT_EQ(report.Get("schema").AsString(), "mcdft.run_report/10");
  EXPECT_EQ(report.Get("tool").AsString(), "mcdftd");
  EXPECT_NE(report.Get("cache").Find("factor"), nullptr);
  EXPECT_NE(report.Find("server"), nullptr);
  // The server.request trace span wraps the compute.
  bool saw_span = false;
  for (const auto& row : report.Get("phases").Items()) {
    if (row.Get("name").AsString() == "server.request") saw_span = true;
  }
  EXPECT_TRUE(saw_span);
}

TEST_F(ServerService, BadRequestsErrorWithoutPoisoningTheCache) {
  CampaignService service(DiskOptions());
  CampaignRequest bad;
  bad.circuit = "no-such-circuit";
  const SubmitOutcome outcome = service.Submit(bad);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.exit_code, 1);
  EXPECT_NE(outcome.error.find("no-such-circuit"), std::string::npos);

  ExtraFault nonsense;
  nonsense.device = "R1";
  nonsense.kind = "sideways";
  CampaignRequest bad_fault = SmallRequest("biquad");
  bad_fault.extra_faults.push_back(nonsense);
  const SubmitOutcome outcome2 = service.Submit(bad_fault);
  EXPECT_FALSE(outcome2.ok);
  EXPECT_EQ(outcome2.exit_code, 1);

  // A good request still works — errors did not wedge queue or flights.
  const SubmitOutcome good = service.Submit(SmallRequest("biquad"));
  EXPECT_TRUE(good.ok) << good.error;
}

TEST_F(ServerService, StatsJsonTracksRequestsAndHits) {
  CampaignService service(DiskOptions());
  (void)service.Submit(SmallRequest("biquad"));
  (void)service.Submit(SmallRequest("biquad"));

  const util::json::Value stats = service.StatsJson();
  EXPECT_EQ(stats.Get("server").Get("requests").AsDouble(), 2.0);
  EXPECT_EQ(stats.Get("server").Get("computed").AsDouble(), 1.0);
  EXPECT_EQ(stats.Get("server").Get("cache_hits").AsDouble(), 1.0);
  EXPECT_GE(stats.Get("cache").Get("entries").AsDouble(), 1.0);
  EXPECT_GT(stats.Get("factor_cache").Get("entries").AsDouble(), 0.0);
}

}  // namespace
}  // namespace mcdft::core::server
