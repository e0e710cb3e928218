// ResultCache (core/cache/result_cache.hpp): memory/disk tiering, the
// MCDFT_CACHE_MB escape hatch, and — the load-bearing part — disk-tier
// fault injection: a spill interrupted at any stage (short write, fsync,
// rename) or a corrupted record must degrade to a recompute that converges
// back to the reference bytes, never to serving damaged data.
#include "core/cache/result_cache.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "util/error.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

namespace fs = std::filesystem;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_result_cache_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  ResultCacheOptions DiskOptions() {
    ResultCacheOptions options;
    options.disk_dir = dir_.string();
    return options;
  }

  static CachedRun Reference() {
    CachedRun run;
    run.report_json = "{\n  \"schema\": \"mcdft.run_report/4\",\n"
                      "  \"payload\": \"reference bytes\"\n}\n";
    run.exit_code = 3;
    run.quarantined_cells = 17;
    return run;
  }

  static void ExpectReference(const std::optional<CachedRun>& hit) {
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report_json, Reference().report_json);
    EXPECT_EQ(hit->exit_code, 3);
    EXPECT_EQ(hit->quarantined_cells, 17u);
  }

  fs::path dir_;
};

TEST_F(ResultCacheTest, MemoryTierRoundTripsExactBytesAndExitCode) {
  ResultCache cache(ResultCacheOptions{});  // memory only
  EXPECT_FALSE(cache.Lookup("k").has_value());
  cache.Store("k", Reference());

  std::string tier;
  ExpectReference(cache.Lookup("k", &tier));
  EXPECT_EQ(tier, "memory");
  EXPECT_EQ(cache.DiskPathOf("k"), "");  // no disk tier configured
}

TEST_F(ResultCacheTest, DiskTierSurvivesRestartAndPromotesToMemory) {
  {
    ResultCache cache(DiskOptions());
    cache.Store("k", Reference());
    ASSERT_TRUE(fs::exists(cache.DiskPathOf("k")));
  }
  // "Restart": a fresh cache over the same directory has an empty memory
  // tier; the first lookup restores from disk, the second hits memory.
  ResultCache restarted(DiskOptions());
  std::string tier;
  ExpectReference(restarted.Lookup("k", &tier));
  EXPECT_EQ(tier, "disk");
  ExpectReference(restarted.Lookup("k", &tier));
  EXPECT_EQ(tier, "memory");
}

TEST_F(ResultCacheTest, CapacityZeroDisablesBothTiers) {
  ResultCacheOptions options = DiskOptions();
  options.capacity_bytes = 0;
  ResultCache cache(options);
  EXPECT_FALSE(cache.Enabled());
  cache.Store("k", Reference());
  EXPECT_FALSE(cache.Lookup("k").has_value());
  EXPECT_FALSE(fs::exists(cache.DiskPathOf("k")));  // no spill either
}

TEST_F(ResultCacheTest, CacheCapacityFromEnvParsesAndFallsBack) {
  ::unsetenv("MCDFT_CACHE_MB");
  EXPECT_EQ(CacheCapacityFromEnv(256), std::size_t{256} << 20);
  ::setenv("MCDFT_CACHE_MB", "64", 1);
  EXPECT_EQ(CacheCapacityFromEnv(256), std::size_t{64} << 20);
  ::setenv("MCDFT_CACHE_MB", "0", 1);  // the documented escape hatch
  EXPECT_EQ(CacheCapacityFromEnv(256), 0u);
  ::setenv("MCDFT_CACHE_MB", "", 1);  // empty reads as unset
  EXPECT_EQ(CacheCapacityFromEnv(256), std::size_t{256} << 20);
  // Anything else that is not a whole integer >= 0 is an error naming the
  // variable, like a malformed flag — never a silent fallback.
  for (const char* bad : {"-5", "lots", "12x"}) {
    ::setenv("MCDFT_CACHE_MB", bad, 1);
    try {
      CacheCapacityFromEnv(256);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("MCDFT_CACHE_MB"),
                std::string::npos)
          << e.what();
    }
  }
  ::unsetenv("MCDFT_CACHE_MB");
}

// --- disk-tier fault injection -------------------------------------------
//
// Each write-side fault interrupts the spill at a different stage of the
// atomic tmp+fsync+rename protocol.  The contract is identical for all
// three: the memory tier still serves the entry, the damaged spill never
// becomes visible under the final path (or fails its CRC if a previous
// intact spill exists), and a post-fault store converges a fresh cache
// back to the reference bytes.

class ResultCacheWriteFault
    : public ResultCacheTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(ResultCacheWriteFault, SpillFailureIsToleratedAndRecoverable) {
  util::faultpoint::Arm(GetParam(), 1.0, 42);
  ResultCache cache(DiskOptions());
  cache.Store("k", Reference());

  // Memory tier is intact despite the failed spill.
  std::string tier;
  ExpectReference(cache.Lookup("k", &tier));
  EXPECT_EQ(tier, "memory");

  // Nothing (valid) landed on disk: a fresh cache misses...
  util::faultpoint::DisarmAll();
  {
    ResultCache fresh(DiskOptions());
    EXPECT_FALSE(fresh.Lookup("k").has_value());
  }
  // ...and the recompute's store converges back to the reference bytes.
  {
    ResultCache fresh(DiskOptions());
    fresh.Store("k", Reference());
  }
  ResultCache verify(DiskOptions());
  ExpectReference(verify.Lookup("k", &tier));
  EXPECT_EQ(tier, "disk");
}

INSTANTIATE_TEST_SUITE_P(AllStages, ResultCacheWriteFault,
                         ::testing::Values("cache.write.short",
                                           "cache.write.fsync",
                                           "cache.write.rename"));

TEST_F(ResultCacheTest, FailedSpillNeverClobbersAnIntactPreviousSpill) {
  // First spill succeeds; a later overwrite dies mid-write.  The atomic
  // protocol must leave the original record readable.
  ResultCache cache(DiskOptions());
  cache.Store("k", Reference());

  util::faultpoint::Arm("cache.write.short", 1.0, 7);
  CachedRun updated = Reference();
  updated.report_json += "updated\n";
  cache.Store("k", updated);
  util::faultpoint::DisarmAll();

  ResultCache fresh(DiskOptions());
  std::string tier;
  ExpectReference(fresh.Lookup("k", &tier));  // the *original* bytes
  EXPECT_EQ(tier, "disk");
}

TEST_F(ResultCacheTest, CorruptDiskRecordIsDetectedAndTreatedAsMiss) {
  std::string path;
  {
    ResultCache cache(DiskOptions());
    cache.Store("k", Reference());
    path = cache.DiskPathOf("k");
  }
  // Flip one byte in the middle of the record: the CRC seal must catch it.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(text.size(), 40u);
  text[text.size() / 2] ^= 0x20;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

  ResultCache fresh(DiskOptions());
  EXPECT_FALSE(fresh.Lookup("k").has_value());

  // Salvage-or-recompute: storing again overwrites the damage and the
  // bytes served afterwards are exactly the reference again.
  fresh.Store("k", Reference());
  ResultCache verify(DiskOptions());
  std::string tier;
  ExpectReference(verify.Lookup("k", &tier));
  EXPECT_EQ(tier, "disk");
}

TEST_F(ResultCacheTest, TruncatedDiskRecordIsTreatedAsMiss) {
  std::string path;
  {
    ResultCache cache(DiskOptions());
    cache.Store("k", Reference());
    path = cache.DiskPathOf("k");
  }
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << text.substr(0, text.size() / 2);

  ResultCache fresh(DiskOptions());
  EXPECT_FALSE(fresh.Lookup("k").has_value());
}

TEST_F(ResultCacheTest, InjectedReadFaultDegradesToMiss) {
  {
    ResultCache cache(DiskOptions());
    cache.Store("k", Reference());
  }
  util::faultpoint::Arm("cache.read.record", 1.0, 42);
  ResultCache fresh(DiskOptions());
  EXPECT_FALSE(fresh.Lookup("k").has_value());

  // Disarmed, the same spill reads back fine — the fault was injected,
  // not real damage.
  util::faultpoint::DisarmAll();
  ResultCache verify(DiskOptions());
  std::string tier;
  ExpectReference(verify.Lookup("k", &tier));
  EXPECT_EQ(tier, "disk");
}

TEST_F(ResultCacheTest, WrongKeyInRecordIsRejected) {
  // A record copied to the wrong filename (or a key collision) must not be
  // served: the sealed record carries its own key.
  ResultCache cache(DiskOptions());
  cache.Store("k1", Reference());
  fs::copy_file(cache.DiskPathOf("k1"), cache.DiskPathOf("k2"));

  ResultCache fresh(DiskOptions());
  EXPECT_FALSE(fresh.Lookup("k2").has_value());
  EXPECT_TRUE(fresh.Lookup("k1").has_value());
}

}  // namespace
}  // namespace mcdft::core
