// The sharded executor's acceptance claim (ISSUE 3): merging shard
// checkpoints reconstitutes a CampaignResult BIT-identical to the
// monolithic RunCampaign for any shard count, and a killed-and-resumed
// shard converges to exactly the bytes an uninterrupted run writes.
//
// Uses the biquad and the 6-opamp cascade with the same fast settings as
// core_campaign_determinism_test.cpp (grid density and sample count are
// irrelevant to the partition-reassembly claim).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "circuits/zoo.hpp"
#include "core/checkpoint.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

namespace fs = std::filesystem;

CampaignOptions FastOptions() {
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 5;
  options.tolerance->samples = 6;
  options.threads = 2;
  return options;
}

std::vector<ConfigVector> SmallConfigSet(const DftCircuit& circuit) {
  auto space = circuit.Space();
  std::vector<ConfigVector> configs = space.OpampCount() > 5
                                          ? space.UpToKFollowers(1)
                                          : space.UpToKFollowers(2);
  std::erase_if(configs,
                [](const ConfigVector& cv) { return cv.IsTransparent(); });
  return configs;
}

/// Bitwise comparison including the derived summaries the run report
/// prints (coverage, average omega-detectability).
void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.ConfigCount(), b.ConfigCount()) << what;
  ASSERT_EQ(a.FaultCount(), b.FaultCount()) << what;
  EXPECT_EQ(a.DetectabilityMatrix(), b.DetectabilityMatrix()) << what;
  EXPECT_EQ(a.Coverage(), b.Coverage()) << what;
  EXPECT_EQ(a.AverageOmegaDet(), b.AverageOmegaDet()) << what;

  const auto omega_a = a.OmegaTable();
  const auto omega_b = b.OmegaTable();
  for (std::size_t i = 0; i < omega_a.size(); ++i) {
    for (std::size_t j = 0; j < omega_a[i].size(); ++j) {
      EXPECT_EQ(omega_a[i][j], omega_b[i][j])
          << what << " omega[" << i << "][" << j << "]";
    }
  }
  for (std::size_t i = 0; i < a.ConfigCount(); ++i) {
    const ConfigResult& ra = a.PerConfig()[i];
    const ConfigResult& rb = b.PerConfig()[i];
    EXPECT_EQ(ra.config, rb.config) << what;
    EXPECT_EQ(ra.threshold, rb.threshold) << what << " threshold row " << i;
    EXPECT_EQ(ra.relative_floor, rb.relative_floor) << what;
    EXPECT_EQ(ra.AverageOmegaDet(), rb.AverageOmegaDet()) << what;
    ASSERT_EQ(ra.nominal.PointCount(), rb.nominal.PointCount()) << what;
    for (std::size_t p = 0; p < ra.nominal.PointCount(); ++p) {
      EXPECT_EQ(ra.nominal.values[p], rb.nominal.values[p])
          << what << " nominal row " << i << " point " << p;
    }
  }
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

class ShardMerge : public ::testing::Test {
 protected:
  void SetUp() override {
    // Byte-identity claims require undisturbed checkpoint writes: opt out
    // of any armed-suite MCDFT_FAULTPOINTS spec.
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_shard_merge_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

struct Prepared {
  DftCircuit circuit;
  std::vector<faults::Fault> fault_list;
  std::vector<ConfigVector> configs;
};

Prepared PrepareCircuit(const char* name) {
  auto block = circuits::FindInZoo(name).build();
  DftCircuit circuit = DftCircuit::Transform(block);
  auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  auto configs = SmallConfigSet(circuit);
  return Prepared{std::move(circuit), std::move(fault_list),
                  std::move(configs)};
}

void CheckMergeMatchesMonolithic(const fs::path& dir, const char* name) {
  const Prepared p = PrepareCircuit(name);
  const CampaignOptions options = FastOptions();
  const CampaignResult monolithic =
      RunCampaign(p.circuit, p.fault_list, p.configs, options);

  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const fs::path ck =
        dir / (std::string(name) + "_" + std::to_string(count));
    std::vector<std::string> paths;
    std::size_t units_total = 0;
    for (std::size_t index = 0; index < count; ++index) {
      ShardRunOptions shard_options;
      shard_options.shard = ShardSpec{index, count};
      shard_options.checkpoint_dir = ck.string();
      const ShardRunResult run = RunCampaignShard(
          p.circuit, p.fault_list, p.configs, options, shard_options);
      EXPECT_TRUE(run.complete);
      EXPECT_EQ(run.units_resumed, 0u);
      units_total += run.units_total;
      paths.push_back(run.shard_path);
    }
    // Every configuration appears once per shard that owns cells on it, so
    // across shards there are at least as many units as configurations.
    EXPECT_GE(units_total, p.configs.size());

    const MergedCampaign merged = MergeShards(paths);
    EXPECT_EQ(merged.circuit, p.circuit.Name());
    EXPECT_EQ(merged.shard_files, count);
    ExpectBitIdentical(monolithic, merged.campaign,
                       std::string(name) + " @" + std::to_string(count) +
                           " shards");
  }
}

TEST_F(ShardMerge, BiquadMergedShardsBitIdenticalToMonolithic) {
  CheckMergeMatchesMonolithic(dir_, "biquad");
}

TEST_F(ShardMerge, Cascade6MergedShardsBitIdenticalToMonolithic) {
  CheckMergeMatchesMonolithic(dir_, "cascade6");
}

TEST_F(ShardMerge, KilledAndResumedShardWritesIdenticalBytes) {
  const Prepared p = PrepareCircuit("biquad");
  const CampaignOptions options = FastOptions();

  // Reference: shard 0/2 run to completion in one go.
  ShardRunOptions straight;
  straight.shard = ShardSpec{0, 2};
  straight.checkpoint_dir = (dir_ / "straight").string();
  const ShardRunResult whole =
      RunCampaignShard(p.circuit, p.fault_list, p.configs, options, straight);
  ASSERT_TRUE(whole.complete);
  ASSERT_GE(whole.units_total, 2u) << "need >= 2 units to simulate a kill";

  // Same shard, killed after one fresh unit, then resumed to completion.
  ShardRunOptions interrupted = straight;
  interrupted.checkpoint_dir = (dir_ / "interrupted").string();
  interrupted.max_new_units = 1;
  const ShardRunResult partial = RunCampaignShard(p.circuit, p.fault_list,
                                                  p.configs, options,
                                                  interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.units_run, 1u);

  interrupted.max_new_units = static_cast<std::size_t>(-1);
  const ShardRunResult resumed = RunCampaignShard(p.circuit, p.fault_list,
                                                  p.configs, options,
                                                  interrupted);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.units_resumed, 1u);
  EXPECT_EQ(resumed.units_run, whole.units_total - 1);

  // The acceptance bar: the resumed checkpoint is the same BYTES as the
  // uninterrupted one.
  EXPECT_EQ(ReadBytes(resumed.shard_path), ReadBytes(whole.shard_path));
}

TEST_F(ShardMerge, MergeRejectsGapsOverlapsAndForeignCampaigns) {
  const Prepared p = PrepareCircuit("biquad");
  const CampaignOptions options = FastOptions();

  std::vector<std::string> paths;
  for (std::size_t index = 0; index < 2; ++index) {
    ShardRunOptions shard_options;
    shard_options.shard = ShardSpec{index, 2};
    shard_options.checkpoint_dir = (dir_ / "pair").string();
    paths.push_back(RunCampaignShard(p.circuit, p.fault_list, p.configs,
                                     options, shard_options)
                        .shard_path);
  }

  // A missing shard is a coverage gap.
  EXPECT_THROW(MergeShards({paths[0]}), CheckpointError);
  // The same shard twice is overlapping coverage.
  EXPECT_THROW(MergeShards({paths[0], paths[1], paths[1]}), CheckpointError);

  // A shard of a different campaign (changed epsilon) cannot be mixed in.
  CampaignOptions changed = options;
  changed.criteria.epsilon *= 2.0;
  ShardRunOptions foreign;
  foreign.shard = ShardSpec{1, 2};
  foreign.checkpoint_dir = (dir_ / "foreign").string();
  const std::string foreign_path =
      RunCampaignShard(p.circuit, p.fault_list, p.configs, changed, foreign)
          .shard_path;
  EXPECT_THROW(MergeShards({paths[0], foreign_path}), CheckpointError);

  // The intact pair still merges.
  EXPECT_EQ(MergeShards(paths).shard_files, 2u);
}

}  // namespace
}  // namespace mcdft::core
