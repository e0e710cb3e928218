// Shard partition math and campaign content hashing (core/shard).
//
// The partition properties proved here — disjoint, gap-free, full coverage
// for any shard count, with units split only at configuration boundaries —
// are what make the sharded executor's "bit-identical merge" claim a
// matter of per-cell determinism alone (see core_shard_merge_test.cpp).
#include <gtest/gtest.h>

#include <set>

#include "circuits/zoo.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "util/error.hpp"

namespace mcdft::core {
namespace {

TEST(ShardSpec, ValidateAcceptsInRangeAndRejectsOutOfRange) {
  EXPECT_NO_THROW((ShardSpec{0, 1}.Validate()));
  EXPECT_NO_THROW((ShardSpec{2, 3}.Validate()));
  EXPECT_THROW((ShardSpec{0, 0}.Validate()), util::AnalysisError);
  EXPECT_THROW((ShardSpec{3, 3}.Validate()), util::AnalysisError);
  EXPECT_THROW((ShardSpec{7, 2}.Validate()), util::AnalysisError);
}

TEST(ShardSpec, NameEmbedsIndexAndCount) {
  EXPECT_EQ((ShardSpec{0, 1}.Name()), "0of1");
  EXPECT_EQ((ShardSpec{2, 16}.Name()), "2of16");
}

TEST(ShardSpec, ParseRoundTripsAndRejectsMalformedInput) {
  EXPECT_EQ(ParseShardSpec("0/1"), (ShardSpec{0, 1}));
  EXPECT_EQ(ParseShardSpec("2/3"), (ShardSpec{2, 3}));
  for (const char* bad : {"", "1", "/", "1/", "/3", "a/3", "1/b", "3/3",
                          "-1/3", "1/3/5", "1 / 3"}) {
    EXPECT_THROW(ParseShardSpec(bad), util::AnalysisError) << "'" << bad << "'";
  }
}

TEST(ShardPartition, CellRangesTileTheMatrixForAnyShardCount) {
  // Deliberately awkward sizes: cells not divisible by count, fewer cells
  // than shards, single fault, single config.
  const std::size_t shapes[][2] = {{1, 1}, {1, 7}, {5, 1}, {3, 17}, {16, 23}};
  for (const auto& shape : shapes) {
    const std::size_t configs = shape[0], faults = shape[1];
    const std::size_t cells = configs * faults;
    for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{7}, cells + 3}) {
      std::size_t expected_begin = 0;
      for (std::size_t index = 0; index < count; ++index) {
        const auto [begin, end] =
            ShardCellRange(configs, faults, ShardSpec{index, count});
        EXPECT_EQ(begin, expected_begin)
            << configs << "x" << faults << " shard " << index << "/" << count;
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, cells) << configs << "x" << faults
                                       << " count " << count;
    }
  }
}

TEST(ShardPartition, UnitsCoverEveryCellExactlyOnce) {
  const std::size_t configs = 5, faults = 13;
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                            std::size_t{9}, std::size_t{100}}) {
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (std::size_t index = 0; index < count; ++index) {
      for (const ShardUnit& u : ShardUnits(configs, faults,
                                           ShardSpec{index, count})) {
        EXPECT_LT(u.config, configs);
        EXPECT_LT(u.fault_begin, u.fault_end);  // no empty units
        EXPECT_LE(u.fault_end, faults);
        for (std::size_t j = u.fault_begin; j < u.fault_end; ++j) {
          EXPECT_TRUE(seen.emplace(u.config, j).second)
              << "cell (" << u.config << ", " << j << ") owned twice at count "
              << count;
        }
      }
    }
    EXPECT_EQ(seen.size(), configs * faults) << "count " << count;
  }
}

TEST(ShardPartition, UnitsSplitOnlyAtConfigurationBoundaries) {
  // Within one shard each configuration contributes at most one unit, and
  // units arrive in campaign (config-major) order.
  for (std::size_t count : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    for (std::size_t index = 0; index < count; ++index) {
      const auto units = ShardUnits(4, 11, ShardSpec{index, count});
      for (std::size_t k = 1; k < units.size(); ++k) {
        EXPECT_LT(units[k - 1].config, units[k].config);
      }
    }
  }
}

TEST(ShardHash, Fnv1a64MatchesReferenceVectors) {
  // Standard FNV-1a test vectors (64-bit).
  EXPECT_EQ(Fnv1a64Hex(""), "cbf29ce484222325");
  EXPECT_EQ(Fnv1a64Hex("a"), "af63dc4c8601ec8c");
  EXPECT_EQ(Fnv1a64Hex("foobar"), "85944171f73967e8");
}

class ShardContentHash : public ::testing::Test {
 protected:
  void SetUp() override {
    auto block = circuits::FindInZoo("biquad").build();
    circuit_ = std::make_unique<DftCircuit>(DftCircuit::Transform(block));
    fault_list_ = faults::MakeDeviationFaults(circuit_->Circuit());
    configs_ = {ConfigVector(circuit_->ConfigurableOpamps().size())};
    options_ = MakePaperCampaignOptions();
    options_.points_per_decade = 5;
    options_.tolerance->samples = 6;
  }

  std::string Hash(const CampaignOptions& options) const {
    return CampaignContentHash(*circuit_, fault_list_, configs_, options);
  }

  std::unique_ptr<DftCircuit> circuit_;
  std::vector<faults::Fault> fault_list_;
  std::vector<ConfigVector> configs_;
  CampaignOptions options_;
};

TEST_F(ShardContentHash, StableAcrossCallsAndThreadCounts) {
  const std::string base = Hash(options_);
  EXPECT_EQ(base.size(), 16u);
  EXPECT_EQ(Hash(options_), base);

  // Results are invariant to the worker count, so the hash must be too —
  // otherwise a checkpoint written on an 8-core CI box could not resume on
  // a 4-core one.
  CampaignOptions threaded = options_;
  threaded.threads = 8;
  EXPECT_EQ(Hash(threaded), base);
}

TEST_F(ShardContentHash, ScreenGateHashesOnOffAndMargin) {
  // Screened cells store first-order synthetic deviations instead of the
  // exact ones, so a screened checkpoint must never merge with an
  // unscreened one — the gate and the guard margin are both part of the
  // content hash.
  const std::string base = Hash(options_);  // default: screen on

  CampaignOptions off = options_;
  off.mna.sensitivity_screen = false;
  const std::string unscreened = Hash(off);
  EXPECT_NE(unscreened, base);

  // The margin is the constant faults::kScreenMargin, and the solver
  // backend fields are gone; both still fold in as the bytes they always
  // had.  These pins also carry the shared-envelope fold
  // (`|envelope=shared`) of AC campaigns with a tolerance model.
  EXPECT_EQ(base, "e0fe908d864c364c");
  EXPECT_EQ(unscreened, "8e48430874074add");

  // Transient campaigns have no AC screen: the gate is not hashed there.
  CampaignOptions transient = options_;
  transient.analysis = CampaignAnalysis::kTransient;
  transient.transient_steps = 24;
  CampaignOptions transient_noscreen = transient;
  transient_noscreen.mna.sensitivity_screen = false;
  EXPECT_EQ(Hash(transient), Hash(transient_noscreen));
}

TEST_F(ShardContentHash, EnvelopeFoldLeavesEnvelopeFreeHashesAlone) {
  // Only AC campaigns with a tolerance model compute envelopes, so only
  // they fold `|envelope=shared`: transient campaigns and AC campaigns
  // without a tolerance model keep the keys they had before the fold (the
  // pins are those older keys), and their checkpoints and cache records
  // stay valid.
  CampaignOptions transient = options_;
  transient.analysis = CampaignAnalysis::kTransient;
  transient.transient_steps = 24;
  EXPECT_EQ(Hash(transient), "ea262fd47cf32310");

  CampaignOptions no_tolerance = options_;
  no_tolerance.tolerance.reset();
  EXPECT_EQ(Hash(no_tolerance), "86ec95384d1e16c5");
  no_tolerance.mna.sensitivity_screen = false;
  EXPECT_EQ(Hash(no_tolerance), "88c6abab08c9ada4");
}

TEST_F(ShardContentHash, SensitiveToEveryNumberBearingInput) {
  const std::string base = Hash(options_);

  CampaignOptions eps = options_;
  eps.criteria.epsilon *= 1.5;
  EXPECT_NE(Hash(eps), base);

  CampaignOptions floor = options_;
  floor.criteria.relative_floor += 0.05;
  EXPECT_NE(Hash(floor), base);

  CampaignOptions grid = options_;
  grid.points_per_decade += 1;
  EXPECT_NE(Hash(grid), base);

  CampaignOptions seed = options_;
  seed.tolerance->seed ^= 1;
  EXPECT_NE(Hash(seed), base);

  CampaignOptions anchor = options_;
  anchor.anchor_hz = 1234.5;
  EXPECT_NE(Hash(anchor), base);

  // A different fault list or configuration set is a different campaign.
  auto fewer_faults = fault_list_;
  fewer_faults.pop_back();
  EXPECT_NE(CampaignContentHash(*circuit_, fewer_faults, configs_, options_),
            base);

  auto more_configs = configs_;
  auto flipped = ConfigVector(circuit_->ConfigurableOpamps().size());
  flipped.SetSelection(0, true);
  more_configs.push_back(flipped);
  EXPECT_NE(CampaignContentHash(*circuit_, fault_list_, more_configs, options_),
            base);
}

}  // namespace
}  // namespace mcdft::core
