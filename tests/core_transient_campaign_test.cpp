// The transient workload class rides the same campaign spine as AC (ISSUE
// 8): catastrophic-fault step-response campaigns must keep every contract
// the AC path earned — bit-identical results across thread counts,
// shard-merge byte-equality against the monolithic run (quarantine
// bookkeeping included), a content hash that separates workload classes
// without disturbing existing AC hashes, and a daemon request schema whose
// new fields round-trip and validate.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <map>

#include "circuits/zoo.hpp"
#include "core/server/request.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "faults/simulator.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

namespace fs = std::filesystem;
namespace json = util::json;

CampaignOptions FastTransientOptions(std::size_t threads) {
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 5;  // band only anchors the auto window
  options.analysis = CampaignAnalysis::kTransient;
  options.transient_steps = 24;
  options.threads = threads;
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

struct Prepared {
  DftCircuit circuit;
  std::vector<faults::Fault> fault_list;
  std::vector<ConfigVector> configs;
};

Prepared PrepareCircuit(const char* name) {
  auto block = circuits::FindInZoo(name).build();
  DftCircuit circuit = DftCircuit::Transform(block);
  auto fault_list = faults::MakeCatastrophicFaults(circuit.Circuit());
  auto configs = SmallConfigSet(circuit);
  return Prepared{std::move(circuit), std::move(fault_list),
                  std::move(configs)};
}

/// Bitwise comparison of two transient campaign runs, including the
/// quarantine bookkeeping the run report and CLI exit code key off.
void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.ConfigCount(), b.ConfigCount()) << what;
  ASSERT_EQ(a.FaultCount(), b.FaultCount()) << what;
  EXPECT_EQ(a.DetectabilityMatrix(), b.DetectabilityMatrix()) << what;
  EXPECT_EQ(a.Coverage(), b.Coverage()) << what;
  EXPECT_EQ(a.AverageOmegaDet(), b.AverageOmegaDet()) << what;
  EXPECT_EQ(a.QuarantinedCellCount(), b.QuarantinedCellCount()) << what;

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
    ASSERT_EQ(ra.nominal.PointCount(), rb.nominal.PointCount()) << what;
    for (std::size_t p = 0; p < ra.nominal.PointCount(); ++p) {
      EXPECT_EQ(ra.nominal.values[p], rb.nominal.values[p])
          << what << " nominal row " << i << " point " << p;
    }
  }
}

TEST(TransientCampaign, BitIdenticalAcrossThreadCounts) {
  const Prepared p = PrepareCircuit("biquad");
  const CampaignResult serial =
      RunCampaign(p.circuit, p.fault_list, p.configs, FastTransientOptions(1));
  // A transient campaign probes time, not frequency: the grid must be the
  // requested step count, ascending in seconds, and catastrophic faults on
  // a working filter must trip at least one detection somewhere.
  ASSERT_GT(serial.ConfigCount(), 0u);
  ASSERT_EQ(serial.PerConfig()[0].nominal.PointCount(), 24u);
  EXPECT_GT(serial.Coverage(), 0.0);

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const CampaignResult parallel = RunCampaign(
        p.circuit, p.fault_list, p.configs, FastTransientOptions(threads));
    ExpectBitIdentical(serial, parallel,
                       "biquad transient @" + std::to_string(threads) +
                           " threads");
  }
}

class TransientShardMerge : public ::testing::Test {
 protected:
  void SetUp() override {
    // Byte-identity claims require undisturbed checkpoint writes: opt out
    // of any armed-suite MCDFT_FAULTPOINTS spec.
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_transient_shard_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(TransientShardMerge, MergeMatchesMonolithicForAnyShardCount) {
  const Prepared p = PrepareCircuit("biquad");
  const CampaignOptions options = FastTransientOptions(2);
  const CampaignResult monolithic =
      RunCampaign(p.circuit, p.fault_list, p.configs, options);

  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::string> paths;
    for (std::size_t index = 0; index < count; ++index) {
      ShardRunOptions shard_options;
      shard_options.shard = ShardSpec{index, count};
      shard_options.checkpoint_dir =
          (dir_ / ("shards" + std::to_string(count))).string();
      const ShardRunResult run = RunCampaignShard(
          p.circuit, p.fault_list, p.configs, options, shard_options);
      EXPECT_TRUE(run.complete) << count << " shards, index " << index;
      paths.push_back(run.shard_path);
    }
    const MergedCampaign merged = MergeShards(paths);
    EXPECT_EQ(merged.shard_files, count);
    ExpectBitIdentical(monolithic, merged.campaign,
                       std::to_string(count) + "-shard transient merge");
  }
}

/// Fold a double into a running FNV-1a 64 digest, reading -0 as +0: the
/// march's zero signs are not part of its contract.
std::uint64_t FoldValue(std::uint64_t digest, double v) {
  return util::faultpoint::DigestCombine(
      digest, std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
}

std::string Hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

// Every trajectory value (real and imaginary parts) and quarantine mask of
// every configuration at the CLI defaults (`mcdft analyze --analysis
// transient --faults catastrophic|both`), pinned per zoo circuit by FNV-1a
// 64 digest: how the march solves must not move a value.  The march is a
// pure function of its inputs, so the pins hold at any MCDFT_THREADS.
TEST(TransientCampaign, ZooTrajectoriesArePinned) {
  util::faultpoint::DisarmAll();
  const std::map<std::string, std::string> pins = {
      {"biquad/catastrophic", "1bd680364d876f2d"},
      {"khn/catastrophic", "a9529322c381bdb0"},
      {"ackerberg/catastrophic", "5f2bb194d8167527"},
      {"sallenkey/catastrophic", "9a0f6cb0acdf81f0"},
      {"inamp/catastrophic", "861e45dcafd28822"},
      {"notch/catastrophic", "598211ea6931c791"},
      {"leapfrog/catastrophic", "b88c97f9d71095d4"},
      {"cascade6/catastrophic", "12833f0a8aa48b31"},
      {"biquad/both", "c1aea15aa40b9096"},
      {"khn/both", "2216152b19a906e2"},
      {"ackerberg/both", "cf2a07ebdc4e0df5"},
      {"sallenkey/both", "2c5757ea10fc43c7"},
      {"inamp/both", "00f932e0d8703c49"},
      {"notch/both", "4aaf2d49272efcfd"},
      {"leapfrog/both", "43a32499d68d74f6"},
      {"cascade6/both", "faf4b16d7eada82f"},
  };
  for (const std::string universe : {"catastrophic", "both"}) {
    for (const auto& entry : circuits::Zoo()) {
      server::CampaignRequest request;
      request.circuit = entry.name;
      request.analysis = "transient";
      request.fault_universe = universe;
      const server::CampaignJob job = server::BuildCampaignJob(request);
      DftCircuit work = job.circuit.Clone();
      const CampaignFrame frame =
          BuildCampaignFrame(work, job.fault_list, job.options);
      std::uint64_t digest = util::faultpoint::DigestBytes(nullptr, 0);
      for (const ConfigVector& cv : job.configs) {
        const PreparedConfig prepared =
            PrepareCampaignConfig(work, frame, cv, job.options);
        const faults::FaultSimulator simulator(
            prepared.netlist, frame.sweep, frame.probe, job.options.mna);
        for (const spice::FrequencyResponse& r :
             simulator.SimulateTransientRange(
                 job.fault_list, 0, job.fault_list.size(),
                 job.options.threads, *frame.transient)) {
          for (std::size_t t = 0; t < r.PointCount(); ++t) {
            digest = FoldValue(digest, r.values[t].real());
            digest = FoldValue(digest, r.values[t].imag());
            digest = util::faultpoint::DigestCombine(digest,
                                                     r.QuarantinedAt(t));
          }
        }
      }
      const std::string key = std::string(entry.name) + "/" + universe;
      ASSERT_EQ(pins.count(key), 1u) << key << " " << Hex(digest);
      EXPECT_EQ(Hex(digest), pins.at(key)) << key;
    }
  }
}

TEST(TransientCampaign, ContentHashSeparatesWorkloadClasses) {
  const Prepared p = PrepareCircuit("biquad");
  CampaignOptions ac = MakePaperCampaignOptions();
  ac.points_per_decade = 5;
  CampaignOptions tr = ac;
  tr.analysis = CampaignAnalysis::kTransient;

  const auto hash = [&](const CampaignOptions& o) {
    return CampaignContentHash(p.circuit, p.fault_list, p.configs, o);
  };

  const std::string ac_hash = hash(ac);
  const std::string tr_hash = hash(tr);
  EXPECT_NE(ac_hash, tr_hash);

  // Every transient knob is hash-relevant: checkpoints from different
  // windows or grids must never merge.
  CampaignOptions longer = tr;
  longer.transient_t_end_s = 1e-3;
  EXPECT_NE(hash(longer), tr_hash);
  CampaignOptions denser = tr;
  denser.transient_steps = 512;
  EXPECT_NE(hash(denser), tr_hash);

  // But an AC campaign ignores them — existing AC checkpoints keep their
  // pre-transient content hash byte for byte.
  CampaignOptions ac_with_knobs = ac;
  ac_with_knobs.transient_t_end_s = 1e-3;
  ac_with_knobs.transient_steps = 512;
  EXPECT_EQ(hash(ac_with_knobs), ac_hash);

  // AC hashes pinned as literals, screen off and on.  They fold the
  // shared-envelope constant (`|envelope=shared`) since the tolerance
  // envelopes come from one pass over the functional configuration, so
  // checkpoints and cache records of per-configuration envelopes miss.
  CampaignOptions ac_unscreened = ac;
  ac_unscreened.mna.sensitivity_screen = false;
  EXPECT_EQ(hash(ac_unscreened), "fce33f63b7e23bb6");
  EXPECT_EQ(ac_hash, "6873022bd1fa7997");
}

TEST(TransientCampaign, AnalysisNamesRoundTrip) {
  EXPECT_EQ(CampaignAnalysisName(CampaignAnalysis::kAc), "ac");
  EXPECT_EQ(CampaignAnalysisName(CampaignAnalysis::kTransient), "transient");
  EXPECT_EQ(ParseCampaignAnalysis("ac"), CampaignAnalysis::kAc);
  EXPECT_EQ(ParseCampaignAnalysis("transient"), CampaignAnalysis::kTransient);
  EXPECT_FALSE(ParseCampaignAnalysis("dc").has_value());
  EXPECT_FALSE(ParseCampaignAnalysis("").has_value());
}

TEST(TransientCampaignRequest, WireFormatRoundTripsAndStaysBackCompat) {
  using server::CampaignRequest;
  using server::RequestFromJson;
  using server::RequestToJson;

  // A default (AC) request must not grow new wire fields: daemon dedup and
  // result-cache keys hash the serialized request, so existing clients'
  // submissions keep their bytes.
  const std::string default_wire = RequestToJson(CampaignRequest{}).Serialize();
  EXPECT_EQ(default_wire.find("analysis"), std::string::npos);
  EXPECT_EQ(default_wire.find("fault_universe"), std::string::npos);
  EXPECT_EQ(default_wire.find("transient"), std::string::npos);

  CampaignRequest r;
  r.analysis = "transient";
  r.fault_universe = "both";
  r.transient_t_end = 2.5e-4;
  r.transient_steps = 64;
  const CampaignRequest back =
      RequestFromJson(json::Parse(RequestToJson(r).Serialize()));
  EXPECT_EQ(back.analysis, "transient");
  EXPECT_EQ(back.fault_universe, "both");
  EXPECT_EQ(back.transient_t_end, 2.5e-4);
  EXPECT_EQ(back.transient_steps, 64);

  const auto parse = [](const std::string& body) {
    return RequestFromJson(json::Parse(body));
  };
  EXPECT_THROW(parse(R"({"analysis":"dc"})"), util::Error);
  EXPECT_THROW(parse(R"({"fault_universe":"melted"})"), util::Error);
  EXPECT_THROW(parse(R"({"transient_t_end":-1.0})"), util::Error);
  EXPECT_THROW(parse(R"({"transient_steps":-8})"), util::Error);
  EXPECT_THROW(parse(R"({"transient_steps":1e300})"), util::Error);
}

TEST(TransientCampaignRequest, BuildJobAppliesAnalysisDefaults) {
  using server::BuildCampaignJob;
  using server::CampaignRequest;

  // Transient submits default to the catastrophic fault universe; AC keeps
  // the deviation list.  Both land in the campaign options verbatim.
  CampaignRequest tr;
  tr.circuit = "biquad";
  tr.analysis = "transient";
  tr.transient_steps = 64;
  tr.samples = 6;
  tr.ppd = 5;
  const auto tr_job = BuildCampaignJob(tr);
  EXPECT_EQ(tr_job.options.analysis, CampaignAnalysis::kTransient);
  EXPECT_EQ(tr_job.options.transient_steps, 64u);
  ASSERT_FALSE(tr_job.fault_list.empty());
  for (const auto& f : tr_job.fault_list) {
    EXPECT_TRUE(f.Kind() == faults::FaultKind::kOpen ||
                f.Kind() == faults::FaultKind::kShort)
        << f.Label();
  }

  CampaignRequest ac;
  ac.circuit = "biquad";
  ac.samples = 6;
  ac.ppd = 5;
  const auto ac_job = BuildCampaignJob(ac);
  EXPECT_EQ(ac_job.options.analysis, CampaignAnalysis::kAc);
  for (const auto& f : ac_job.fault_list) {
    EXPECT_TRUE(f.Kind() != faults::FaultKind::kOpen &&
                f.Kind() != faults::FaultKind::kShort)
        << f.Label();
  }
  EXPECT_NE(tr_job.key, ac_job.key);

  // "both" = deviation list + catastrophic list, in that order.
  CampaignRequest both = ac;
  both.fault_universe = "both";
  const auto both_job = BuildCampaignJob(both);
  EXPECT_EQ(both_job.fault_list.size(),
            ac_job.fault_list.size() + tr_job.fault_list.size());
}

}  // namespace
}  // namespace mcdft::core
