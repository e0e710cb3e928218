// The shared configuration envelope pass (ComputeSharedToleranceEnvelopes,
// run by core::PrepareCampaignCriteria) against its oracle, the
// per-configuration sweep: ComputeToleranceEnvelope on each configured
// netlist.  The pass factors only the functional configuration C0 and
// eliminates each configuration's follower rows exactly along its path in
// the subset tree, so its envelopes agree with the oracle to roundoff, its
// verdicts equal the oracle's, C0 (no pivot on its path) is bit-identical,
// and a configuration's bits depend on nothing but its own path: not on the
// thread count, on which other configurations share the pass, or on the
// shard split.  SubsetSchurTree.* pins the elimination kernel itself
// against dense solves.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "circuits/zoo.hpp"
#include "core/campaign.hpp"
#include "core/server/request.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "faults/simulator.hpp"
#include "linalg/lu.hpp"
#include "linalg/subset_tree.hpp"
#include "util/cancel.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft {
namespace {

namespace fs = std::filesystem;
using core::CampaignFrame;
using core::CampaignOptions;
using core::ConfigVector;
using core::DftCircuit;

/// The oracle: `cv`'s envelope swept on its own configured netlist.
std::vector<double> PerConfigurationEnvelope(DftCircuit& work,
                                             const CampaignFrame& frame,
                                             const ConfigVector& cv,
                                             const CampaignOptions& options) {
  core::ScopedConfiguration sc(work, cv);
  return testability::ComputeToleranceEnvelope(
      work.Circuit(), frame.sweep, frame.probe, frame.tolerance_sites,
      *options.tolerance, options.criteria.relative_floor, options.mna,
      options.threads);
}

/// `mcdft analyze`'s inputs for a zoo circuit at 8 samples / ppd 12, with
/// the screen off so both envelopes score the same exact responses.
core::server::CampaignJob SmallJob(const std::string& circuit,
                                   int max_followers = -1) {
  core::server::CampaignRequest request;
  request.circuit = circuit;
  request.ppd = 12;
  request.samples = 8;
  request.screen = false;
  request.max_followers = max_followers;
  return core::server::BuildCampaignJob(request);
}

/// Tree vs per-configuration sweep on one job: every envelope within 1e-9
/// of the deviation denominator, and every verdict of the campaign (which
/// scores against the tree's envelopes) equal to the verdict the oracle's
/// envelope gives on the same responses.
void ExpectTreeMatchesSweep(const core::server::CampaignJob& job) {
  DftCircuit work = job.circuit.Clone();
  const CampaignFrame frame =
      core::BuildCampaignFrame(work, job.fault_list, job.options);
  const auto criteria =
      core::PrepareCampaignCriteria(work, frame, job.configs, job.options);
  const core::CampaignResult campaign = core::RunCampaign(
      job.circuit, job.fault_list, job.configs, job.options);
  ASSERT_EQ(criteria.size(), job.configs.size());
  for (std::size_t i = 0; i < job.configs.size(); ++i) {
    const ConfigVector& cv = job.configs[i];
    const std::string where = job.circuit_name + " " + cv.Name();
    ASSERT_TRUE(criteria[i].has_value()) << where << " took the fallback";
    testability::DetectionCriteria oracle = job.options.criteria;
    oracle.envelope = PerConfigurationEnvelope(work, frame, cv, job.options);
    ASSERT_EQ(criteria[i]->envelope.size(), oracle.envelope.size()) << where;
    for (std::size_t p = 0; p < oracle.envelope.size(); ++p) {
      EXPECT_LE(std::fabs(criteria[i]->envelope[p] - oracle.envelope[p]), 1e-9)
          << where << " point " << p;
    }

    core::ScopedConfiguration sc(work, cv);
    const faults::FaultSimulator simulator(work.Circuit(), frame.sweep,
                                           frame.probe, job.options.mna);
    const core::ConfigResult expected = core::AssembleConfigRow(
        cv, oracle,
        simulator.SimulateRange(job.fault_list, 0, job.fault_list.size(),
                                job.options.threads),
        job.fault_list, 0, job.fault_list.size());
    const core::ConfigResult& got = campaign.PerConfig()[i];
    for (std::size_t f = 0; f < expected.faults.size(); ++f) {
      const auto& want = expected.faults[f];
      const auto& have = got.faults[f];
      EXPECT_EQ(have.detectable, want.detectable) << where << " " << f;
      EXPECT_EQ(have.omega_detectability, want.omega_detectability)
          << where << " " << f;
      EXPECT_EQ(have.region.mask, want.region.mask) << where << " " << f;
      EXPECT_EQ(have.region.magnitude_mask, want.region.magnitude_mask)
          << where << " " << f;
    }
  }
}

/// Comparisons against the oracle need undisturbed solves: opt out of any
/// armed MCDFT_FAULTPOINTS spec for the test's duration.
struct Disarmed {
  Disarmed() { util::faultpoint::DisarmAll(); }
  ~Disarmed() { util::faultpoint::DisarmAll(); }
};

TEST(ToleranceEnvelope, SharedMatchesPerConfigurationSweepOnEveryZooCircuit) {
  const Disarmed disarmed;
  for (const circuits::ZooEntry& entry : circuits::Zoo()) {
    ExpectTreeMatchesSweep(SmallJob(entry.name));
  }
}

TEST(ToleranceEnvelope, SharedMatchesPerConfigurationSweepOnFullSpaceCascade6) {
  const Disarmed disarmed;
  const core::server::CampaignJob job = SmallJob("cascade6", 9);
  ASSERT_EQ(job.configs.size(), 511u);
  ExpectTreeMatchesSweep(job);
}

TEST(ToleranceEnvelope, FunctionalConfigurationBitIdenticalToItsOwnSweep) {
  const Disarmed disarmed;
  // No pivot lies on C0's path: its values are C0's own sweep, bit for bit.
  for (const circuits::ZooEntry& entry : circuits::Zoo()) {
    const core::server::CampaignJob job = SmallJob(entry.name);
    DftCircuit work = job.circuit.Clone();
    const CampaignFrame frame =
        core::BuildCampaignFrame(work, job.fault_list, job.options);
    const auto criteria =
        core::PrepareCampaignCriteria(work, frame, job.configs, job.options);
    const ConfigVector c0(work.ConfigurableOpamps().size());
    const std::size_t row = static_cast<std::size_t>(
        std::find(job.configs.begin(), job.configs.end(), c0) -
        job.configs.begin());
    ASSERT_LT(row, job.configs.size()) << entry.name;
    ASSERT_TRUE(criteria[row].has_value()) << entry.name;
    EXPECT_EQ(criteria[row]->envelope,
              PerConfigurationEnvelope(work, frame, c0, job.options))
        << entry.name;
  }
}

/// The shared envelopes of `configs` at `threads`.
std::vector<std::vector<double>> SharedEnvelopes(
    const DftCircuit& circuit, const std::vector<faults::Fault>& fault_list,
    const std::vector<ConfigVector>& configs, CampaignOptions options,
    std::size_t threads) {
  options.threads = threads;
  DftCircuit work = circuit.Clone();
  const CampaignFrame frame =
      core::BuildCampaignFrame(work, fault_list, options);
  std::vector<std::vector<double>> out;
  for (const auto& c :
       core::PrepareCampaignCriteria(work, frame, configs, options)) {
    out.push_back(c.has_value() ? c->envelope : std::vector<double>{});
  }
  return out;
}

TEST(ToleranceEnvelope, SharedBitIdenticalAcrossThreadsAndConfigurationSets) {
  const Disarmed disarmed;
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("cascade6").build());
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  std::vector<ConfigVector> configs = circuit.Space().AllNonTransparent();
  CampaignOptions options = core::MakePaperCampaignOptions();
  options.points_per_decade = 3;
  options.tolerance->samples = 5;

  const auto reference = SharedEnvelopes(circuit, fault_list, configs,
                                         options, 1);
  for (const auto& envelope : reference) ASSERT_FALSE(envelope.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(SharedEnvelopes(circuit, fault_list, configs, options, threads),
              reference)
        << threads << " threads";
  }
  // Each configuration alone walks only its own path.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(
        SharedEnvelopes(circuit, fault_list, {configs[i]}, options, 2).front(),
        reference[i])
        << configs[i].Name();
  }
  // A shuffled half, with a repeat.
  std::vector<std::size_t> order(configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(20261019));
  order.resize(order.size() / 2);
  order.push_back(order.front());
  std::vector<ConfigVector> subset;
  for (std::size_t i : order) subset.push_back(configs[i]);
  const auto shuffled =
      SharedEnvelopes(circuit, fault_list, subset, options, 4);
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(shuffled[k], reference[order[k]]) << configs[order[k]].Name();
  }
}

TEST(ToleranceEnvelope, SharedBitIdenticalAcrossShardMerges) {
  const Disarmed disarmed;
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("cascade6").build());
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  std::vector<ConfigVector> configs = circuit.Space().UpToKFollowers(2);
  std::erase_if(configs,
                [](const ConfigVector& cv) { return cv.IsTransparent(); });
  CampaignOptions options = core::MakePaperCampaignOptions();
  options.points_per_decade = 4;
  options.tolerance->samples = 4;
  options.threads = 2;
  const core::CampaignResult reference =
      core::RunCampaign(circuit, fault_list, configs, options);

  const fs::path root = fs::temp_directory_path() /
                        ("mcdft_shared_envelope_" + std::to_string(::getpid()));
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const fs::path dir = root / std::to_string(count);
    fs::remove_all(dir);
    std::vector<std::string> paths;
    for (std::size_t index = 0; index < count; ++index) {
      core::ShardRunOptions shard;
      shard.shard = core::ShardSpec{index, count};
      shard.checkpoint_dir = dir.string();
      const core::ShardRunResult run = core::RunCampaignShard(
          circuit, fault_list, configs, options, shard);
      ASSERT_TRUE(run.complete);
      paths.push_back(run.shard_path);
    }
    const core::MergedCampaign merged = core::MergeShards(paths);
    ASSERT_EQ(merged.campaign.ConfigCount(), reference.ConfigCount());
    for (std::size_t i = 0; i < reference.ConfigCount(); ++i) {
      EXPECT_EQ(merged.campaign.PerConfig()[i].threshold,
                reference.PerConfig()[i].threshold)
          << count << " shards, row " << i;
    }
    EXPECT_EQ(merged.campaign.DetectabilityMatrix(),
              reference.DetectabilityMatrix());
    EXPECT_EQ(merged.campaign.OmegaTable(), reference.OmegaTable());
  }
  fs::remove_all(root);
}

/// Two ideal opamps wired so that OP1 alone in follower mode duplicates
/// OP2's normal-mode row (V(out1) = V(in) twice): configuration 10 is
/// singular, while 00, 01 and 11 are not.  Configuration 11's path pivots
/// on OP1 first, and that pivot vanishes.
DftCircuit VanishingPivotCircuit() {
  core::AnalogBlock block;
  block.name = "vanishing follower pivot";
  block.input_node = "in";
  block.output_node = "out2";
  block.opamps = {"OP1", "OP2"};
  spice::Netlist& nl = block.netlist;
  nl.AddVoltageSource("VIN", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "n1", 1e3);
  nl.AddResistor("R2", "n1", "out2", 2e3);
  nl.AddResistor("R3", "out1", "0", 1e3);
  nl.AddResistor("R4", "out2", "0", 1e3);
  nl.AddCapacitor("C1", "out2", "0", 1e-7);
  spice::OpampModel ideal;
  ideal.kind = spice::OpampModelKind::kIdeal;
  nl.AddElement(std::make_unique<spice::Opamp>(
      "OP1", nl.Node("0"), nl.Node("n1"), nl.Node("out1"), ideal));
  nl.AddElement(std::make_unique<spice::Opamp>(
      "OP2", nl.Node("out1"), nl.Node("in"), nl.Node("out2"), ideal));
  return DftCircuit::Transform(block);
}

TEST(ToleranceEnvelope, VanishingFollowerPivotTakesTheCountedFallback) {
  const Disarmed disarmed;
  const DftCircuit circuit = VanishingPivotCircuit();
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  const std::vector<ConfigVector> configs{ConfigVector::FromBits("00"),
                                          ConfigVector::FromBits("01"),
                                          ConfigVector::FromBits("11")};
  CampaignOptions options = core::MakePaperCampaignOptions();
  options.points_per_decade = 5;
  options.tolerance->samples = 6;
  options.anchor_hz = 1e3;
  options.threads = 2;

  util::metrics::ScopedEnable metrics;
  const util::metrics::Snapshot before = util::metrics::Capture();
  const core::CampaignResult campaign =
      core::RunCampaign(circuit, fault_list, configs, options);
  const util::metrics::Snapshot delta =
      util::metrics::Delta(before, util::metrics::Capture());
  EXPECT_EQ(delta.CounterValue("testability.envelope.guard_fallbacks"), 1u);
  EXPECT_EQ(delta.CounterValue("testability.envelope.shared_configs"), 2u);

  DftCircuit work = circuit.Clone();
  const CampaignFrame frame =
      core::BuildCampaignFrame(work, fault_list, options);
  const auto criteria =
      core::PrepareCampaignCriteria(work, frame, configs, options);
  EXPECT_TRUE(criteria[0].has_value());
  EXPECT_TRUE(criteria[1].has_value());
  EXPECT_FALSE(criteria[2].has_value());
  // The fallback is the per-configuration sweep, bit for bit, in the
  // campaign row and through PrepareCampaignConfig alike.
  const std::vector<double> oracle =
      PerConfigurationEnvelope(work, frame, configs[2], options);
  const core::ConfigResult& row = campaign.PerConfig()[2];
  ASSERT_EQ(row.threshold.size(), oracle.size());
  for (std::size_t p = 0; p < oracle.size(); ++p) {
    EXPECT_EQ(row.threshold[p], options.criteria.epsilon + oracle[p]) << p;
  }
  EXPECT_EQ(core::PrepareCampaignConfig(work, frame, configs[2], options)
                .criteria.envelope,
            oracle);
}

TEST(ToleranceEnvelope, CancelDuringSharedPassEndsTheCampaignAndShardsResume) {
  const Disarmed disarmed;
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("cascade6").build());
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  std::vector<ConfigVector> configs = circuit.Space().UpToKFollowers(1);
  CampaignOptions options = core::MakePaperCampaignOptions();
  options.points_per_decade = 3;
  options.threads = 1;

  {
    // A token fired from another thread once the pass has swept a sample:
    // the pass stops at its next sample boundary, before any unit runs.
    CampaignOptions slow = options;
    slow.tolerance->samples = 4000;
    util::CancelToken token;
    slow.cancel = &token;
    util::metrics::ScopedEnable metrics;
    util::metrics::Counter& samples =
        util::metrics::GetCounter("testability.envelope.samples");
    const std::uint64_t before = samples.Value();
    std::thread canceller([&] {
      for (int i = 0; i < 20'000 && samples.Value() == before; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      token.Cancel();
    });
    util::faultpoint::Arm("campaign.unit.stall", 0.0, 1);
    try {
      core::RunCampaign(circuit, fault_list, configs, slow);
      ADD_FAILURE() << "the cancelled campaign completed";
    } catch (const util::CancelError& e) {
      EXPECT_EQ(e.Kind(), util::CancelKind::kCancelled);
    }
    canceller.join();
    EXPECT_LT(samples.Value() - before, 4000u);
    EXPECT_EQ(util::faultpoint::StatsOf("campaign.unit.stall").evaluations, 0u);
    util::faultpoint::DisarmAll();
  }

  // A shard run cancelled in its pass leaves its (empty) checkpoint, and
  // the next run resumes it to the monolithic campaign's bytes.
  options.tolerance->samples = 4;
  const fs::path dir = fs::temp_directory_path() /
                       ("mcdft_shared_cancel_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  core::ShardRunOptions shard;
  shard.checkpoint_dir = dir.string();
  util::CancelToken cancelled;
  cancelled.Cancel();
  CampaignOptions doomed = options;
  doomed.cancel = &cancelled;
  EXPECT_THROW(core::RunCampaignShard(circuit, fault_list, configs, doomed,
                                      shard),
               util::CancelError);
  const core::ShardRunResult resumed =
      core::RunCampaignShard(circuit, fault_list, configs, options, shard);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.units_run, configs.size());
  const core::MergedCampaign merged = core::MergeShards({resumed.shard_path});
  const core::CampaignResult reference =
      core::RunCampaign(circuit, fault_list, configs, options);
  EXPECT_EQ(merged.campaign.OmegaTable(), reference.OmegaTable());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(merged.campaign.PerConfig()[i].threshold,
              reference.PerConfig()[i].threshold);
  }
  fs::remove_all(dir);
}

// --- The elimination kernel ---------------------------------------------

/// A random, diagonally dominant complex system with m rewritable rows.
struct RowRewriteSystem {
  linalg::Matrix a0;
  linalg::Vector b;
  std::vector<std::size_t> rows;
  std::vector<linalg::SparseRow> deltas;
  linalg::ProbeRow probe;
};

RowRewriteSystem MakeRowRewriteSystem(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t n = 9;
  RowRewriteSystem s{linalg::Matrix(n), linalg::Vector(n), {1, 3, 4, 7}, {},
                     {}};
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      s.a0.At(r, c) = linalg::Complex(u(rng), u(rng)) * 0.3;
    }
    s.a0.At(r, r) += linalg::Complex(4.0, 1.0);
    s.b[r] = linalg::Complex(u(rng), u(rng));
  }
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    linalg::SparseRow d;
    for (std::size_t c = 0; c < n; c += 1 + i) {
      d.emplace_back(c, linalg::Complex(2.0 * u(rng), 2.0 * u(rng)));
    }
    s.deltas.push_back(d);
  }
  s.probe.plus = 5;
  s.probe.minus = 2;
  return s;
}

/// The bordered matrix of `s` (dense solves against A0).
std::vector<linalg::Complex> Bordered(const RowRewriteSystem& s) {
  std::vector<linalg::Vector> z;
  for (const std::size_t r : s.rows) {
    linalg::Vector e(s.b.size());
    e[r] = linalg::Complex(1.0, 0.0);
    z.push_back(linalg::SolveDense(s.a0, e));
  }
  std::vector<linalg::Complex> b;
  linalg::FormBorderedMatrix(s.deltas, z, linalg::SolveDense(s.a0, s.b),
                             s.probe, b);
  return b;
}

std::vector<std::vector<std::size_t>> AllSubsets(std::size_t m) {
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t mask = 0; mask < (std::size_t{1} << m); ++mask) {
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < m; ++i) {
      if ((mask >> i) & 1u) s.push_back(i);
    }
    out.push_back(s);
  }
  return out;
}

std::vector<linalg::Complex> WalkValues(
    const linalg::SubsetSchurTree& tree,
    const std::vector<linalg::Complex>& bordered,
    std::vector<unsigned char>& failed) {
  linalg::SubsetSchurTree::Workspace ws(tree);
  std::vector<linalg::Complex> value(tree.NodeCount());
  failed.assign(tree.NodeCount(), 0);
  tree.Walk(bordered, ws, value, failed);
  std::vector<linalg::Complex> out;
  for (std::size_t s = 0; s < tree.SubsetCount(); ++s) {
    out.push_back(value[tree.NodeOf(s)]);
  }
  return out;
}

TEST(SubsetSchurTree, EverySubsetMatchesADenseSolveOfItsRewrittenSystem) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const RowRewriteSystem s = MakeRowRewriteSystem(seed);
    const auto subsets = AllSubsets(s.rows.size());
    const linalg::SubsetSchurTree tree(s.rows.size(), subsets);
    EXPECT_EQ(tree.NodeCount(), subsets.size());
    std::vector<unsigned char> failed;
    const auto values = WalkValues(tree, Bordered(s), failed);
    for (std::size_t k = 0; k < subsets.size(); ++k) {
      ASSERT_FALSE(tree.PathFailed(k, failed));
      linalg::Matrix a = s.a0;
      for (const std::size_t i : subsets[k]) {
        for (const auto& [col, v] : s.deltas[i]) a.At(s.rows[i], col) += v;
      }
      const linalg::Complex want = s.probe.Apply(linalg::SolveDense(a, s.b));
      EXPECT_LE(std::abs(values[k] - want), 1e-11 * std::abs(want))
          << "seed " << seed << " subset " << k;
    }
  }
}

TEST(SubsetSchurTree, ASubsetsBitsDependOnlyOnItsOwnPath) {
  const RowRewriteSystem s = MakeRowRewriteSystem(7);
  const auto bordered = Bordered(s);
  const auto subsets = AllSubsets(s.rows.size());
  std::vector<unsigned char> failed;
  const auto full = WalkValues(
      linalg::SubsetSchurTree(s.rows.size(), subsets), bordered, failed);
  for (std::size_t k = 0; k < subsets.size(); ++k) {
    const auto alone = WalkValues(
        linalg::SubsetSchurTree(s.rows.size(), {subsets[k]}), bordered,
        failed);
    EXPECT_EQ(alone.front(), full[k]) << "subset " << k;
  }
}

TEST(SubsetSchurTree, AVanishedPivotFailsItsSubtreeOnly) {
  // B = I except a zero pivot at index 0 and a border coupling.
  const std::size_t m = 2;
  std::vector<linalg::Complex> b((m + 1) * (m + 1), linalg::Complex(0.0, 0.0));
  b[0] = linalg::Complex(1e-12, 0.0);
  b[1 * (m + 1) + 1] = linalg::Complex(2.0, 0.0);
  b[1 * (m + 1) + 2] = linalg::Complex(1.0, 0.0);
  b[2 * (m + 1) + 1] = linalg::Complex(1.0, 0.0);
  b[2 * (m + 1) + 2] = linalg::Complex(3.0, 0.0);
  const linalg::SubsetSchurTree tree(m, {{}, {0}, {1}, {0, 1}});
  std::vector<unsigned char> failed;
  const auto values = WalkValues(tree, b, failed);
  EXPECT_FALSE(tree.PathFailed(0, failed));
  EXPECT_TRUE(tree.PathFailed(1, failed));
  EXPECT_FALSE(tree.PathFailed(2, failed));
  EXPECT_TRUE(tree.PathFailed(3, failed));
  EXPECT_EQ(values[0], linalg::Complex(3.0, 0.0));
  EXPECT_EQ(values[2], linalg::Complex(2.5, 0.0));  // 3 - 1 * 1 / 2
}

TEST(SubsetSchurTree, RejectsMalformedSubsets) {
  EXPECT_THROW(linalg::SubsetSchurTree(3, {{1, 1}}), util::NumericError);
  EXPECT_THROW(linalg::SubsetSchurTree(3, {{2, 1}}), util::NumericError);
  EXPECT_THROW(linalg::SubsetSchurTree(3, {{3}}), util::NumericError);
  EXPECT_THROW(linalg::SubsetSchurTree(64, {}), util::NumericError);
}

}  // namespace
}  // namespace mcdft
