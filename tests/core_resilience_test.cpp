// End-to-end resilience (ISSUE 5): campaigns with quarantined cells stay
// bit-identical across thread and shard counts, checkpoint-write faults
// only widen what a resume recomputes (converging to the same bytes an
// undisturbed run writes), and checkpoint-read faults are salvaged around
// with the dropped units recomputed.
//
// The genuine-quarantine trigger is a fault whose injected value
// overflows the floating-point range on a device the SMW path cannot
// bypass (see PreparePoisonedBiquad): every ladder stage fails and the
// cell quarantines — a pure function of the cell's own inputs, so the
// verdict is partition-invariant.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "circuits/zoo.hpp"
#include "core/run_report.hpp"
#include "core/shard.hpp"
#include "faults/fault_list.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::core {
namespace {

namespace fs = std::filesystem;

CampaignOptions FastOptions() {
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 5;
  options.tolerance->samples = 6;
  options.threads = 2;
  // Pin the band so the grid is independent of the sense-resistor
  // modification the poisoned fixture makes below.
  options.anchor_hz = 1000.0;
  return options;
}

std::vector<ConfigVector> SmallConfigSet(const DftCircuit& circuit) {
  auto space = circuit.Space();
  std::vector<ConfigVector> configs = space.UpToKFollowers(2);
  std::erase_if(configs,
                [](const ConfigVector& cv) { return cv.IsTransparent(); });
  return configs;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Bitwise campaign comparison (same bar as core_shard_merge_test.cpp),
/// extended with the quarantine bookkeeping.
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
  EXPECT_EQ(omega_a, omega_b) << what;

  for (std::size_t i = 0; i < a.ConfigCount(); ++i) {
    const ConfigResult& ra = a.PerConfig()[i];
    const ConfigResult& rb = b.PerConfig()[i];
    EXPECT_EQ(ra.config, rb.config) << what;
    EXPECT_EQ(ra.threshold, rb.threshold) << what << " row " << i;
    EXPECT_EQ(ra.QuarantinedCellCount(), rb.QuarantinedCellCount())
        << what << " row " << i;
    ASSERT_EQ(ra.nominal.PointCount(), rb.nominal.PointCount()) << what;
    for (std::size_t p = 0; p < ra.nominal.PointCount(); ++p) {
      EXPECT_EQ(ra.nominal.values[p], rb.nominal.values[p])
          << what << " nominal row " << i << " point " << p;
    }
    ASSERT_EQ(ra.faults.size(), rb.faults.size()) << what;
    for (std::size_t j = 0; j < ra.faults.size(); ++j) {
      EXPECT_EQ(ra.faults[j].quarantined_points,
                rb.faults[j].quarantined_points)
          << what << " row " << i << " fault " << j;
    }
  }
}

struct Prepared {
  DftCircuit circuit;
  std::vector<faults::Fault> fault_list;
  std::vector<ConfigVector> configs;
};

/// The biquad plus a dangling 1e200-ohm sense resistor RQ off the output,
/// with one oversized deviation fault on it.  The faulty value overflows
/// to infinity (rejected by element validation), and the near-zero sense
/// conductance collapses the SMW capacitance matrix below its pivot
/// floor, so no ladder stage can represent the faulty system: the whole
/// fault column quarantines while the nominal and every other fault stay
/// healthy — a genuine end-to-end quarantine, not an injected one.
Prepared PreparePoisonedBiquad() {
  auto block = circuits::FindInZoo("biquad").build();
  block.netlist.AddResistor("RQ", block.output_node, "qx", 1e200);
  DftCircuit circuit = DftCircuit::Transform(block);
  auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  fault_list.emplace_back("RQ", faults::FaultKind::kDeviationUp, 1e150);
  auto configs = SmallConfigSet(circuit);
  return Prepared{std::move(circuit), std::move(fault_list),
                  std::move(configs)};
}

class Resilience : public ::testing::Test {
 protected:
  void SetUp() override {
    util::faultpoint::DisarmAll();
    dir_ = fs::temp_directory_path() /
           ("mcdft_resilience_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::faultpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(Resilience, PoisonedFaultQuarantinesAndIsCountedUndetected) {
  const Prepared p = PreparePoisonedBiquad();
  const CampaignOptions options = FastOptions();
  const util::metrics::ScopedEnable metrics_on;
  const util::metrics::Snapshot before = util::metrics::Capture();
  const CampaignResult campaign =
      RunCampaign(p.circuit, p.fault_list, p.configs, options);
  const util::metrics::Snapshot delta =
      util::metrics::Delta(before, util::metrics::Capture());

  ASSERT_GT(campaign.QuarantinedCellCount(), 0u);
  // A poisoned cell's stamp delta throws (the faulty value overflows):
  // one retry, then the exact ladder's injection throws too, a second
  // retry, and the cell quarantines.  Nothing else retries.
  EXPECT_EQ(delta.CounterValue("faults.sim.retries"),
            2 * campaign.QuarantinedCellCount());

  // The poisoned fault is the last in the list; it must be quarantined at
  // every grid point of every configuration and counted undetected there.
  const std::size_t poisoned = p.fault_list.size() - 1;
  const auto matrix = campaign.DetectabilityMatrix();
  for (std::size_t i = 0; i < campaign.ConfigCount(); ++i) {
    const ConfigResult& row = campaign.PerConfig()[i];
    const testability::FaultDetectability& fd = row.faults[poisoned];
    EXPECT_EQ(fd.quarantined_points, row.nominal.PointCount())
        << "config row " << i;
    EXPECT_FALSE(fd.detectable) << "config row " << i;
    EXPECT_EQ(fd.omega_detectability, 0.0) << "config row " << i;
    EXPECT_FALSE(matrix[i][poisoned]) << "config row " << i;

    // The healthy faults are untouched by the poisoned neighbour.
    std::size_t healthy_quarantined = 0;
    for (std::size_t j = 0; j < poisoned; ++j) {
      healthy_quarantined += row.faults[j].quarantined_points;
    }
    EXPECT_EQ(healthy_quarantined, 0u) << "config row " << i;
    EXPECT_EQ(row.nominal.QuarantinedCount(), 0u) << "config row " << i;
  }

  // Coverage counts the quarantined fault as missed.
  EXPECT_LT(campaign.Coverage(), 1.0);
}

TEST_F(Resilience, QuarantinedCampaignIsThreadCountInvariant) {
  const Prepared p = PreparePoisonedBiquad();
  CampaignOptions options = FastOptions();

  options.threads = 1;
  const CampaignResult serial =
      RunCampaign(p.circuit, p.fault_list, p.configs, options);
  ASSERT_GT(serial.QuarantinedCellCount(), 0u);

  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    const CampaignResult parallel =
        RunCampaign(p.circuit, p.fault_list, p.configs, options);
    ExpectBitIdentical(serial, parallel,
                       "quarantined campaign @" + std::to_string(threads) +
                           " threads");
  }
}

TEST_F(Resilience, QuarantineSurvivesCheckpointRoundTripAndMerge) {
  const Prepared p = PreparePoisonedBiquad();
  const CampaignOptions options = FastOptions();
  const CampaignResult monolithic =
      RunCampaign(p.circuit, p.fault_list, p.configs, options);
  ASSERT_GT(monolithic.QuarantinedCellCount(), 0u);

  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const fs::path ck = dir_ / ("shards_" + std::to_string(count));
    std::vector<std::string> paths;
    std::size_t shard_quarantined = 0;
    for (std::size_t index = 0; index < count; ++index) {
      ShardRunOptions shard_options;
      shard_options.shard = ShardSpec{index, count};
      shard_options.checkpoint_dir = ck.string();
      const ShardRunResult run = RunCampaignShard(
          p.circuit, p.fault_list, p.configs, options, shard_options);
      EXPECT_TRUE(run.complete);
      shard_quarantined += run.quarantined_cells;
      paths.push_back(run.shard_path);
    }
    // The per-shard counters (what drives the CLI exit code before any
    // merge exists) see every quarantined cell exactly once.
    EXPECT_EQ(shard_quarantined, monolithic.QuarantinedCellCount())
        << count << " shards";

    const MergedCampaign merged = MergeShards(paths);
    ExpectBitIdentical(monolithic, merged.campaign,
                       "quarantined merge @" + std::to_string(count) +
                           " shards");
  }
}

// The shard-merge and quarantine contracts hold on every solve path: the
// poisoned campaign quarantines the same cells and merges bit-identical to
// the monolithic run at 1, 2 and 4 shards, with the sensitivity screen on
// or off and on AC as on transient.
TEST_F(Resilience, ShardContractHoldsOnEverySolvePath) {
  const Prepared p = PreparePoisonedBiquad();
  for (const CampaignAnalysis analysis :
       {CampaignAnalysis::kAc, CampaignAnalysis::kTransient}) {
    // The poisoned fault's column: 7 configurations x 21 grid points (AC)
    // or x 32 time steps (transient).
    const std::size_t expected_quarantined =
        analysis == CampaignAnalysis::kAc ? 147 : 224;
    for (const bool screen : {true, false}) {
      CampaignOptions options = FastOptions();
      options.analysis = analysis;
      options.transient_steps = 32;
      options.mna.sensitivity_screen = screen;
      const std::string what = std::string(CampaignAnalysisName(analysis)) +
                               (screen ? " screened" : " unscreened");

      const CampaignResult monolithic =
          RunCampaign(p.circuit, p.fault_list, p.configs, options);
      EXPECT_EQ(monolithic.QuarantinedCellCount(), expected_quarantined)
          << what;

      for (std::size_t count :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        const fs::path ck =
            dir_ / (std::string(CampaignAnalysisName(analysis)) +
                    (screen ? "_screened_" : "_unscreened_") +
                    std::to_string(count));
        std::vector<std::string> paths;
        for (std::size_t index = 0; index < count; ++index) {
          ShardRunOptions shard_options;
          shard_options.shard = ShardSpec{index, count};
          shard_options.checkpoint_dir = ck.string();
          const ShardRunResult run = RunCampaignShard(
              p.circuit, p.fault_list, p.configs, options, shard_options);
          EXPECT_TRUE(run.complete) << what;
          paths.push_back(run.shard_path);
        }
        const MergedCampaign merged = MergeShards(paths);
        EXPECT_EQ(merged.campaign.QuarantinedCellCount(),
                  expected_quarantined)
            << what << " @" << count << " shards";
        ExpectBitIdentical(monolithic, merged.campaign,
                           what + " merge @" + std::to_string(count) +
                               " shards");
      }
    }
  }
}

TEST_F(Resilience, RunReportRecordsQuarantinedCells) {
  const Prepared p = PreparePoisonedBiquad();
  const CampaignOptions options = FastOptions();

  CampaignRunRecorder recorder;
  const CampaignResult campaign =
      RunCampaign(p.circuit, p.fault_list, p.configs, options);
  RunReportOptions report_options;
  report_options.circuit = p.circuit.Name();
  const util::json::Value report = recorder.Finish(campaign, report_options);

  const util::json::Value& cells =
      report.Get("campaign").Get("cells");
  EXPECT_EQ(cells.Get("quarantined").AsDouble(),
            static_cast<double>(campaign.QuarantinedCellCount()));
  EXPECT_GT(cells.Get("total").AsDouble(), cells.Get("quarantined").AsDouble());

  // Every configuration row reports its count and names the poisoned
  // fault in its quarantine list.
  const util::json::Value& rows =
      report.Get("campaign").Get("per_config");
  ASSERT_EQ(rows.Size(), campaign.ConfigCount());
  for (std::size_t i = 0; i < rows.Size(); ++i) {
    const ConfigResult& row = campaign.PerConfig()[i];
    EXPECT_EQ(rows.At(i).Get("quarantined_cells").AsDouble(),
              static_cast<double>(row.QuarantinedCellCount()));
    const util::json::Value* list = rows.At(i).Find("quarantine");
    ASSERT_NE(list, nullptr) << "config row " << i;
    ASSERT_EQ(list->Size(), 1u) << "config row " << i;
    EXPECT_EQ(list->At(0).Get("device").AsString(), "RQ");
  }
}

TEST_F(Resilience, CheckpointWriteFaultsOnlyWidenWhatResumeRecomputes) {
  const Prepared p = PreparePoisonedBiquad();
  const CampaignOptions options = FastOptions();

  // Reference: shard 0/2 written without interference.
  ShardRunOptions straight;
  straight.shard = ShardSpec{0, 2};
  straight.checkpoint_dir = (dir_ / "straight").string();
  const ShardRunResult whole =
      RunCampaignShard(p.circuit, p.fault_list, p.configs, options, straight);
  ASSERT_TRUE(whole.complete);
  const std::string expected = ReadBytes(whole.shard_path);

  struct Case {
    double rate;
    std::uint64_t seed;
  };
  for (const Case c : {Case{0.3, 7}, Case{0.7, 11}, Case{1.0, 13}}) {
    ShardRunOptions faulty = straight;
    faulty.checkpoint_dir =
        (dir_ / ("writefault_" + std::to_string(c.seed))).string();

    util::faultpoint::Arm("checkpoint.write.short", c.rate, c.seed);
    const ShardRunResult disturbed = RunCampaignShard(
        p.circuit, p.fault_list, p.configs, options, faulty);
    util::faultpoint::DisarmAll();

    // Write failures are tolerated: the campaign itself completed.
    EXPECT_TRUE(disturbed.complete) << "rate " << c.rate;
    EXPECT_GT(disturbed.checkpoint_write_failures, 0u) << "rate " << c.rate;
    EXPECT_FALSE(disturbed.last_write_error.empty()) << "rate " << c.rate;

    // A clean rerun resumes whatever survived and converges to exactly
    // the bytes the undisturbed run wrote.
    const ShardRunResult converged = RunCampaignShard(
        p.circuit, p.fault_list, p.configs, options, faulty);
    EXPECT_TRUE(converged.complete) << "rate " << c.rate;
    EXPECT_EQ(converged.checkpoint_write_failures, 0u) << "rate " << c.rate;
    EXPECT_EQ(ReadBytes(converged.shard_path), expected)
        << "rate " << c.rate;
  }
}

TEST_F(Resilience, CheckpointReadFaultsAreSalvagedAndRecomputed) {
  const Prepared p = PreparePoisonedBiquad();
  const CampaignOptions options = FastOptions();

  ShardRunOptions shard_options;
  shard_options.shard = ShardSpec{0, 1};
  shard_options.checkpoint_dir = (dir_ / "readfault").string();
  const ShardRunResult whole = RunCampaignShard(
      p.circuit, p.fault_list, p.configs, options, shard_options);
  ASSERT_TRUE(whole.complete);
  ASSERT_GE(whole.units_total, 2u);
  const std::string expected = ReadBytes(whole.shard_path);

  for (const double rate : {0.5, 1.0}) {
    util::faultpoint::Arm("checkpoint.read.unit", rate,
                          static_cast<std::uint64_t>(rate * 100));
    const ShardRunResult resumed = RunCampaignShard(
        p.circuit, p.fault_list, p.configs, options, shard_options);
    util::faultpoint::DisarmAll();

    // Units the injected read fault damaged were dropped with a
    // diagnostic and recomputed; the file converged back to the same
    // bytes either way.
    EXPECT_TRUE(resumed.complete) << "rate " << rate;
    EXPECT_GT(resumed.salvage_diagnostics.size(), 0u) << "rate " << rate;
    EXPECT_EQ(resumed.units_run, resumed.salvage_diagnostics.size())
        << "rate " << rate;
    EXPECT_EQ(resumed.units_resumed + resumed.units_run, whole.units_total)
        << "rate " << rate;
    EXPECT_EQ(ReadBytes(resumed.shard_path), expected) << "rate " << rate;
  }
}

}  // namespace
}  // namespace mcdft::core
