#include "core/run_report.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "circuits/biquad.hpp"
#include "faults/fault_list.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

// The reports below pin counter identities of an undisturbed campaign, so
// the suite opts out of any armed MCDFT_FAULTPOINTS spec (an injected SMW
// failure adds retries and exact fallbacks).
class RunReport : public ::testing::Test {
 protected:
  void SetUp() override { util::faultpoint::DisarmAll(); }
  void TearDown() override { util::faultpoint::DisarmAll(); }
};

/// Small but real biquad campaign (reduced grid/samples for test speed).
CampaignResult RunSmallCampaign(std::size_t threads = 2) {
  const DftCircuit circuit = circuits::BuildDftBiquad();
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 4;
  options.tolerance->samples = 4;
  options.threads = threads;
  std::vector<ConfigVector> configs;
  for (std::size_t i = 0; i < 3; ++i) {
    configs.push_back(ConfigVector::FromIndex(
        i, circuit.ConfigurableOpamps().size()));
  }
  return RunCampaign(circuit, fault_list, configs, options);
}

TEST_F(RunReport, CapturesSolverCountersPhasesAndCoverage) {
  CampaignRunRecorder recorder;
  const CampaignResult campaign = RunSmallCampaign();
  RunReportOptions options;
  options.circuit = "biquad";
  options.threads = 2;
  const util::json::Value report = recorder.Finish(campaign, options);

  EXPECT_EQ(report.Get("schema").AsString(), "mcdft.run_report/10");
  EXPECT_EQ(report.Get("circuit").AsString(), "biquad");
  EXPECT_GT(report.Get("timing").Get("wall_s").AsDouble(), 0.0);
  EXPECT_EQ(report.Get("threads").Get("resolved").AsDouble(), 2.0);

  // Solver statistics: the campaign must have gone through the MNA cache
  // and the sparse/dense LU paths.
  const util::json::Value& mna = report.Get("solver").Get("mna");
  EXPECT_GT(mna.Get("solve").AsDouble(), 0.0);
  // Schema /9: no `dc` group (no campaign runs a DC operating point).
  EXPECT_EQ(report.Get("solver").Find("dc"), nullptr);

  // Schema /10: the envelope group.  The three configurations share one
  // Monte-Carlo pass: its sample sweeps, the configurations it served and
  // its subset-tree pivots (configurations 1 and 2 switch one opamp each).
  const util::json::Value& envelope = report.Get("envelope");
  EXPECT_EQ(envelope.Get("samples").AsDouble(), 4.0);
  EXPECT_EQ(envelope.Get("shared_configs").AsDouble(), 3.0);
  EXPECT_EQ(envelope.Get("guard_fallbacks").AsDouble(), 0.0);
  EXPECT_GT(envelope.Get("tree_pivots").AsDouble(), 0.0);

  // Low-rank fault-solve statistics: with the default options every
  // (fault, frequency) pair goes through an SMW rank update (and its k-by-k
  // capacitance solve) against the nominal factorization.
  const util::json::Value& smw = report.Get("solver").Get("smw");
  EXPECT_GT(smw.Get("update").AsDouble(), 0.0);
  EXPECT_GT(smw.Get("kxk_solve").AsDouble(), 0.0);

  // Phase breakdown contains the three campaign phases with wall time.
  bool saw_prepare = false, saw_simulate = false, saw_assemble = false;
  for (const auto& row : report.Get("phases").Items()) {
    const std::string& name = row.Get("name").AsString();
    if (name == "campaign.prepare") saw_prepare = true;
    if (name == "campaign.simulate") {
      saw_simulate = true;
      EXPECT_GT(row.Get("wall_s").AsDouble(), 0.0);
      EXPECT_GE(row.Get("count").AsDouble(), 1.0);
    }
    if (name == "campaign.assemble") saw_assemble = true;
  }
  EXPECT_TRUE(saw_prepare);
  EXPECT_TRUE(saw_simulate);
  EXPECT_TRUE(saw_assemble);

  // Fault-sweep counters: configs * faults fault sweeps + one nominal each.
  const util::json::Value& faults = report.Get("faults");
  EXPECT_DOUBLE_EQ(faults.Get("nominal_sweeps").AsDouble(),
                   static_cast<double>(campaign.ConfigCount()));
  EXPECT_DOUBLE_EQ(
      faults.Get("fault_sweeps").AsDouble(),
      static_cast<double>(campaign.ConfigCount() * campaign.FaultCount()));

  // Schema /6: the sensitivity-screen group.  With the default-on screen
  // every deviation (fault, omega) cell is either skipped by the screen or
  // solved as borderline/guard-rejected — the four buckets partition the
  // cell count, and each solved cell of a healthy campaign is exactly one
  // SMW solve (an update, or a guard fallback onto the exact path).
  const util::json::Value& screen = report.Get("screen");
  const double screened = screen.Get("screened_detected").AsDouble() +
                          screen.Get("screened_undetected").AsDouble();
  const double solved = screen.Get("borderline").AsDouble() +
                        screen.Get("guard_rejects").AsDouble();
  EXPECT_GT(screened, 0.0);
  EXPECT_GT(solved, 0.0);
  const util::json::Value* fallback = smw.Find("fallback");
  EXPECT_DOUBLE_EQ(solved, smw.Get("update").AsDouble() +
                               (fallback ? fallback->AsDouble() : 0.0));
  EXPECT_GT(screen.Get("adjoint_solves").AsDouble(), 0.0);
  EXPECT_EQ(report.Find("batching"), nullptr);

  // Per-configuration coverage summary mirrors the campaign result.
  const util::json::Value& section = report.Get("campaign");
  EXPECT_DOUBLE_EQ(section.Get("config_count").AsDouble(),
                   static_cast<double>(campaign.ConfigCount()));
  EXPECT_DOUBLE_EQ(section.Get("coverage").AsDouble(), campaign.Coverage());

  // Quarantine accounting: a healthy campaign has cells but zero
  // quarantined, and no per-row quarantine lists.
  const util::json::Value& cells = section.Get("cells");
  EXPECT_GT(cells.Get("total").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(cells.Get("quarantined").AsDouble(), 0.0);
  const util::json::Value& per_config = section.Get("per_config");
  ASSERT_EQ(per_config.Size(), campaign.ConfigCount());
  for (std::size_t i = 0; i < per_config.Size(); ++i) {
    const util::json::Value& row = per_config.At(i);
    EXPECT_EQ(row.Get("config").AsString(),
              campaign.PerConfig()[i].config.Name());
    EXPECT_DOUBLE_EQ(row.Get("average_omega_det").AsDouble(),
                     campaign.PerConfig()[i].AverageOmegaDet());
    const double cov = row.Get("fault_coverage").AsDouble();
    EXPECT_GE(cov, 0.0);
    EXPECT_LE(cov, 1.0);
    EXPECT_DOUBLE_EQ(row.Get("quarantined_cells").AsDouble(), 0.0);
    EXPECT_EQ(row.Find("quarantine"), nullptr);
  }

  EXPECT_GT(report.Get("environment").Get("hardware_threads").AsDouble(), 0.0);

  // Schema /4: the daemon cache/server counter groups are always present
  // (all-zero objects outside a daemon — this run used no shared caches).
  const util::json::Value& cache = report.Get("cache");
  EXPECT_NE(cache.Find("factor"), nullptr);
  EXPECT_NE(report.Find("server"), nullptr);
}

TEST_F(RunReport, ReportSerializesAndParsesBack) {
  CampaignRunRecorder recorder;
  const CampaignResult campaign = RunSmallCampaign(1);
  const util::json::Value report = recorder.Finish(campaign);

  const std::string path = ::testing::TempDir() + "/mcdft_run_report.json";
  WriteRunReport(report, path);
  const util::json::Value back = util::json::ParseFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.Get("schema").AsString(), "mcdft.run_report/10");
  EXPECT_DOUBLE_EQ(back.Get("campaign").Get("coverage").AsDouble(),
                   campaign.Coverage());
}

TEST_F(RunReport, RecorderRestoresDisabledState) {
  util::metrics::ScopedEnable off(false);
  {
    CampaignRunRecorder recorder;
    EXPECT_TRUE(util::metrics::Enabled());  // recorder switches metrics on
  }
  EXPECT_FALSE(util::metrics::Enabled());  // destructor restored it
}

TEST_F(RunReport, DeltaExcludesEarlierRuns) {
  // Counters accumulated before the recorder exists must not leak into the
  // report: run one instrumented campaign, then record a second one.
  util::metrics::ScopedEnable on;
  const CampaignResult first = RunSmallCampaign(1);
  (void)first;
  CampaignRunRecorder recorder;
  const CampaignResult second = RunSmallCampaign(1);
  const util::json::Value report = recorder.Finish(second);
  EXPECT_DOUBLE_EQ(report.Get("faults").Get("nominal_sweeps").AsDouble(),
                   static_cast<double>(second.ConfigCount()));
}

}  // namespace
}  // namespace mcdft::core
