// Verdicts do not depend on the solver path.  The campaign simulates each
// configuration frequency-major (sparse nominal factor per frequency, SMW
// rank-updates per fault, the retry ladder behind them).  The reference
// here is the plainest path the library has: testability::AnalyzeFaultList
// over FaultSimulator::SimulateNominal / SimulateFault, one fail-fast
// fault-major sweep per fault, every point assembled generically and
// factored afresh (MnaSystem::Solve, dense LU on every zoo system).  The
// envelopes are independent too: the campaign's come from one shared pass
// over the functional configuration (subset-tree elimination of the
// follower rows), the oracle's from a per-configuration Monte-Carlo sweep
// of the configured netlist (ComputeToleranceEnvelope).  Every
// verdict-bearing output — detectability, omega-detectability and the
// per-point masks — must be equal on every zoo circuit and configuration.
//
// The campaign runs with the sensitivity screen off.  The screen is not a
// solve path but a skip in front of one, and it does NOT meet this bar:
// on leapfrog its first-order estimate overshoots the exact deviation
// ~17x at the low band edge (configurations C1, C4-C7), past the 8x guard
// margin, so it reports cells detected that the exact solve does not.
// `mcdft analyze --circuit leapfrog` and the same run with --no-screen
// print different tables.
#include <gtest/gtest.h>

#include "circuits/zoo.hpp"
#include "core/campaign.hpp"
#include "faults/fault_list.hpp"
#include "faults/simulator.hpp"
#include "testability/detectability.hpp"
#include "util/faultpoint.hpp"

namespace mcdft::core {
namespace {

// The oracle is fail-fast, so the comparison needs undisturbed solves:
// opt out of any armed MCDFT_FAULTPOINTS spec.
class VerdictOracle : public ::testing::Test {
 protected:
  void SetUp() override { util::faultpoint::DisarmAll(); }
  void TearDown() override { util::faultpoint::DisarmAll(); }
};

TEST_F(VerdictOracle, CampaignMatchesDenseFaultMajorOnEveryZooCircuit) {
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 12;
  options.tolerance->samples = 8;
  options.mna.sensitivity_screen = false;

  std::size_t compared = 0;
  for (const circuits::ZooEntry& entry : circuits::Zoo()) {
    const DftCircuit circuit = DftCircuit::Transform(entry.build());
    const std::vector<faults::Fault> fault_list =
        faults::MakeDeviationFaults(circuit.Circuit());
    ConfigurationSpace space = circuit.Space();
    std::vector<ConfigVector> configs =
        space.UpToKFollowers(entry.name == "cascade6" ? 1 : space.OpampCount());
    std::erase_if(configs,
                  [](const ConfigVector& cv) { return cv.IsTransparent(); });
    const CampaignResult campaign =
        RunCampaign(circuit, fault_list, configs, options);
    ASSERT_EQ(campaign.ConfigCount(), configs.size()) << entry.name;

    DftCircuit work = circuit.Clone();
    const CampaignFrame frame = BuildCampaignFrame(work, fault_list, options);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      ScopedConfiguration configured(work, configs[i]);
      testability::DetectionCriteria criteria = options.criteria;
      criteria.envelope = testability::ComputeToleranceEnvelope(
          work.Circuit(), frame.sweep, frame.probe, frame.tolerance_sites,
          *options.tolerance, criteria.relative_floor);
      const faults::FaultSimulator oracle(work.Circuit(), frame.sweep,
                                          frame.probe);
      const std::vector<testability::FaultDetectability> expected =
          testability::AnalyzeFaultList(oracle, fault_list, criteria);
      const ConfigResult& row = campaign.PerConfig()[i];
      ASSERT_EQ(row.config, configs[i]) << entry.name;
      ASSERT_EQ(row.faults.size(), expected.size()) << entry.name;
      for (std::size_t f = 0; f < expected.size(); ++f) {
        const testability::FaultDetectability& got = row.faults[f];
        const testability::FaultDetectability& want = expected[f];
        const std::string where = entry.name + " " + configs[i].Name() +
                                  " " + want.fault.Label();
        EXPECT_EQ(got.quarantined_points, 0u) << where;
        EXPECT_EQ(got.detectable, want.detectable) << where;
        EXPECT_EQ(got.omega_detectability, want.omega_detectability) << where;
        EXPECT_EQ(got.region.mask, want.region.mask) << where;
        EXPECT_EQ(got.region.magnitude_mask, want.region.magnitude_mask)
            << where;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace mcdft::core
