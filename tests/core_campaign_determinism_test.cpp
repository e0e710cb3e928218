// Determinism regression: a campaign's detectability matrix, omega table,
// thresholds and nominal responses must be BIT-identical for any thread
// count (see DESIGN.md "Threading & determinism").  Runs the biquad and
// the 6-opamp cascade serially and at thread counts on both sides of
// RunCampaign's whole-units-per-worker rule (configurations > threads,
// = threads and = threads - 1), plus a single-configuration pass over the
// rest of the circuit zoo.  WholeUnitScheduling pins the rule itself and
// its error order.
//
// Thread counts are varied through CampaignOptions::threads — the
// MCDFT_THREADS environment variable is latched at first use and cannot be
// changed within a process.
#include <gtest/gtest.h>

#include "circuits/zoo.hpp"
#include "core/campaign.hpp"
#include "faults/fault_list.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::core {
namespace {

CampaignOptions FastOptions(std::size_t threads) {
  CampaignOptions options = MakePaperCampaignOptions();
  options.points_per_decade = 5;   // keep the test quick; grid shape is
  options.tolerance->samples = 6;  // irrelevant to the determinism claim
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

/// Bitwise comparison of two campaign runs of the same circuit.
void ExpectBitIdentical(const CampaignResult& a, const CampaignResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.ConfigCount(), b.ConfigCount()) << what;
  ASSERT_EQ(a.FaultCount(), b.FaultCount()) << what;
  EXPECT_EQ(a.DetectabilityMatrix(), b.DetectabilityMatrix()) << what;

  const auto omega_a = a.OmegaTable();
  const auto omega_b = b.OmegaTable();
  for (std::size_t i = 0; i < omega_a.size(); ++i) {
    for (std::size_t j = 0; j < omega_a[i].size(); ++j) {
      // EXPECT_EQ on doubles: bit-identical, not merely close.
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

void CheckCircuitAcrossThreadCounts(const char* name) {
  const auto& entry = circuits::FindInZoo(name);
  auto block = entry.build();
  const DftCircuit circuit = DftCircuit::Transform(block);
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  const auto configs = SmallConfigSet(circuit);

  const CampaignResult serial =
      RunCampaign(circuit, fault_list, configs, FastOptions(1));
  const std::size_t n = configs.size();
  ASSERT_GT(n, 2u);
  for (std::size_t threads : {std::size_t{2}, n, n + 1, std::size_t{8}}) {
    const CampaignResult parallel =
        RunCampaign(circuit, fault_list, configs, FastOptions(threads));
    ExpectBitIdentical(serial, parallel,
                       std::string(name) + " @" + std::to_string(threads) +
                           " threads");
  }
}

TEST(CampaignDeterminism, BiquadBitIdenticalAcrossThreadCounts) {
  CheckCircuitAcrossThreadCounts("biquad");
}

TEST(CampaignDeterminism, Cascade6BitIdenticalAcrossThreadCounts) {
  CheckCircuitAcrossThreadCounts("cascade6");
}

TEST(CampaignDeterminism, ZooSingleConfigBitIdentical) {
  // Broad but shallow: every other zoo circuit, functional configuration
  // only, serial vs 8 threads (the envelope still parallelizes inside).
  for (const auto& entry : circuits::Zoo()) {
    const std::string& name = entry.name;
    if (name == "biquad" || name == "cascade6") continue;  // covered above
    auto block = entry.build();
    const DftCircuit circuit = DftCircuit::Transform(block);
    const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
    const std::vector<ConfigVector> configs{
        ConfigVector(circuit.ConfigurableOpamps().size())};
    const CampaignResult serial =
        RunCampaign(circuit, fault_list, configs, FastOptions(1));
    const CampaignResult parallel =
        RunCampaign(circuit, fault_list, configs, FastOptions(8));
    ExpectBitIdentical(serial, parallel, name);
  }
}

/// Parallel sections a campaign opens (util.parallel.sections delta).
std::uint64_t ParallelSections(const DftCircuit& circuit,
                               const std::vector<faults::Fault>& fault_list,
                               const std::vector<ConfigVector>& configs,
                               std::size_t threads) {
  util::metrics::ScopedEnable metrics;
  util::metrics::Counter& sections =
      util::metrics::GetCounter("util.parallel.sections");
  const std::uint64_t before = sections.Value();
  RunCampaign(circuit, fault_list, configs, FastOptions(threads));
  return sections.Value() - before;
}

TEST(WholeUnitScheduling, OneUnitSectionWhenConfigurationsCoverTheThreads) {
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("biquad").build());
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  const auto configs = SmallConfigSet(circuit);
  // At least as many configurations as threads: the shared envelope pass
  // opens one section over its samples, then one section hands whole units
  // to the workers, and every section inside a unit runs serially.
  EXPECT_EQ(ParallelSections(circuit, fault_list, configs, 2), 2u);
  EXPECT_EQ(ParallelSections(circuit, fault_list, configs, configs.size()),
            2u);
  // Fewer: units run in turn and parallelize inside (frequency blocks),
  // so every unit opens sections of its own.
  EXPECT_GT(ParallelSections(circuit, fault_list, configs, configs.size() + 1),
            configs.size());
}

TEST(WholeUnitScheduling, RethrowsTheSerialLoopsFirstFailure) {
  // Two configurations of the wrong width, at indices 1 and 3: each fails
  // at once, naming its width.  With whole units per worker both can be
  // in flight together and either may fail first in time, yet the lower
  // index wins — the error the serial loop throws.
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("biquad").build());
  const auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  const std::size_t width = circuit.ConfigurableOpamps().size();
  std::vector<ConfigVector> configs = SmallConfigSet(circuit);
  configs.insert(configs.begin() + 1, ConfigVector(width + 2));
  configs.insert(configs.begin() + 3, ConfigVector(width + 1));

  const auto error = [&](std::size_t threads) {
    try {
      RunCampaign(circuit, fault_list, configs, FastOptions(threads));
    } catch (const util::Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string serial = error(1);
  ASSERT_NE(serial.find(std::to_string(width + 2) + " bits"),
            std::string::npos)
      << serial;
  for (std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                              configs.size()}) {
    EXPECT_EQ(error(threads), serial) << threads << " threads";
  }

  // No unit is claimed after a failure: at 2 threads the first wrong-width
  // unit fails while the first unit is still running, so far fewer unit
  // boundaries (counted by the never-firing stall faultpoint) than units
  // are passed.
  util::faultpoint::Arm("campaign.unit.stall", 0.0, 1);
  error(2);
  EXPECT_LT(util::faultpoint::StatsOf("campaign.unit.stall").evaluations,
            configs.size() - 2);
  util::faultpoint::DisarmAll();
}

}  // namespace
}  // namespace mcdft::core
