// Shared factor programs and the sparse LU's pivot decisions on the
// campaigns the tools run: adopting a stored program must not move a bit,
// and the refactor accept/reject decisions of a default `mcdft analyze`
// campaign are pinned, so a change to the pivot or growth tests that moves
// any decision shows up here.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "core/campaign.hpp"
#include "core/configuration.hpp"
#include "core/server/request.hpp"
#include "spice/ac_analysis.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::spice {
namespace {

namespace metrics = util::metrics;

bool SameBits(Complex a, Complex b) {
  return std::memcmp(&a, &b, sizeof(Complex)) == 0;
}

/// Counters of the reused analyzer's sweeps.
struct ReuseCounts {
  std::uint64_t program_shared = 0;
  std::uint64_t refactor_fallback = 0;
};

/// Run `samples` Monte-Carlo envelope samples of `circuit` in configuration
/// `config` (the envelope's own sampling) through one reused analyzer and
/// through a fresh analyzer each, and require the same bits at every
/// point.
ReuseCounts ExpectReusedMatchesFresh(const std::string& circuit,
                                     const core::ConfigVector& config,
                                     std::size_t samples) {
  metrics::ScopedEnable on;
  core::server::CampaignRequest request;
  request.circuit = circuit;
  core::server::CampaignJob job = core::server::BuildCampaignJob(request);
  const core::CampaignFrame frame =
      core::BuildCampaignFrame(job.circuit, job.fault_list, job.options);
  core::ScopedConfiguration scope(job.circuit, config);
  Netlist work = job.circuit.Circuit().Clone();
  std::vector<double> nominal;
  for (const std::string& site : frame.tolerance_sites) {
    nominal.push_back(work.GetElement(site).Value());
  }
  const testability::ToleranceModel model;
  AcAnalyzer reused(work);
  ReuseCounts counts;
  for (std::size_t k = 0; k < samples; ++k) {
    std::mt19937_64 rng(model.seed ^ static_cast<std::uint64_t>(k));
    std::uniform_real_distribution<double> uniform(-model.component_tolerance,
                                                   model.component_tolerance);
    for (std::size_t i = 0; i < nominal.size(); ++i) {
      work.GetElement(frame.tolerance_sites[i])
          .SetValue(nominal[i] * (1.0 + uniform(rng)));
    }
    const metrics::Snapshot before = metrics::Capture();
    const FrequencyResponse got = reused.Run(frame.sweep, frame.probe);
    const metrics::Snapshot delta = metrics::Delta(before, metrics::Capture());
    counts.program_shared +=
        delta.CounterValue("linalg.sparse_lu.program_shared");
    counts.refactor_fallback +=
        delta.CounterValue("linalg.sparse_lu.refactor_fallback");
    AcAnalyzer fresh(work);
    const FrequencyResponse want = fresh.Run(frame.sweep, frame.probe);
    for (std::size_t i = 0; i < want.values.size(); ++i) {
      EXPECT_TRUE(SameBits(got.values[i], want.values[i]))
          << circuit << " " << config.Name() << " sample " << k << " point "
          << i << ": " << got.values[i] << " vs " << want.values[i];
    }
  }
  return counts;
}

// Samples of one cascade6 configuration mostly repeat a few Markowitz
// orders, so the reused analyzer adopts stored programs; khn's sweeps
// reject refactors and bounce between orders.
TEST(SolverReuse, SharedProgramsKeepSweepBits) {
  util::faultpoint::DisarmAll();  // an injected factor failure adds factors
  const ReuseCounts cascade = ExpectReusedMatchesFresh(
      "cascade6", core::ConfigVector::FromBits("101010100"), 24);
  EXPECT_GT(cascade.program_shared, 0u);

  core::server::CampaignRequest request;
  request.circuit = "khn";
  const core::server::CampaignJob khn = core::server::BuildCampaignJob(request);
  const ReuseCounts bounce =
      ExpectReusedMatchesFresh("khn", khn.configs.front(), 12);
  EXPECT_GT(bounce.refactor_fallback, 0u);
  EXPECT_GT(bounce.program_shared, 0u);
}

// The pins below count an undisturbed campaign, so the suite opts out of
// any armed MCDFT_FAULTPOINTS spec (an injected SMW failure adds exact
// fallbacks, each a full factorization).
class SparseLuDecisions : public ::testing::Test {
 protected:
  void SetUp() override { util::faultpoint::DisarmAll(); }
  void TearDown() override { util::faultpoint::DisarmAll(); }
};

/// The sparse LU decisions of a default `mcdft analyze --circuit NAME`
/// campaign: refactors accepted, refactors rejected, full factorizations.
/// The Monte-Carlo envelope sweeps only the functional configuration,
/// 1 + samples sweeps per campaign rather than per configuration, so the
/// counts are the fault simulation's nominal factors plus those sweeps.
/// Thread-invariant: the pins hold at any MCDFT_THREADS.
void ExpectDecisions(const std::string& circuit, std::uint64_t refactor,
                     std::uint64_t fallback, std::uint64_t full_factor) {
  metrics::ScopedEnable on;
  core::server::CampaignRequest request;
  request.circuit = circuit;
  const core::server::CampaignJob job = core::server::BuildCampaignJob(request);
  const metrics::Snapshot before = metrics::Capture();
  core::RunCampaign(job.circuit, job.fault_list, job.configs, job.options);
  const metrics::Snapshot delta = metrics::Delta(before, metrics::Capture());
  EXPECT_EQ(delta.CounterValue("linalg.sparse_lu.refactor"), refactor);
  EXPECT_EQ(delta.CounterValue("linalg.sparse_lu.refactor_fallback"), fallback);
  EXPECT_EQ(delta.CounterValue("linalg.sparse_lu.full_factor"), full_factor);
  // Every program a factor uses is compiled or adopted.
  EXPECT_GT(delta.CounterValue("linalg.sparse_lu.program_compiled"), 0u);
}

TEST_F(SparseLuDecisions, KhnDecisionsArePinned) {
  ExpectDecisions("khn", 1200, 11490, 11554);
}
TEST_F(SparseLuDecisions, InampDecisionsArePinned) {
  ExpectDecisions("inamp", 1200, 11490, 11554);
}
TEST_F(SparseLuDecisions, NotchDecisionsArePinned) {
  ExpectDecisions("notch", 2800, 13090, 13170);
}
TEST_F(SparseLuDecisions, Cascade6DecisionsArePinned) {
  ExpectDecisions("cascade6", 28290, 0, 142);
}
TEST_F(SparseLuDecisions, LeapfrogDecisionsArePinned) {
  ExpectDecisions("leapfrog", 22290, 0, 112);
}

}  // namespace
}  // namespace mcdft::spice
