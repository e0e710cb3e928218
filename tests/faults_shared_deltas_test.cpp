// The campaign's shared stamp-delta table (core::BuildSharedFaultDeltas,
// faults::FaultDeltaTable) against the per-configuration delta it stands
// for: every shared entry must be FaultStampDelta::Compute on the
// configured netlist, bit for bit, in every configuration; faults on
// configurable opamps stay with the units; and the campaign counts where
// each delta was computed.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <string>

#include "circuits/zoo.hpp"
#include "core/campaign.hpp"
#include "core/diagnosis.hpp"
#include "core/server/request.hpp"
#include "faults/fault_list.hpp"
#include "faults/simulator.hpp"
#include "faults/stamp_delta.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace mcdft::core {
namespace {

using faults::FaultDeltaTable;
namespace metrics = util::metrics;

bool SameBits(linalg::Complex a, linalg::Complex b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

using Entries = std::vector<std::pair<std::size_t, linalg::Complex>>;

bool SameEntries(const Entries& a, const Entries& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || !SameBits(a[i].second, b[i].second)) {
      return false;
    }
  }
  return true;
}

bool SameDelta(const linalg::LowRankPerturbation& a,
               const linalg::LowRankPerturbation& b) {
  if (a.Rank() != b.Rank()) return false;
  for (std::size_t k = 0; k < a.Rank(); ++k) {
    if (!SameEntries(a.terms[k].u, b.terms[k].u) ||
        !SameEntries(a.terms[k].w, b.terms[k].w)) {
      return false;
    }
  }
  return true;
}

/// What Compute gives for `fault` on `netlist` at `omega`, as an outcome
/// plus the delta.
FaultDeltaTable::Outcome ComputeOutcome(
    const spice::MnaSystem& sys, spice::Netlist& netlist,
    const faults::Fault& fault, double omega,
    faults::FaultStampDelta::Scratch& scratch,
    linalg::LowRankPerturbation& out) {
  try {
    return faults::FaultStampDelta::Compute(
               sys, netlist.GetElement(fault.Device()),
               sys.ElementIndexOf(fault.Device()), fault,
               spice::AnalysisKind::kAc, omega, scratch, out)
               ? FaultDeltaTable::Outcome::kDelta
               : FaultDeltaTable::Outcome::kNotExpressible;
  } catch (const util::Error&) {
    return FaultDeltaTable::Outcome::kThrew;
  }
}

bool OnConfigurableOpamp(const DftCircuit& circuit, const faults::Fault& f) {
  for (const std::string& name : circuit.ConfigurableOpamps()) {
    if (util::ToUpper(name) == util::ToUpper(f.Device())) return true;
  }
  return false;
}

/// Check every entry of `circuit`'s shared table (fault universe `both`,
/// the opamp faults and a fault on each voltage source — an RHS delta, "not
/// expressible" — on the CLI's grid) against Compute on each of `configs`'
/// configured netlists; returns the number of entries compared.
std::size_t CheckSharedEntries(const DftCircuit& circuit,
                               const std::vector<ConfigVector>& configs) {
  std::vector<faults::Fault> fault_list = faults::MergeFaultLists(
      {faults::MakeDeviationFaults(circuit.Circuit()),
       faults::MakeCatastrophicFaults(circuit.Circuit()),
       faults::MakeOpampFaults(circuit.Circuit())});
  for (const auto& e : circuit.Circuit().Elements()) {
    if (e->Kind() == spice::ElementKind::kVoltageSource) {
      fault_list.emplace_back(e->Name(), faults::FaultKind::kDeviationUp, 0.1);
    }
  }
  CampaignOptions options = MakePaperCampaignOptions();
  DftCircuit work = circuit.Clone();
  const CampaignFrame frame = BuildCampaignFrame(work, fault_list, options);
  const std::optional<FaultDeltaTable> table =
      BuildSharedFaultDeltas(work, frame, fault_list, options);
  EXPECT_TRUE(table.has_value());
  if (!table) return 0;
  const std::vector<double>& freqs = frame.sweep.Frequencies();

  std::size_t shared_faults = 0;
  for (std::size_t j = 0; j < fault_list.size(); ++j) {
    EXPECT_EQ(table->Covers(j), !OnConfigurableOpamp(circuit, fault_list[j]))
        << circuit.Name() << " " << fault_list[j].Label();
    if (table->Covers(j)) ++shared_faults;
  }
  EXPECT_EQ(table->EntryCount(), shared_faults * freqs.size());

  std::size_t compared = 0;
  std::size_t not_expressible = 0;
  faults::FaultStampDelta::Scratch scratch;
  linalg::LowRankPerturbation expected, read;
  for (const ConfigVector& cv : configs) {
    spice::Netlist netlist = [&] {
      ScopedConfiguration configured(work, cv);
      return work.Circuit().Clone();
    }();
    const spice::MnaSystem sys(netlist);
    std::size_t mismatches = 0;
    std::string first;
    for (std::size_t j = 0; j < fault_list.size(); ++j) {
      if (!table->Covers(j)) continue;
      for (std::size_t t = 0; t < freqs.size(); ++t) {
        const FaultDeltaTable::Outcome want =
            ComputeOutcome(sys, netlist, fault_list[j],
                           faults::SweepOmega(freqs, t), scratch, expected);
        const FaultDeltaTable::Outcome got = table->Read(j, t, read);
        ++compared;
        not_expressible += got == FaultDeltaTable::Outcome::kNotExpressible;
        if (want != got ||
            (want == FaultDeltaTable::Outcome::kDelta &&
             !SameDelta(expected, read))) {
          if (mismatches++ == 0) {
            first = fault_list[j].Label() + " at point " + std::to_string(t);
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << circuit.Name() << " " << cv.BitString() << ": first " << first;
  }
  EXPECT_GT(not_expressible, 0u) << circuit.Name();  // the source faults
  return compared;
}

// Every zoo circuit, in every configuration up to 5 opamps; on cascade6
// C0, the 9 single followers and 40 seeded others.
TEST(SharedFaultDeltas, EveryEntryEqualsTheConfiguredDelta) {
  for (const auto& entry : circuits::Zoo()) {
    const DftCircuit circuit = DftCircuit::Transform(entry.build());
    const ConfigurationSpace space = circuit.Space();
    std::vector<ConfigVector> configs;
    if (space.OpampCount() <= 5) {
      configs = space.All();
    } else {
      configs = space.UpToKFollowers(1);
      std::mt19937_64 rng(20261021);
      std::uniform_int_distribution<std::size_t> pick(
          0, (std::size_t{1} << space.OpampCount()) - 1);
      for (std::size_t k = 0; k < 40; ++k) {
        configs.push_back(
            ConfigVector::FromIndex(pick(rng), space.OpampCount()));
      }
    }
    EXPECT_GT(CheckSharedEntries(circuit, configs), 0u) << entry.name;
  }
}

// Partial DFT: an opamp left out of the configurable set is in normal mode
// in every configuration, so its faults are shared like a resistor's.
TEST(SharedFaultDeltas, FixedOpampFaultsAreShared) {
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("biquad").build(),
                            {"OP1", "OP3"});
  const auto opamp_faults = faults::MakeOpampFaults(circuit.Circuit());
  std::size_t fixed = 0;
  for (const auto& f : opamp_faults) fixed += !OnConfigurableOpamp(circuit, f);
  EXPECT_EQ(fixed, 2u);  // OP2's gain and bandwidth faults
  EXPECT_GT(CheckSharedEntries(circuit, circuit.Space().All()), 0u);
}

// A fault whose device does not resolve is left to the unit, which throws
// the frequency-major sweep's own resolution error.
TEST(SharedFaultDeltas, UnknownDeviceThrowsFromTheUnit) {
  util::faultpoint::DisarmAll();
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("biquad").build());
  std::vector<faults::Fault> fault_list =
      faults::MakeDeviationFaults(circuit.Circuit());
  fault_list.emplace_back("RX", faults::FaultKind::kDeviationUp, 0.2);
  CampaignOptions options;
  options.points_per_decade = 5;
  DftCircuit work = circuit.Clone();
  const CampaignFrame frame = BuildCampaignFrame(work, fault_list, options);
  const std::optional<FaultDeltaTable> table =
      BuildSharedFaultDeltas(work, frame, fault_list, options);
  ASSERT_TRUE(table.has_value());
  EXPECT_TRUE(table->Covers(0));
  EXPECT_FALSE(table->Covers(fault_list.size() - 1));
  try {
    RunCampaign(circuit, fault_list, circuit.Space().AllNonTransparent(),
                options);
    FAIL() << "expected util::AnalysisError";
  } catch (const util::AnalysisError& e) {
    EXPECT_STREQ(e.what(), "analysis: element 'RX' not found in MNA system");
  }
}

TEST(SharedFaultDeltas, TableForAnotherFaultListOrGridIsRefused) {
  const DftCircuit circuit =
      DftCircuit::Transform(circuits::FindInZoo("biquad").build());
  const std::vector<faults::Fault> fault_list =
      faults::MakeDeviationFaults(circuit.Circuit());
  CampaignOptions options;
  options.points_per_decade = 5;
  DftCircuit work = circuit.Clone();
  const CampaignFrame frame = BuildCampaignFrame(work, fault_list, options);
  const FaultDeltaTable table =
      *BuildSharedFaultDeltas(work, frame, fault_list, options);
  const faults::FaultSimulator simulator(work.Circuit(), frame.sweep,
                                         frame.probe);
  EXPECT_NO_THROW(simulator.SimulateRange(fault_list, 0, fault_list.size(), 1,
                                          nullptr, &table));

  std::vector<faults::Fault> other_list = fault_list;
  other_list.pop_back();
  EXPECT_THROW(simulator.SimulateRange(other_list, 0, other_list.size(), 1,
                                       nullptr, &table),
               util::AnalysisError);

  const spice::SweepSpec other_grid = spice::SweepSpec::Decade(
      frame.band.FLow(), frame.band.FHigh(), frame.band.PointsPerDecade() + 1);
  const faults::FaultSimulator other(work.Circuit(), other_grid, frame.probe);
  EXPECT_THROW(other.SimulateRange(fault_list, 0, fault_list.size(), 1,
                                   nullptr, &table),
               util::AnalysisError);
}

// Full-space cascade6 computes each of its 24 x 201 deltas once per
// campaign and no unit computes one; the opamp-test campaign's faults sit
// on configurable opamps, so its units compute every delta.
TEST(SharedFaultDeltas, CampaignsCountSharedAndUnitDeltas) {
  util::faultpoint::DisarmAll();
  const metrics::ScopedEnable metrics_on;
  const auto counted = [](const auto& run) {
    const metrics::Snapshot before = metrics::Capture();
    run();
    const metrics::Snapshot delta = metrics::Delta(before, metrics::Capture());
    return std::pair{delta.CounterValue("faults.sim.shared_deltas"),
                     delta.CounterValue("faults.sim.unit_deltas")};
  };

  server::CampaignRequest request;
  request.circuit = "cascade6";
  request.max_followers = 9;
  request.tol = 0.0;  // the envelope does not touch the deltas
  const server::CampaignJob job = server::BuildCampaignJob(request);
  ASSERT_EQ(job.configs.size(), 511u);
  const auto [shared, unit] = counted([&] {
    RunCampaign(job.circuit, job.fault_list, job.configs, job.options);
  });
  EXPECT_EQ(shared, 4824u);
  EXPECT_EQ(unit, 0u);

  const DftCircuit biquad =
      DftCircuit::Transform(circuits::FindInZoo("biquad").build());
  std::optional<OpampTestResult> result;
  const auto [opamp_shared, opamp_unit] =
      counted([&] { result = RunOpampTransparentTest(biquad); });
  const CampaignResult& campaign = result->localization;
  EXPECT_EQ(opamp_shared, 0u);
  EXPECT_EQ(opamp_unit, campaign.ConfigCount() * campaign.FaultCount() *
                            campaign.PerConfig()[0].nominal.PointCount());
}

}  // namespace
}  // namespace mcdft::core
