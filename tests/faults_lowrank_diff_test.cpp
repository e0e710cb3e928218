// Differential accuracy tests of the low-rank (SMW) fault-solve path
// against the exact refactorization path.
//
// The stamp-delta derivation plus the SMW update must reproduce the exact
// faulty solution to solver roundoff on *arbitrary* circuits, not just the
// zoo: ~200 randomized RC/RLC ladders, each with a random single-element
// fault, are solved both ways and compared point-wise.  A second test pins
// the end-to-end equivalence of FaultSimulator::SimulateRange (the
// frequency-major SMW engine) and the fail-fast fault-major sweeps of
// SimulateNominal / SimulateFault.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "circuits/zoo.hpp"
#include "faults/fault_list.hpp"
#include "faults/injector.hpp"
#include "faults/simulator.hpp"
#include "faults/stamp_delta.hpp"
#include "linalg/lowrank.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft {
namespace {

// Both tests compare undisturbed solves, so they opt out of any armed
// MCDFT_FAULTPOINTS spec (an injected SMW failure would turn an update
// into an exact solve, or a thrown error).
class LowRankFaultDiff : public ::testing::Test {
 protected:
  void SetUp() override { util::faultpoint::DisarmAll(); }
  void TearDown() override { util::faultpoint::DisarmAll(); }
};

using linalg::Complex;
using linalg::CsrMatrix;
using linalg::SparseLu;
using linalg::TripletMatrix;
using linalg::Vector;

struct RandomCircuit {
  spice::Netlist netlist;
  std::vector<std::string> tweakable;  // R/C/L names for fault targets
};

/// Random RC/RLC ladder (same construction as the random LU differential
/// tests): a source-driven spine of series resistors, a shunt R/C/L from
/// every spine node to ground, plus random bridging capacitors.
RandomCircuit BuildRandomLadder(std::mt19937_64& rng, bool with_inductors) {
  std::uniform_int_distribution<std::size_t> stage_count(3, 12);
  std::uniform_real_distribution<double> log_r(2.0, 5.0);
  std::uniform_real_distribution<double> log_c(-10.0, -7.0);
  std::uniform_real_distribution<double> log_l(-4.0, -2.0);
  std::uniform_int_distribution<int> kind(0, with_inductors ? 2 : 1);

  RandomCircuit out;
  const std::size_t stages = stage_count(rng);
  std::size_t n_res = 0, n_cap = 0, n_ind = 0;
  const auto node = [](std::size_t i) { return "n" + std::to_string(i); };

  out.netlist.AddVoltageSource("Vin", node(0), "0", 0.0, 1.0);
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string r = "R" + std::to_string(++n_res);
    out.netlist.AddResistor(r, node(i), node(i + 1),
                            std::pow(10.0, log_r(rng)));
    out.tweakable.push_back(r);
    switch (kind(rng)) {
      case 0: {
        const std::string name = "R" + std::to_string(++n_res);
        out.netlist.AddResistor(name, node(i + 1), "0",
                                std::pow(10.0, log_r(rng)));
        out.tweakable.push_back(name);
        break;
      }
      case 1: {
        const std::string name = "C" + std::to_string(++n_cap);
        out.netlist.AddCapacitor(name, node(i + 1), "0",
                                 std::pow(10.0, log_c(rng)));
        out.tweakable.push_back(name);
        break;
      }
      default: {
        const std::string name = "L" + std::to_string(++n_ind);
        out.netlist.AddInductor(name, node(i + 1), "0",
                                std::pow(10.0, log_l(rng)));
        out.tweakable.push_back(name);
        break;
      }
    }
  }
  std::uniform_int_distribution<std::size_t> pick(1, stages);
  for (int b = 0; b < 2; ++b) {
    const std::size_t a = pick(rng), c = pick(rng);
    if (a == c) continue;
    out.netlist.AddCapacitor("C" + std::to_string(++n_cap), node(a), node(c),
                             std::pow(10.0, log_c(rng)));
  }
  out.netlist.ValidateOrThrow();
  return out;
}

double MaxRelativeError(const Vector& x, const Vector& y) {
  double scale = x.NormInf();
  if (scale == 0.0) scale = 1.0;
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - y[i]) / scale);
  }
  return err;
}

/// A random fault drawn from the full model: deviations, opens, shorts.
faults::Fault RandomFault(std::mt19937_64& rng, const std::string& device) {
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_real_distribution<double> mag(0.05, 0.8);
  switch (kind(rng)) {
    case 0: return faults::Fault(device, faults::FaultKind::kDeviationUp,
                                 mag(rng));
    case 1: return faults::Fault(device, faults::FaultKind::kDeviationDown,
                                 mag(rng));
    case 2: return faults::Fault::Open(device);
    default: return faults::Fault::Short(device);
  }
}

TEST_F(LowRankFaultDiff, SmwMatchesExactSolveOnRandomCircuits) {
  constexpr std::size_t kCases = 200;
  std::size_t smw_solves = 0;
  for (std::size_t seed = 0; seed < kCases; ++seed) {
    std::mt19937_64 rng(0x5EED5 ^ seed);
    RandomCircuit rc = BuildRandomLadder(rng, seed % 2 == 0);
    const spice::MnaSystem mna(rc.netlist);
    std::uniform_int_distribution<std::size_t> pick(0, rc.tweakable.size() - 1);
    const faults::Fault fault = RandomFault(rng, rc.tweakable[pick(rng)]);
    std::uniform_real_distribution<double> log_f(1.0, 6.0);
    const double omega = 2.0 * 3.141592653589793 * std::pow(10.0, log_f(rng));

    // Nominal factorization + SMW update.
    TripletMatrix a;
    Vector b;
    mna.Assemble(spice::AnalysisKind::kAc, omega, a, b);
    SparseLu nominal{CsrMatrix(a)};
    linalg::LowRankUpdateSolver solver;
    solver.Bind(nominal, b);
    const auto delta = faults::FaultStampDelta::Compute(
        mna, rc.netlist, fault, spice::AnalysisKind::kAc, omega);
    ASSERT_TRUE(delta.has_value())
        << "seed " << seed << ": passive single-element fault must be "
        << "expressible as a low-rank matrix update";
    const auto fast = solver.Solve(*delta);
    ASSERT_TRUE(fast.has_value()) << "seed " << seed;
    ++smw_solves;

    // Exact path: inject, reassemble, factor from scratch.
    faults::ScopedFaultInjection injection(rc.netlist, fault);
    mna.Assemble(spice::AnalysisKind::kAc, omega, a, b);
    const Vector exact = linalg::SolveSparse(CsrMatrix(a), b);
    // Parametric deviations — the campaign's fault class — perturb the
    // matrix at its own scale and agree to solver roundoff.  Catastrophic
    // opens/shorts scale one entry by 1e9, so the SMW correction is
    // conditioned ~1e9 worse than the nominal solve; a few lost digits are
    // inherent to the update form, not a defect (still 1000x tighter than
    // the campaign's epsilon band).
    const bool catastrophic = fault.Kind() == faults::FaultKind::kOpen ||
                              fault.Kind() == faults::FaultKind::kShort;
    EXPECT_LT(MaxRelativeError(*fast, exact), catastrophic ? 1e-6 : 1e-9)
        << "seed " << seed << " fault " << fault.Label() << " omega " << omega;
  }
  EXPECT_EQ(smw_solves, kCases);
}

TEST_F(LowRankFaultDiff, SimulateRangeMatchesLegacyFaultMajorSweeps) {
  // End-to-end: the frequency-major SMW engine must agree with the
  // per-fault sweeps on a real circuit, fault label by fault label,
  // without a single retry or quarantined point.
  auto block = circuits::FindInZoo("biquad").build();
  auto faults_list = faults::MakeDeviationFaults(block.netlist);
  ASSERT_GT(faults_list.size(), 4u);
  spice::Probe probe{block.netlist.FindNode(block.output_node), spice::kGround,
                     "v(" + block.output_node + ")"};
  auto sweep = spice::SweepSpec::Decade(10.0, 1e5, 8);
  const util::metrics::ScopedEnable metrics_on;
  util::metrics::Counter& retries =
      util::metrics::GetCounter("faults.sim.retries");
  util::metrics::Counter& quarantined =
      util::metrics::GetCounter("faults.sim.quarantined");
  const std::uint64_t retries_before = retries.Value();
  const std::uint64_t quarantined_before = quarantined.Value();

  faults::FaultSimulator simulator(block.netlist, sweep, probe);
  const auto via_smw =
      simulator.SimulateRange(faults_list, 0, faults_list.size(), 1);
  std::vector<spice::FrequencyResponse> via_exact{simulator.SimulateNominal()};
  for (const faults::Fault& f : faults_list) {
    via_exact.push_back(simulator.SimulateFault(f));
  }
  EXPECT_EQ(retries.Value(), retries_before);
  EXPECT_EQ(quarantined.Value(), quarantined_before);

  ASSERT_EQ(via_smw.size(), via_exact.size());
  ASSERT_EQ(via_smw.size(), faults_list.size() + 1);
  for (std::size_t r = 0; r < via_smw.size(); ++r) {
    EXPECT_EQ(via_smw[r].label, via_exact[r].label);
    EXPECT_EQ(via_smw[r].QuarantinedCount(), 0u);
    ASSERT_EQ(via_smw[r].PointCount(), via_exact[r].PointCount());
    for (std::size_t t = 0; t < via_smw[r].PointCount(); ++t) {
      EXPECT_LT(std::abs(via_smw[r].values[t] - via_exact[r].values[t]),
                1e-9 * std::max(1.0, std::abs(via_exact[r].values[t])))
          << "row " << via_smw[r].label << " point " << t;
    }
  }
}

}  // namespace
}  // namespace mcdft
