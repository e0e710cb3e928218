#include "spice/ac_analysis.hpp"

#include <gtest/gtest.h>

#include <numbers>

#include "circuits/biquad.hpp"
#include "faults/injector.hpp"

namespace mcdft::spice {
namespace {

/// Max |cached - scratch| over a sweep, scaled by the scratch magnitude.
void ExpectSweepMatchesScratch(const Netlist& nl, const SweepSpec& sweep,
                               const Probe& probe) {
  AcAnalyzer cached(nl);
  const FrequencyResponse r = cached.Run(sweep, probe);
  const MnaSystem scratch(nl);  // fresh assembly + factorization per point
  for (std::size_t i = 0; i < sweep.PointCount(); ++i) {
    const Complex ref = scratch.SolveAcHz(sweep.Frequencies()[i])
                            .VoltageBetween(probe.plus, probe.minus);
    EXPECT_NEAR(std::abs(r.values[i] - ref), 0.0,
                1e-12 * (1.0 + std::abs(ref)))
        << "point " << i << " at " << sweep.Frequencies()[i] << " Hz";
  }
  // Whole-sweep reuse: one full factorization, the rest numeric refactors.
  EXPECT_EQ(cached.FullFactorCount(), 1u);
  EXPECT_EQ(cached.RefactorCount(), sweep.PointCount() - 1);
}

Netlist RcLowPass() {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-6);
  return nl;
}

TEST(SweepSpec, DecadeGridEndpointsAndMonotonicity) {
  auto s = SweepSpec::Decade(10.0, 1e4, 10);
  EXPECT_DOUBLE_EQ(s.FStart(), 10.0);
  EXPECT_DOUBLE_EQ(s.FStop(), 1e4);
  EXPECT_EQ(s.PointCount(), 31u);  // 3 decades * 10 + 1
  for (std::size_t i = 1; i < s.PointCount(); ++i) {
    EXPECT_GT(s.Frequencies()[i], s.Frequencies()[i - 1]);
  }
}

TEST(SweepSpec, DecadeGridIsLogUniform) {
  auto s = SweepSpec::Decade(1.0, 1e3, 5);
  const auto& f = s.Frequencies();
  const double ratio = f[1] / f[0];
  for (std::size_t i = 2; i < f.size(); ++i) {
    EXPECT_NEAR(f[i] / f[i - 1], ratio, ratio * 1e-9);
  }
}

TEST(SweepSpec, LinearGrid) {
  auto s = SweepSpec::Linear(100.0, 200.0, 5);
  ASSERT_EQ(s.PointCount(), 5u);
  EXPECT_DOUBLE_EQ(s.Frequencies()[1], 125.0);
  EXPECT_DOUBLE_EQ(s.Frequencies()[4], 200.0);
}

TEST(SweepSpec, ListGrid) {
  auto s = SweepSpec::List({1.0, 10.0, 100.0});
  EXPECT_EQ(s.PointCount(), 3u);
}

TEST(SweepSpec, RejectsBadSpecs) {
  EXPECT_THROW(SweepSpec::Decade(0.0, 1e3, 10), util::AnalysisError);
  EXPECT_THROW(SweepSpec::Decade(1e3, 1e2, 10), util::AnalysisError);
  EXPECT_THROW(SweepSpec::Decade(1.0, 1e3, 0), util::AnalysisError);
  EXPECT_THROW(SweepSpec::Linear(1.0, 2.0, 1), util::AnalysisError);
  EXPECT_THROW(SweepSpec::List({}), util::AnalysisError);
  EXPECT_THROW(SweepSpec::List({10.0, 5.0}), util::AnalysisError);
  EXPECT_THROW(SweepSpec::List({-1.0, 5.0}), util::AnalysisError);
}

TEST(AcAnalyzer, RcLowPassMagnitudeAndPhase) {
  Netlist nl = RcLowPass();
  AcAnalyzer analyzer(nl);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e-3);
  Probe probe{nl.FindNode("out"), kGround, "v(out)"};
  auto r = analyzer.Run(SweepSpec::List({fc / 100.0, fc, fc * 100.0}), probe);
  ASSERT_EQ(r.PointCount(), 3u);
  EXPECT_NEAR(r.MagnitudeAt(0), 1.0, 1e-3);
  EXPECT_NEAR(r.MagnitudeAt(1), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(r.MagnitudeAt(2), 0.01, 1e-4);
  EXPECT_NEAR(r.PhaseDegAt(1), -45.0, 1e-3);
  EXPECT_NEAR(r.MagnitudeDbAt(1), -3.0103, 1e-3);
}

TEST(AcAnalyzer, MultiProbeSharesSolves) {
  Netlist nl = RcLowPass();
  AcAnalyzer analyzer(nl);
  Probe pout{nl.FindNode("out"), kGround, "v(out)"};
  Probe pin{nl.FindNode("in"), kGround, "v(in)"};
  Probe pdiff{nl.FindNode("in"), nl.FindNode("out"), "v(in,out)"};
  auto rs = analyzer.RunMulti(SweepSpec::Decade(10, 1e5, 5), {pout, pin, pdiff});
  ASSERT_EQ(rs.size(), 3u);
  for (std::size_t i = 0; i < rs[0].PointCount(); ++i) {
    // v(in) - v(out) == v(in,out)
    EXPECT_NEAR(std::abs((rs[1].values[i] - rs[0].values[i]) - rs[2].values[i]),
                0.0, 1e-12);
    EXPECT_NEAR(std::abs(rs[1].values[i]), 1.0, 1e-12);  // ideal source
  }
}

TEST(AcAnalyzer, NoProbesThrows) {
  Netlist nl = RcLowPass();
  AcAnalyzer analyzer(nl);
  EXPECT_THROW(analyzer.RunMulti(SweepSpec::Decade(10, 100, 5), {}),
               util::AnalysisError);
}

TEST(SolverReuse, CachedSweepMatchesScratchOnBiquad) {
  const auto block = circuits::BuildBiquad();
  const Netlist& nl = block.netlist;
  Probe probe{nl.FindNode(block.output_node), kGround, "v(out)"};
  ExpectSweepMatchesScratch(nl, SweepSpec::Decade(10.0, 1e5, 12), probe);
}

TEST(SolverReuse, CachedSweepMatchesScratchWithBranchUnknowns) {
  // VCVS and opamp add branch-current unknowns, exercising the cached
  // pattern on the bordered (node + branch) MNA structure.
  Netlist nl("amp");
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "a", 1e3);
  nl.AddCapacitor("C1", "a", "0", 1e-7);
  nl.AddVcvs("E1", "b", "0", "a", "0", 10.0);
  nl.AddResistor("R2", "b", "c", 2e3);
  nl.AddOpamp("OP1", "0", "c", "out");
  nl.AddResistor("RF", "c", "out", 5e3);
  Probe probe{nl.FindNode("out"), kGround, "v(out)"};
  ExpectSweepMatchesScratch(nl, SweepSpec::Decade(10.0, 1e5, 12), probe);
}

TEST(SolverReuse, SurvivesFaultInjectionValueMutation) {
  // One analyzer across nominal -> faulted -> restored sweeps must match a
  // fresh analyzer run on each netlist state: the cache keys nothing on
  // element values, and each sweep re-derives its pivot ordering.
  const auto block = circuits::BuildBiquad();
  Netlist nl = block.netlist.Clone();
  const auto sweep = SweepSpec::Decade(10.0, 1e5, 10);
  Probe probe{nl.FindNode(block.output_node), kGround, "v(out)"};

  AcAnalyzer reused(nl);
  const FrequencyResponse nominal_first = reused.Run(sweep, probe);
  FrequencyResponse faulted_reused;
  {
    faults::ScopedFaultInjection injection(
        nl, faults::Fault("R1", faults::FaultKind::kDeviationUp, 0.2));
    faulted_reused = reused.Run(sweep, probe);
    // Fresh analyzer on the currently-faulted netlist: bit-identical.
    AcAnalyzer fresh(nl);
    const FrequencyResponse faulted_fresh = fresh.Run(sweep, probe);
    for (std::size_t i = 0; i < sweep.PointCount(); ++i) {
      EXPECT_EQ(faulted_reused.values[i], faulted_fresh.values[i]);
    }
    // And matches the non-cached scratch solver to 1e-12.
    const MnaSystem scratch(nl);
    for (std::size_t i = 0; i < sweep.PointCount(); ++i) {
      const Complex ref = scratch.SolveAcHz(sweep.Frequencies()[i])
                              .VoltageBetween(probe.plus, probe.minus);
      EXPECT_NEAR(std::abs(faulted_reused.values[i] - ref), 0.0,
                  1e-12 * (1.0 + std::abs(ref)));
    }
  }
  // The fault actually moved the response.
  bool moved = false;
  for (std::size_t i = 0; i < sweep.PointCount(); ++i) {
    if (faulted_reused.values[i] != nominal_first.values[i]) moved = true;
  }
  EXPECT_TRUE(moved);
  // After restoration the reused analyzer reproduces the first sweep bit
  // for bit.
  const FrequencyResponse nominal_again = reused.Run(sweep, probe);
  for (std::size_t i = 0; i < sweep.PointCount(); ++i) {
    EXPECT_EQ(nominal_again.values[i], nominal_first.values[i]);
  }
}

TEST(FrequencyResponse, PeakIndexFindsResonance) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "a", 10.0);
  nl.AddInductor("L1", "a", "out", 1e-3);
  nl.AddCapacitor("C1", "out", "0", 1e-9);
  // Band-pass voltage across C near f0 ~ 159 kHz.
  AcAnalyzer analyzer(nl);
  Probe probe{nl.FindNode("out"), kGround, "v(out)"};
  auto r = analyzer.Run(SweepSpec::Decade(1e3, 1e7, 20), probe);
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-9));
  const double fpeak = r.freqs_hz[r.PeakIndex()];
  EXPECT_NEAR(std::log10(fpeak), std::log10(f0), 0.06);
}

TEST(FrequencyResponse, ConsistencyCheck) {
  FrequencyResponse r;
  r.freqs_hz = {1.0, 2.0};
  r.values = {Complex(1, 0)};
  EXPECT_THROW(r.CheckConsistent(), util::AnalysisError);
}

TEST(FrequencyResponse, MagnitudeDbOfZeroClamps) {
  FrequencyResponse r;
  r.freqs_hz = {1.0};
  r.values = {Complex(0, 0)};
  EXPECT_DOUBLE_EQ(r.MagnitudeDbAt(0), -400.0);
}

TEST(RelativeDeviation, PointwiseOnMatchingGrids) {
  FrequencyResponse ref, faulty;
  ref.freqs_hz = {1.0, 10.0};
  ref.values = {Complex(1.0, 0.0), Complex(0.5, 0.0)};
  faulty.freqs_hz = ref.freqs_hz;
  faulty.values = {Complex(1.1, 0.0), Complex(0.5, 0.0)};
  auto dev = RelativeDeviation(faulty, ref, 1e-9);
  ASSERT_EQ(dev.size(), 2u);
  EXPECT_NEAR(dev[0], 0.1, 1e-12);
  EXPECT_NEAR(dev[1], 0.0, 1e-12);
}

TEST(RelativeDeviation, FloorGuardsSmallReference) {
  FrequencyResponse ref, faulty;
  ref.freqs_hz = {1.0, 10.0};
  ref.values = {Complex(1.0, 0.0), Complex(1e-6, 0.0)};  // deep stopband
  faulty.freqs_hz = ref.freqs_hz;
  faulty.values = {Complex(1.0, 0.0), Complex(2e-6, 0.0)};
  // Pointwise reading: 100% deviation at the stopband point.
  auto raw = RelativeDeviation(faulty, ref, 1e-12);
  EXPECT_NEAR(raw[1], 1.0, 1e-9);
  // With a 25%-of-peak floor the same deviation is negligible.
  auto floored = RelativeDeviation(faulty, ref, 0.25);
  EXPECT_NEAR(floored[1], 1e-6 / 0.25, 1e-9);
}

TEST(RelativeDeviation, GridMismatchThrows) {
  FrequencyResponse ref, faulty;
  ref.freqs_hz = {1.0};
  ref.values = {Complex(1, 0)};
  faulty.freqs_hz = {2.0};
  faulty.values = {Complex(1, 0)};
  EXPECT_THROW(RelativeDeviation(faulty, ref), util::AnalysisError);
}

}  // namespace
}  // namespace mcdft::spice
