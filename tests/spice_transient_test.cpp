// The campaign's transient march (faults::FaultSimulator::
// SimulateTransientRange over spice/transient_analysis's companion stepper)
// against two independent oracles:
//
//  1. A scalar trapezoidal recursion of the same ODE, written directly
//     from the state equations.  The MNA companion models are algebraically
//     the same discretization, so agreement must be near machine precision
//     — this pins the companion bookkeeping (history recursions, RHS
//     signs, step indexing) bit-tight across ~100 random circuits.
//  2. The closed-form step response, within the O(h^2) global error of the
//     trapezoidal rule — this pins the discretization itself.
//
// Plus: open/short catastrophic stamps (value factors 1e9 / 1e-9) must
// leave the transient system solvable with finite, physically bounded,
// unquarantined trajectories.
#include "spice/transient_analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "faults/fault.hpp"
#include "faults/simulator.hpp"
#include "util/error.hpp"

namespace mcdft::spice {
namespace {

/// The campaign's transient march over `nl`, probed at node "out": slot 0
/// is the nominal trajectory, slot 1 + j the trajectory of `faults[j]`.
std::vector<FrequencyResponse> March(
    const Netlist& nl, const TransientSpec& spec,
    const std::vector<faults::Fault>& faults = {}) {
  const faults::FaultSimulator sim(
      nl, SweepSpec::List({1.0}),
      Probe{nl.FindNode("out"), kGround, "v(out)"});
  return sim.SimulateTransientRange(faults, 0, faults.size(), 1, spec);
}

/// The nominal slot of March(), which must not be quarantined.
FrequencyResponse MarchNominal(const Netlist& nl, const TransientSpec& spec) {
  FrequencyResponse r = March(nl, spec)[0];
  EXPECT_EQ(r.QuarantinedCount(), 0u);
  return r;
}

TEST(TransientSpec, TimesGridExcludesTimeZero) {
  TransientSpec spec;
  spec.t_end_s = 1.0;
  spec.steps = 4;
  const std::vector<double> t = spec.Times();
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0], 0.25);
  EXPECT_DOUBLE_EQ(t[3], 1.0);
}

TEST(TransientSpec, RejectsDegenerateWindows) {
  TransientSpec zero_steps{1e-3, 0};
  EXPECT_THROW(zero_steps.Times(), util::AnalysisError);
  TransientSpec zero_window{0.0, 16};
  EXPECT_THROW(zero_window.Times(), util::AnalysisError);
  TransientSpec negative{-1.0, 16};
  EXPECT_THROW(negative.Times(), util::AnalysisError);
}

TEST(TransientAnalysis, ValuesArePurelyReal) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-6);
  const auto r = MarchNominal(nl, TransientSpec{5e-3, 64});
  ASSERT_EQ(r.PointCount(), 64u);
  for (std::size_t i = 0; i < r.PointCount(); ++i) {
    EXPECT_EQ(r.values[i].imag(), 0.0) << "step " << i;
  }
}

// v' = (u - v) / (RC), v(0) = 0, u_0 = 0 (zero initial state), u_k = 1 for
// k >= 1: the scalar trapezoidal recursion the companion model must equal.
std::vector<double> ScalarTrapezoidRc(double r_ohm, double c_farad, double h,
                                      std::size_t steps) {
  const double a = h / (2.0 * r_ohm * c_farad);
  std::vector<double> out;
  double v = 0.0, u_prev = 0.0;
  for (std::size_t k = 1; k <= steps; ++k) {
    const double u = 1.0;
    v = (v * (1.0 - a) + a * (u_prev + u)) / (1.0 + a);
    u_prev = u;
    out.push_back(v);
  }
  return out;
}

TEST(TransientAnalysis, RandomRcMatchesScalarTrapezoidAndClosedForm) {
  std::mt19937 rng(20260810);
  std::uniform_real_distribution<double> log_r(2.0, 5.0);   // 100 ohm..100 k
  std::uniform_real_distribution<double> log_c(-9.0, -6.0);  // 1 nF..1 uF
  for (int trial = 0; trial < 60; ++trial) {
    const double r_ohm = std::pow(10.0, log_r(rng));
    const double c_farad = std::pow(10.0, log_c(rng));
    const double tau = r_ohm * c_farad;
    TransientSpec spec{5.0 * tau, 128};

    Netlist nl;
    nl.AddVoltageSource("V1", "in", "0", 1.0);
    nl.AddResistor("R1", "in", "out", r_ohm);
    nl.AddCapacitor("C1", "out", "0", c_farad);
    const auto resp = MarchNominal(nl, spec);
    const auto oracle =
        ScalarTrapezoidRc(r_ohm, c_farad, spec.StepSize(), spec.steps);

    ASSERT_EQ(resp.PointCount(), oracle.size());
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      const double v = resp.values[k].real();
      // Same discretization, different arithmetic path: near-exact.
      EXPECT_NEAR(v, oracle[k], 1e-10)
          << "R=" << r_ohm << " C=" << c_farad << " step " << k + 1;
      // Closed form: the trapezoidal input average (u_k + u_{k+1})/2 models
      // a source stepping at t = h/2, so the discrete trajectory tracks the
      // half-step-delayed response 1 - exp(-(t - h/2)/tau) to O(h^2); against
      // the undelayed response the mismatch would be O(h) near t = 0.
      const double t = resp.freqs_hz[k] - 0.5 * spec.StepSize();
      EXPECT_NEAR(v, 1.0 - std::exp(-t / tau), 2e-3)
          << "R=" << r_ohm << " C=" << c_farad << " t=" << t;
    }
  }
}

// Series RLC driven by a unit step, output across C:
//   C v' = i,   L i' = u - R i - v,   x(0) = 0, u_0 = 0, u_k = 1 (k >= 1).
// One trapezoidal step solves the 2x2 system for x_{k+1}.
std::vector<double> ScalarTrapezoidRlc(double r_ohm, double l_henry,
                                       double c_farad, double h,
                                       std::size_t steps) {
  std::vector<double> out;
  double v = 0.0, i = 0.0, u_prev = 0.0;
  for (std::size_t k = 1; k <= steps; ++k) {
    const double u = 1.0;
    // v1 - (h/2C) i1                      = v + (h/2C) i
    // (h/2L) v1 + (1 + hR/2L) i1          = i + (h/2L)(u_prev + u - v) - (hR/2L) i
    const double a11 = 1.0, a12 = -h / (2.0 * c_farad);
    const double a21 = h / (2.0 * l_henry), a22 = 1.0 + h * r_ohm / (2.0 * l_henry);
    const double b1 = v + h / (2.0 * c_farad) * i;
    const double b2 = i + h / (2.0 * l_henry) * (u_prev + u - v) -
                      h * r_ohm / (2.0 * l_henry) * i;
    const double det = a11 * a22 - a12 * a21;
    const double v1 = (b1 * a22 - a12 * b2) / det;
    const double i1 = (a11 * b2 - b1 * a21) / det;
    v = v1;
    i = i1;
    u_prev = u;
    out.push_back(v);
  }
  return out;
}

TEST(TransientAnalysis, RandomRlcMatchesScalarTrapezoidAndClosedForm) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> pick_r(1.0, 50.0);
  std::uniform_real_distribution<double> log_l(-4.0, -3.0);  // 100 uH..1 mH
  std::uniform_real_distribution<double> log_c(-8.0, -7.0);  // 10 nF..100 nF
  for (int trial = 0; trial < 40; ++trial) {
    const double r_ohm = pick_r(rng);
    const double l_henry = std::pow(10.0, log_l(rng));
    const double c_farad = std::pow(10.0, log_c(rng));
    const double w0 = 1.0 / std::sqrt(l_henry * c_farad);
    const double zeta = 0.5 * r_ohm * std::sqrt(c_farad / l_henry);
    ASSERT_LT(zeta, 1.0);  // parameter ranges keep every draw underdamped
    TransientSpec spec{10.0 / w0, 256};

    Netlist nl;
    nl.AddVoltageSource("V1", "in", "0", 1.0);
    nl.AddResistor("R1", "in", "a", r_ohm);
    nl.AddInductor("L1", "a", "out", l_henry);
    nl.AddCapacitor("C1", "out", "0", c_farad);
    const auto resp = MarchNominal(nl, spec);
    const auto oracle = ScalarTrapezoidRlc(r_ohm, l_henry, c_farad,
                                           spec.StepSize(), spec.steps);

    const double wd = w0 * std::sqrt(1.0 - zeta * zeta);
    ASSERT_EQ(resp.PointCount(), oracle.size());
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      const double v = resp.values[k].real();
      EXPECT_NEAR(v, oracle[k], 1e-8)
          << "R=" << r_ohm << " L=" << l_henry << " C=" << c_farad
          << " step " << k + 1;
      const double t = resp.freqs_hz[k];
      const double analytic =
          1.0 - std::exp(-zeta * w0 * t) *
                    (std::cos(wd * t) + zeta * w0 / wd * std::sin(wd * t));
      EXPECT_NEAR(v, analytic, 2e-2)
          << "R=" << r_ohm << " L=" << l_henry << " C=" << c_farad
          << " t=" << t;
    }
  }
}

// Catastrophic stamps push element values by 1e9 (short on R: conductance
// up; open on C: capacitance down) — the transient companion matrix must
// stay factorable and the passive trajectories physically bounded.  Every
// fault slot of the campaign march must come back unquarantined.
TEST(TransientAnalysis, OpenShortStampsStayWellConditioned) {
  using faults::Fault;
  const TransientSpec spec{1e-3, 128};
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "mid", 1e3);
  nl.AddCapacitor("C1", "mid", "0", 1e-7);
  nl.AddResistor("R2", "mid", "out", 1e3);
  nl.AddCapacitor("C2", "out", "0", 1e-7);
  std::vector<Fault> faults;
  for (const char* device : {"R1", "R2", "C1", "C2"}) {
    faults.push_back(Fault::Open(device));
    faults.push_back(Fault::Short(device));
  }
  const std::vector<FrequencyResponse> slots = March(nl, spec, faults);
  ASSERT_EQ(slots.size(), 1 + faults.size());
  for (std::size_t j = 0; j < faults.size(); ++j) {
    const FrequencyResponse& resp = slots[1 + j];
    const std::string label = faults[j].Label();
    ASSERT_EQ(resp.PointCount(), spec.steps) << label;
    ASSERT_EQ(resp.QuarantinedCount(), 0u) << label;
    for (std::size_t k = 0; k < resp.PointCount(); ++k) {
      const double v = resp.values[k].real();
      ASSERT_TRUE(std::isfinite(v)) << label << " step " << k + 1;
      // A passive RC ladder driven by a 1 V step cannot exceed the
      // source; leave slack for the extreme-value arithmetic.
      ASSERT_LE(std::abs(v), 2.0) << label << " step " << k + 1;
    }
  }
}

}  // namespace
}  // namespace mcdft::spice
