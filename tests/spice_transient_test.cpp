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
// unquarantined trajectories; every element kind must assemble a real
// system; the dense stage of the march must give the values of a fresh
// dense solve per step; and an overflowing elimination must quarantine its
// whole trajectory.
#include "spice/transient_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <random>

#include "circuits/zoo.hpp"
#include "faults/fault.hpp"
#include "faults/fault_list.hpp"
#include "faults/injector.hpp"
#include "faults/simulator.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"

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

/// True when every entry of `m` is real (imaginary part exactly 0).
bool AllReal(const linalg::TripletMatrix& m) {
  return std::all_of(m.Entries().begin(), m.Entries().end(),
                     [](const linalg::Triplet& t) {
                       return t.value.imag() == 0.0;
                     });
}

// The march solves in double, so every bundled element kind must stamp a
// real transient system: s = (2/h, 0), opamp gains at s = 0, sources at
// their principal value.
TEST(TransientAnalysis, EveryElementKindAssemblesReal) {
  const TransientSpec spec{1e-3, 16};
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0, 1.0, 30.0);
  nl.AddCurrentSource("I1", "0", "n1", 1e-3, 1.0, 45.0);
  nl.AddResistor("R1", "in", "n1", 1e3);
  nl.AddCapacitor("C1", "n1", "0", 1e-7);
  nl.AddInductor("L1", "n1", "n2", 1e-3);
  nl.AddResistor("R2", "n2", "0", 1e3);
  nl.AddVcvs("E1", "n3", "0", "n2", "0", 2.0);
  nl.AddResistor("R3", "n3", "0", 1e3);
  nl.AddVccs("G1", "n4", "0", "n3", "0", 1e-3);
  nl.AddResistor("R4", "n4", "0", 1e3);
  nl.AddCcvs("H1", "n5", "0", "V1", 10.0);
  nl.AddResistor("R5", "n5", "0", 1e3);
  nl.AddCccs("F1", "n6", "0", "V1", 0.5);
  nl.AddResistor("R6", "n6", "0", 1e3);
  const auto opamp = [&](const char* name, const char* out,
                         OpampModelKind kind) -> Opamp& {
    auto& op = static_cast<Opamp&>(nl.AddOpamp(name, "n4", out, out));
    op.SetModel(OpampModel{kind, 1e5, 1e6});
    nl.AddResistor(std::string("RL") + name, out, "0", 1e3);
    return op;
  };
  opamp("OP1", "o1", OpampModelKind::kIdeal);
  opamp("OP2", "o2", OpampModelKind::kFiniteGain);
  opamp("OP3", "o3", OpampModelKind::kSinglePole);
  Opamp& normal = opamp("OP4", "o4", OpampModelKind::kSinglePole);
  normal.MakeConfigurable(nl.FindNode("o3"));
  Opamp& follower = opamp("OP5", "out", OpampModelKind::kSinglePole);
  follower.MakeConfigurable(nl.FindNode("o4"));
  follower.SetMode(OpampMode::kFollower);
  std::vector<ElementKind> kinds;
  for (const auto& el : nl.Elements()) kinds.push_back(el->Kind());
  for (ElementKind kind :
       {ElementKind::kResistor, ElementKind::kCapacitor,
        ElementKind::kInductor, ElementKind::kVoltageSource,
        ElementKind::kCurrentSource, ElementKind::kVcvs, ElementKind::kVccs,
        ElementKind::kCcvs, ElementKind::kCccs, ElementKind::kOpamp}) {
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end())
        << ElementKindName(kind);
  }

  const MnaSystem sys(nl);
  TransientStepper stepper(sys, nl, spec);  // throws if not real
  EXPECT_TRUE(AllReal(stepper.Matrix()));
  // And the march over it runs clean.
  EXPECT_EQ(MarchNominal(nl, spec).PointCount(), spec.steps);
}

/// An element that stamps an imaginary admittance even at kTransient.
class ImaginaryAdmittance final : public Element {
 public:
  ImaginaryAdmittance(std::string name, NodeId a, NodeId b)
      : Element(std::move(name), {a, b}) {}
  ElementKind Kind() const override { return ElementKind::kResistor; }
  void Stamp(StampContext& ctx) const override {
    ctx.AddAdmittance(Nodes()[0], Nodes()[1], Complex(1e-3, 1e-3));
  }
  std::unique_ptr<Element> Clone() const override {
    return std::make_unique<ImaginaryAdmittance>(*this);
  }
  std::string ParamString() const override { return "1m+1mj"; }
};

// A system that is not real cannot be marched in double: the stepper
// refuses it, and the march quarantines the whole trajectory.
TEST(TransientAnalysis, NonRealSystemIsRefused) {
  const TransientSpec spec{1e-3, 8};
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddElement(std::make_unique<ImaginaryAdmittance>(
      "X1", nl.FindNode("out"), kGround));
  const MnaSystem sys(nl);
  EXPECT_THROW(TransientStepper(sys, nl, spec), util::AnalysisError);
  EXPECT_EQ(March(nl, spec)[0].QuarantinedCount(), spec.steps);
}

// Two 1e-306 ohm resistors assemble a finite real matrix (conductances of
// 1e306), but its elimination overflows: the factor holds a NaN imaginary
// part, the real copy is refused and the trajectory is bad from step 0.
// (Solving through that factor in complex arithmetic returns v(out) = 0 at
// every step, though out sits 1e-306 ohm from a 1 V source.)
TEST(TransientAnalysis, OverflowingEliminationIsBadFromStepZero) {
  const TransientSpec spec{1e-6, 8};
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R0", "in", "out", 1e-306);
  nl.AddResistor("R1", "b", "a", 1e-306);
  nl.AddResistor("R2", "out", "a", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-9);
  nl.AddResistor("RL", "out", "0", 1e3);
  nl.AddResistor("RA", "a", "0", 1e3);
  nl.AddResistor("RB", "b", "0", 1e3);
  const MnaSystem sys(nl);
  const TransientStepper stepper(sys, nl, spec);
  for (const linalg::Triplet& t : stepper.Matrix().Entries()) {
    ASSERT_TRUE(std::isfinite(t.value.real()));
  }
  linalg::RealLuFactor real;
  EXPECT_FALSE(linalg::SparseLu(linalg::CsrMatrix(stepper.Matrix()))
                   .CopyRealFactor(real));
  const FrequencyResponse r = March(nl, spec)[0];
  EXPECT_EQ(r.QuarantinedCount(), spec.steps);
  for (const Complex& v : r.values) EXPECT_EQ(v, Complex(0.0, 0.0));
}

/// The dense stage's oracle: a fresh SolveDense (an O(n^3) factorization)
/// at every step, in complex arithmetic.
FrequencyResponse PerStepDenseMarch(Netlist nl, const TransientSpec& spec,
                                    const Probe& probe,
                                    const faults::Fault* fault) {
  FrequencyResponse r;
  r.freqs_hz = spec.Times();
  r.values.assign(spec.steps, Complex(0.0, 0.0));
  const MnaSystem sys(nl);
  std::optional<TransientStepper> stepper;
  {
    std::optional<faults::ScopedFaultInjection> injection;
    if (fault != nullptr) injection.emplace(nl, *fault);
    stepper.emplace(sys, nl, spec);
  }
  const linalg::Matrix dense = stepper->Matrix().ToDense();
  std::vector<double> x;
  for (std::size_t k = 0; k < spec.steps; ++k) {
    const std::vector<double>& b = stepper->NextRhs();
    linalg::Vector bc(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) bc[i] = Complex(b[i], 0.0);
    const linalg::Vector xc = linalg::SolveDense(dense, bc);
    const auto at = [&](NodeId node) {
      return node == kGround ? Complex(0.0, 0.0) : xc[node - 1];
    };
    r.values[k] = at(probe.plus) - at(probe.minus);
    x.resize(xc.size());
    for (std::size_t i = 0; i < xc.size(); ++i) x[i] = xc[i].real();
    stepper->Advance(x);
  }
  return r;
}

// With every sparse factorization failing (the armed sparse_lu.factor
// faultpoint), the biquad's trajectories run on the dense stage, which
// factors once per trajectory: each value must equal, bit for bit, the
// real part of a march that refactors densely at every step.
TEST(TransientAnalysis, DenseStageMatchesPerStepDenseSolve) {
  struct Armed {
    Armed() { util::faultpoint::Arm("sparse_lu.factor", 1.0, 7); }
    ~Armed() { util::faultpoint::DisarmAll(); }
  } armed;
  const core::AnalogBlock block = circuits::FindInZoo("biquad").build();
  const Netlist& nl = block.netlist;
  const Probe probe{nl.FindNode(block.output_node), kGround, "v(out)"};
  const TransientSpec spec{2e-3, 64};
  const std::vector<faults::Fault> faults = faults::MakeCatastrophicFaults(nl);
  const faults::FaultSimulator sim(nl, SweepSpec::List({1.0}), probe);
  const std::vector<FrequencyResponse> got =
      sim.SimulateTransientRange(faults, 0, faults.size(), 1, spec);
  EXPECT_GT(util::faultpoint::StatsOf("sparse_lu.factor").fired, 0u);
  ASSERT_EQ(got.size(), 1 + faults.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    const faults::Fault* fault = j == 0 ? nullptr : &faults[j - 1];
    const std::string label = j == 0 ? "nominal" : fault->Label();
    const FrequencyResponse want =
        PerStepDenseMarch(nl.Clone(), spec, probe, fault);
    EXPECT_EQ(got[j].QuarantinedCount(), 0u) << label;
    for (std::size_t k = 0; k < spec.steps; ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j].values[k].real()),
                std::bit_cast<std::uint64_t>(want.values[k].real()))
          << label << " step " << k;
      EXPECT_EQ(got[j].values[k].imag(), 0.0) << label << " step " << k;
    }
  }
}

}  // namespace
}  // namespace mcdft::spice
