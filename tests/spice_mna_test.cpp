// Element-stamp and MNA-engine tests: every element type is verified
// against hand-computed circuit solutions, and the compiled AC stamp
// program is held bit-exact to the generic assembly.
#include "spice/mna.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numbers>
#include <random>

#include "circuits/zoo.hpp"
#include "core/configuration.hpp"
#include "core/server/request.hpp"
#include "spice/ac_analysis.hpp"

namespace mcdft::spice {
namespace {

TEST(Mna, ResistiveDivider) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 10.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddResistor("R2", "out", "0", 3e3);
  MnaSystem sys(nl);
  auto sol = sys.SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 7.5, 1e-9);
  // Source branch current: 10V across 4k = 2.5 mA flowing out of +.
  auto i = sol.BranchCurrent(sys.ElementIndexOf("V1"));
  EXPECT_NEAR(i.real(), -2.5e-3, 1e-12);
}

TEST(Mna, CurrentSourceIntoResistor) {
  Netlist nl;
  nl.AddCurrentSource("I1", "0", "out", 2e-3);  // 2 mA into node out
  nl.AddResistor("R1", "out", "0", 1e3);
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 2.0, 1e-12);
}

TEST(Mna, CapacitorOpenAtDc) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 5.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-6);
  nl.AddResistor("R2", "out", "0", 1e9);  // keeps the DC system regular
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 5.0, 1e-3);
}

TEST(Mna, InductorShortAtDc) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 5.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddInductor("L1", "out", "0", 1e-3);
  MnaSystem sys(nl);
  auto sol = sys.SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 0.0, 1e-12);
  // All 5 mA flows through the inductor branch.
  auto i = sol.BranchCurrent(sys.ElementIndexOf("L1"));
  EXPECT_NEAR(i.real(), 5e-3, 1e-12);
}

// DC analysis is MnaSystem::SolveDc: s = 0, sources at their DC values.
TEST(DcAnalysis, AcSourceContributesNothingAtDc) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);  // DC 0, AC 1
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddResistor("R2", "out", "0", 1e3);
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_EQ(sol.VoltageAt(nl.FindNode("out")), Complex(0.0, 0.0));
}

TEST(DcAnalysis, VoltageAtOutOfRangeThrows) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "0", 1e3);
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_EQ(sol.VoltageAt(kGround), Complex(0.0, 0.0));
  EXPECT_THROW(sol.VoltageAt(99), util::AnalysisError);
}

TEST(Mna, RcLowPassAtCutoff) {
  // R-C low-pass: |H| = 1/sqrt(2), phase -45 deg at f = 1/(2 pi R C).
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-6);
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-6);
  auto sol = MnaSystem(nl).SolveAcHz(fc);
  Complex h = sol.VoltageAt(nl.FindNode("out"));
  EXPECT_NEAR(std::abs(h), 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(std::arg(h) * 180.0 / std::numbers::pi, -45.0, 1e-6);
}

TEST(Mna, RlHighPass) {
  // series R, shunt L: |H| = wL/sqrt(R^2 + (wL)^2).
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "out", 100.0);
  nl.AddInductor("L1", "out", "0", 1e-3);
  const double f = 100.0 / (2.0 * std::numbers::pi * 1e-3);  // wL = R
  auto sol = MnaSystem(nl).SolveAcHz(f);
  EXPECT_NEAR(std::abs(sol.VoltageAt(nl.FindNode("out"))),
              1.0 / std::sqrt(2.0), 1e-9);
}

TEST(Mna, RlcSeriesResonance) {
  // At resonance the LC cancels: full source voltage across R.
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddInductor("L1", "in", "a", 1e-3);
  nl.AddCapacitor("C1", "a", "out", 1e-9);
  nl.AddResistor("R1", "out", "0", 50.0);
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-9));
  auto sol = MnaSystem(nl).SolveAcHz(f0);
  EXPECT_NEAR(std::abs(sol.VoltageAt(nl.FindNode("out"))), 1.0, 1e-6);
}

TEST(Mna, VcvsGain) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 2.0);
  nl.AddResistor("RL0", "in", "0", 1e3);
  nl.AddVcvs("E1", "out", "0", "in", "0", 10.0);
  nl.AddResistor("RL", "out", "0", 1e3);
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 20.0, 1e-9);
}

TEST(Mna, VccsTransconductance) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("RI", "in", "0", 1e6);
  nl.AddVccs("G1", "0", "out", "in", "0", 1e-3);  // 1 mA into out per volt
  nl.AddResistor("RL", "out", "0", 2e3);
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 2.0, 1e-9);
}

TEST(Mna, CcvsTransresistance) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "0", 500.0);  // source current = 2 mA
  nl.AddCcvs("H1", "out", "0", "V1", 1e3);
  nl.AddResistor("RL", "out", "0", 1e3);
  auto sol = MnaSystem(nl).SolveDc();
  // V1 branch current is -2 mA (flows out of +), so V(out) = -2 V.
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), -2.0, 1e-9);
}

TEST(Mna, CccsGain) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "0", 1e3);  // 1 mA through V1 (out of +)
  nl.AddCccs("F1", "0", "out", "V1", 5.0);
  nl.AddResistor("RL", "out", "0", 1e3);
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), -5.0, 1e-9);
}

TEST(Mna, OpampInvertingAmplifier) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("RIN", "in", "minus", 1e3);
  nl.AddResistor("RF", "minus", "out", 10e3);
  nl.AddOpamp("OP1", "0", "minus", "out");
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), -10.0, 1e-3);
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("minus")).real(), 0.0, 1e-4);
}

TEST(Mna, OpampNonInvertingAmplifier) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("RG", "minus", "0", 1e3);
  nl.AddResistor("RF", "minus", "out", 4e3);
  nl.AddOpamp("OP1", "in", "minus", "out");
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), 5.0, 1e-3);
}

TEST(Mna, IdealOpampModel) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("RIN", "in", "minus", 1e3);
  nl.AddResistor("RF", "minus", "out", 10e3);
  OpampModel ideal{OpampModelKind::kIdeal, 0.0, 0.0};
  nl.AddElement(std::make_unique<Opamp>("OP1", nl.Node("0"), nl.Node("minus"),
                                        nl.Node("out"), ideal));
  auto sol = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol.VoltageAt(nl.FindNode("out")).real(), -10.0, 1e-9);
}

TEST(Mna, SinglePoleOpampRollsOff) {
  // Unity follower with GBW 1 MHz: at 1 MHz |H| ~ 1/sqrt(2).
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  OpampModel pole{OpampModelKind::kSinglePole, 1e5, 1e6};
  nl.AddElement(std::make_unique<Opamp>("OP1", nl.Node("in"), nl.Node("out"),
                                        nl.Node("out"), pole));
  nl.AddResistor("RL", "out", "0", 1e4);
  MnaSystem sys(nl);
  EXPECT_NEAR(std::abs(sys.SolveAcHz(1e3).VoltageAt(nl.FindNode("out"))), 1.0,
              1e-2);
  EXPECT_NEAR(std::abs(sys.SolveAcHz(1e6).VoltageAt(nl.FindNode("out"))),
              1.0 / std::sqrt(2.0), 2e-2);
}

TEST(Mna, ConfigurableOpampFollowerTracksTestInput) {
  Netlist nl;
  nl.AddVoltageSource("V1", "sig", "0", 3.0);
  nl.AddResistor("RS", "sig", "0", 1e3);
  nl.AddResistor("RIN", "sig", "minus", 1e3);
  nl.AddResistor("RF", "minus", "out", 1e3);
  auto& e = nl.AddOpamp("OP1", "0", "minus", "out");
  auto& op = static_cast<Opamp&>(e);
  op.MakeConfigurable(nl.Node("sig"));

  // Normal mode: inverting gain -1.
  auto sol_normal = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol_normal.VoltageAt(nl.FindNode("out")).real(), -3.0, 1e-3);

  // Follower mode: output tracks the test input, feedback network is
  // driven but ignored.
  op.SetMode(OpampMode::kFollower);
  auto sol_follow = MnaSystem(nl).SolveDc();
  EXPECT_NEAR(sol_follow.VoltageAt(nl.FindNode("out")).real(), 3.0, 1e-3);
}

TEST(Mna, BackendsAgree) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "a", 1e3);
  nl.AddCapacitor("C1", "a", "0", 1e-9);
  nl.AddResistor("R2", "a", "b", 2e3);
  nl.AddInductor("L1", "b", "0", 1e-3);
  // MnaSystem::Solve factors this small system densely; the sparse LU
  // must agree on the same assembly.
  const MnaSystem sys(nl);
  ASSERT_TRUE(UseDenseLu(sys.UnknownCount()));
  const double omega = 2.0 * std::numbers::pi * 50e3;
  auto sd = sys.Solve(AnalysisKind::kAc, omega);
  linalg::TripletMatrix a;
  linalg::Vector rhs;
  sys.Assemble(AnalysisKind::kAc, omega, a, rhs);
  const linalg::Vector xs = linalg::SolveSparse(linalg::CsrMatrix(a), rhs);
  for (NodeId n = 1; n < nl.NodeCount(); ++n) {
    EXPECT_NEAR(std::abs(sd.VoltageAt(n) - xs[n - 1]), 0.0, 1e-10);
  }
}

TEST(Mna, UnknownCountsNodesPlusBranches) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);  // 1 branch
  nl.AddResistor("R1", "in", "out", 1e3);     // 0 branches
  nl.AddInductor("L1", "out", "0", 1e-3);     // 1 branch
  MnaSystem sys(nl);
  EXPECT_EQ(sys.NodeUnknownCount(), 2u);
  EXPECT_EQ(sys.UnknownCount(), 4u);
}

TEST(Mna, InvalidNetlistRejectedAtConstruction) {
  Netlist nl;  // empty
  EXPECT_THROW(MnaSystem{nl}, util::NetlistError);
}

TEST(Mna, ElementIndexOfUnknownThrows) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "0", 1.0);
  MnaSystem sys(nl);
  EXPECT_THROW(sys.ElementIndexOf("nope"), util::AnalysisError);
}

TEST(Mna, BranchCurrentOfBranchlessElementThrows) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddResistor("R1", "in", "0", 1.0);
  MnaSystem sys(nl);
  auto sol = sys.SolveDc();
  EXPECT_THROW(sol.BranchCurrent(sys.ElementIndexOf("R1")),
               util::AnalysisError);
}

TEST(Mna, FloatingNodeSingularSystemThrows) {
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddCapacitor("C1", "in", "mid", 1e-9);
  nl.AddCapacitor("C2", "mid", "0", 1e-9);
  // DC: mid is isolated by the capacitors -> singular DC system.
  EXPECT_THROW(MnaSystem(nl).SolveDc(), util::NumericError);
  // AC is fine.
  EXPECT_NO_THROW(MnaSystem(nl).SolveAcHz(1e3));
}

// --- Compiled AC stamp program ---------------------------------------

bool SameBits(Complex a, Complex b) {
  return std::bit_cast<std::uint64_t>(a.real()) ==
             std::bit_cast<std::uint64_t>(b.real()) &&
         std::bit_cast<std::uint64_t>(a.imag()) ==
             std::bit_cast<std::uint64_t>(b.imag());
}

/// Replays `sys`'s program over a log sweep and checks every CSR value and
/// RHS entry against Assemble + CsrAssembly::Update at the same point, bit
/// for bit.  Returns the number of points checked.
std::size_t ExpectProgramMatchesAssemble(const MnaSystem& sys,
                                         const std::string& what) {
  const std::vector<double> freqs =
      SweepSpec::Decade(1.0, 1e7, 3).Frequencies();
  AcStampProgram program;
  linalg::TripletMatrix a;
  linalg::Vector rhs;
  program.Record(sys, 2.0 * std::numbers::pi * freqs[0], a, rhs);
  linalg::CsrAssembly compiled(a);
  linalg::CsrAssembly reference(a);
  program.Bind(compiled);

  linalg::Vector program_rhs;
  for (const double f : freqs) {
    const double omega = 2.0 * std::numbers::pi * f;
    sys.Assemble(AnalysisKind::kAc, omega, a, rhs);
    reference.Update(a);
    program.Evaluate(omega, compiled, program_rhs);
    const std::vector<Complex>& want = reference.Matrix().Values();
    const std::vector<Complex>& got = compiled.Matrix().Values();
    EXPECT_EQ(got.size(), want.size()) << what;
    for (std::size_t k = 0; k < want.size() && k < got.size(); ++k) {
      EXPECT_TRUE(SameBits(got[k], want[k]))
          << what << " f=" << f << " slot " << k << ": " << got[k] << " vs "
          << want[k];
    }
    EXPECT_EQ(program_rhs.size(), rhs.size()) << what;
    for (std::size_t i = 0; i < rhs.size() && i < program_rhs.size(); ++i) {
      EXPECT_TRUE(SameBits(program_rhs[i], rhs[i]))
          << what << " f=" << f << " rhs " << i;
    }
  }
  return freqs.size();
}

TEST(AcStampProgram, MatchesAssembleOnEveryZooConfiguration) {
  std::size_t configurations = 0;
  for (const auto& entry : circuits::Zoo()) {
    core::DftCircuit circuit = core::DftCircuit::Transform(entry.build());
    for (const core::ConfigVector& cv : circuit.Space().All()) {
      core::ScopedConfiguration scope(circuit, cv);
      const MnaSystem sys(circuit.Circuit());
      ExpectProgramMatchesAssemble(sys, entry.name + " " + cv.Name());
      ++configurations;
    }
  }
  EXPECT_GT(configurations, 512u);  // cascade6 alone has 2^9
}

// A sweep's first point must not depend on whether the cache built its CSR
// pattern at that point or kept one from an earlier sweep: the tolerance
// envelope gives every thread range a fresh cache, so first-point bits
// that differ here would make envelopes depend on the thread split.
TEST(AcStampProgram, FirstPointIsTheSameOnFreshAndReusedPatterns) {
  std::size_t configurations = 0;
  for (const auto& entry : circuits::Zoo()) {
    core::server::CampaignRequest request;
    request.circuit = entry.name;
    core::server::CampaignJob job = core::server::BuildCampaignJob(request);
    const core::CampaignFrame frame =
        core::BuildCampaignFrame(job.circuit, job.fault_list, job.options);
    for (const core::ConfigVector& cv : job.configs) {
      core::ScopedConfiguration scope(job.circuit, cv);
      const MnaSystem sys(job.circuit.Circuit());
      MnaSolveCache fresh;
      fresh.BeginSweep();
      const MnaSolution built = fresh.SolveAcHz(sys, frame.sweep.FStart());
      MnaSolveCache reused;
      reused.BeginSweep();
      reused.SolveAcHz(sys, frame.sweep.FStop());  // builds the pattern
      reused.BeginSweep();
      const MnaSolution kept = reused.SolveAcHz(sys, frame.sweep.FStart());
      ASSERT_EQ(built.Raw().size(), kept.Raw().size());
      for (std::size_t i = 0; i < built.Raw().size(); ++i) {
        EXPECT_TRUE(SameBits(built.Raw()[i], kept.Raw()[i]))
            << entry.name << " " << cv.Name() << " unknown " << i << ": "
            << built.Raw()[i] << " vs " << kept.Raw()[i];
      }
      ++configurations;
    }
  }
  EXPECT_EQ(configurations, 123u);  // the default campaigns of the zoo
}

/// A random deck over every element kind, including parallel elements that
/// share CSR slots and opamps of every model in both modes.
Netlist RandomDeck(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> node_count(3, 7);
  const int nodes = node_count(rng);
  const auto node = [](int i) {
    return i == 0 ? std::string("0") : "n" + std::to_string(i);
  };
  std::uniform_int_distribution<int> any_node(0, nodes);
  std::uniform_real_distribution<double> decade(-1.0, 1.0);
  const auto value = [&](double scale) {
    return scale * std::pow(10.0, decade(rng));
  };

  Netlist nl;
  // A spanning tree of resistors keeps every node connected to ground.
  for (int i = 1; i <= nodes; ++i) {
    std::uniform_int_distribution<int> earlier(0, i - 1);
    nl.AddResistor("RT" + std::to_string(i), node(i), node(earlier(rng)),
                   value(1e3));
  }
  nl.AddVoltageSource("VS", node(1), "0", 0.0, value(1.0), 30.0);
  std::uniform_int_distribution<int> kind(0, 10);
  std::uniform_int_distribution<int> extra_count(4, 14);
  const int extras = extra_count(rng);
  for (int e = 0; e < extras; ++e) {
    const std::string id = std::to_string(e);
    const std::string p = node(any_node(rng));
    std::string m = node(any_node(rng));
    if (m == p) m = p == "0" ? node(1) : "0";
    switch (kind(rng)) {
      case 0: nl.AddResistor("R" + id, p, m, value(1e3)); break;
      case 1:
        // Parallel pair: two capacitors on the same node pair share slots.
        nl.AddCapacitor("C" + id, p, m, value(1e-8));
        nl.AddCapacitor("CP" + id, p, m, value(1e-9));
        break;
      case 2: nl.AddInductor("L" + id, p, m, value(1e-3)); break;
      case 3: nl.AddCurrentSource("I" + id, p, m, 0.0, value(1e-3), 45.0); break;
      case 4:
        nl.AddVcvs("E" + id, p, m, node(any_node(rng)), node(any_node(rng)),
                   value(2.0));
        break;
      case 5:
        nl.AddVccs("G" + id, p, m, node(any_node(rng)), node(any_node(rng)),
                   value(1e-3));
        break;
      case 6: nl.AddCcvs("H" + id, p, m, "VS", value(1e2)); break;
      case 7: nl.AddCccs("F" + id, p, m, "VS", value(0.5)); break;
      default: {
        Opamp& op = static_cast<Opamp&>(
            nl.AddOpamp("U" + id, p, m, node(any_node(rng) % nodes + 1)));
        const int model = e % 3;
        OpampModel om;
        om.kind = model == 0   ? OpampModelKind::kIdeal
                  : model == 1 ? OpampModelKind::kFiniteGain
                               : OpampModelKind::kSinglePole;
        om.a0 = value(1e5);
        om.gbw = value(1e6);
        op.SetModel(om);
        if (kind(rng) % 2 == 0) {
          op.MakeConfigurable(nl.FindNode(node(any_node(rng) % nodes + 1)));
          op.SetMode(OpampMode::kFollower);
        }
        break;
      }
    }
  }
  return nl;
}

TEST(AcStampProgram, MatchesAssembleOnRandomDecks) {
  std::size_t decks = 0;
  for (std::uint64_t seed = 0; decks < 240; ++seed) {
    std::mt19937_64 rng(0x57A3F ^ seed);
    const Netlist nl = RandomDeck(rng);
    if (!nl.Validate().empty()) continue;
    const MnaSystem sys(nl);
    ExpectProgramMatchesAssemble(sys, "deck seed " + std::to_string(seed));
    ++decks;
  }
}

/// A resistor that counts its Stamp calls.
class CountingResistor final : public Element {
 public:
  CountingResistor(NodeId a, NodeId b, int* stamps)
      : Element("RCOUNT", {a, b}), stamps_(stamps) {}
  ElementKind Kind() const override { return ElementKind::kResistor; }
  void Stamp(StampContext& ctx) const override {
    ++*stamps_;
    ctx.AddAdmittance(Nodes()[0], Nodes()[1], Complex(1e-3, 0.0));
  }
  std::unique_ptr<Element> Clone() const override {
    return std::make_unique<CountingResistor>(*this);
  }
  std::string ParamString() const override { return "1k"; }

 private:
  int* stamps_;
};

TEST(AcStampProgram, SweepStampsEachElementOnce) {
  int stamps = 0;
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddElement(std::make_unique<CountingResistor>(
      nl.FindNode("in"), nl.Node("out"), &stamps));
  nl.AddCapacitor("C1", "out", "0", 1e-7);
  const AcAnalyzer analyzer(nl);
  const SweepSpec sweep = SweepSpec::Decade(10.0, 1e6, 40);
  ASSERT_GT(sweep.PointCount(), 200u);
  const Probe probe{nl.FindNode("out"), kGround, "v(out)"};
  analyzer.Run(sweep, probe);
  EXPECT_EQ(stamps, 1);
  analyzer.Run(sweep, probe);
  EXPECT_EQ(stamps, 2);  // each sweep records afresh
}

TEST(AcStampProgram, RejectsStampsThatReadSDirectly) {
  // An element computing an s-dependent value itself could not be replayed
  // at another frequency: recording refuses it by name.
  class RawCapacitor final : public Element {
   public:
    RawCapacitor(NodeId a, NodeId b) : Element("CRAW", {a, b}) {}
    ElementKind Kind() const override { return ElementKind::kCapacitor; }
    void Stamp(StampContext& ctx) const override {
      ctx.AddAdmittance(Nodes()[0], Nodes()[1], ctx.S() * 1e-9);
    }
    std::unique_ptr<Element> Clone() const override {
      return std::make_unique<RawCapacitor>(*this);
    }
    std::string ParamString() const override { return "1n"; }
  };
  Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddElement(std::make_unique<RawCapacitor>(nl.FindNode("out"), kGround));
  const MnaSystem sys(nl);
  AcStampProgram program;
  linalg::TripletMatrix a;
  linalg::Vector rhs;
  try {
    program.Record(sys, 1e3, a, rhs);
    FAIL() << "expected AnalysisError";
  } catch (const util::AnalysisError& e) {
    EXPECT_NE(std::string(e.what()).find("CRAW"), std::string::npos)
        << e.what();
  }
  // The generic assembly still serves one-off solves of such an element.
  EXPECT_NO_THROW(sys.SolveAcHz(1e3));
}

}  // namespace
}  // namespace mcdft::spice
