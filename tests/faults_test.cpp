#include "faults/simulator.hpp"

#include <gtest/gtest.h>

#include "spice/elements.hpp"

namespace mcdft::faults {
namespace {

spice::Netlist RcCircuit() {
  spice::Netlist nl("rc");
  nl.AddVoltageSource("V1", "in", "0", 0.0, 1.0);
  nl.AddResistor("R1", "in", "out", 1e3);
  nl.AddCapacitor("C1", "out", "0", 1e-6);
  return nl;
}

TEST(Fault, ValueFactors) {
  EXPECT_DOUBLE_EQ(Fault("R1", FaultKind::kDeviationUp, 0.2).ValueFactor(), 1.2);
  EXPECT_DOUBLE_EQ(Fault("R1", FaultKind::kDeviationDown, 0.2).ValueFactor(),
                   0.8);
  EXPECT_GT(Fault::Open("R1").ValueFactor(), 1e6);
  EXPECT_LT(Fault::Short("R1").ValueFactor(), 1e-6);
}

TEST(Fault, Labels) {
  EXPECT_EQ(Fault("R1", FaultKind::kDeviationUp, 0.2).Label(), "fR1(+20%)");
  EXPECT_EQ(Fault("c2", FaultKind::kDeviationDown, 0.1).Label(), "fC2(-10%)");
  EXPECT_EQ(Fault::Open("R3").Label(), "fR3(open)");
  EXPECT_EQ(Fault::Short("R3").Label(), "fR3(short)");
  EXPECT_EQ(Fault("R1", FaultKind::kDeviationUp, 0.2).ShortLabel(), "fR1");
}

TEST(Fault, InvalidMagnitudesThrow) {
  EXPECT_THROW(Fault("R1", FaultKind::kDeviationUp, 0.0), util::AnalysisError);
  EXPECT_THROW(Fault("R1", FaultKind::kDeviationUp, -0.1), util::AnalysisError);
  EXPECT_THROW(Fault("R1", FaultKind::kDeviationDown, 1.0), util::AnalysisError);
}

TEST(Fault, ApplyScalesValue) {
  auto nl = RcCircuit();
  Fault("R1", FaultKind::kDeviationUp, 0.2).ApplyTo(nl);
  EXPECT_DOUBLE_EQ(nl.GetElement("R1").Value(), 1.2e3);
}

TEST(Fault, ApplyToUnknownDeviceThrows) {
  auto nl = RcCircuit();
  EXPECT_THROW(Fault("R9", FaultKind::kDeviationUp, 0.2).ApplyTo(nl),
               util::NetlistError);
}

TEST(Fault, ApplyToValuelessDeviceThrows) {
  spice::Netlist nl;
  nl.AddVoltageSource("V1", "in", "0", 1.0);
  nl.AddOpamp("OP1", "in", "x", "x");
  nl.AddResistor("R1", "x", "0", 1.0);
  EXPECT_THROW(Fault("OP1", FaultKind::kDeviationUp, 0.2).ApplyTo(nl),
               util::NetlistError);
}

TEST(Fault, OpenCapacitorLosesCapacitance) {
  auto nl = RcCircuit();
  Fault::Open("C1").ApplyTo(nl);
  EXPECT_LT(nl.GetElement("C1").Value(), 1e-12);  // open cap -> tiny C
  auto nl2 = RcCircuit();
  Fault::Short("C1").ApplyTo(nl2);
  EXPECT_GT(nl2.GetElement("C1").Value(), 1.0);  // short cap -> huge C
}

TEST(Fault, Equality) {
  Fault a("R1", FaultKind::kDeviationUp, 0.2);
  Fault b("r1", FaultKind::kDeviationUp, 0.2);
  Fault c("R1", FaultKind::kDeviationDown, 0.2);
  EXPECT_EQ(a, b);  // canonicalized device names
  EXPECT_FALSE(a == c);
}

TEST(FaultList, DefaultDeviationListMatchesPassives) {
  auto nl = RcCircuit();
  auto faults = MakeDeviationFaults(nl);
  ASSERT_EQ(faults.size(), 2u);  // R1, C1 (not V1)
  EXPECT_EQ(faults[0].Device(), "R1");
  EXPECT_EQ(faults[1].Device(), "C1");
  EXPECT_EQ(faults[0].Kind(), FaultKind::kDeviationUp);
}

TEST(FaultList, BothDirections) {
  auto nl = RcCircuit();
  DeviationFaultOptions opt;
  opt.downward = true;
  auto faults = MakeDeviationFaults(nl, opt);
  EXPECT_EQ(faults.size(), 4u);
}

TEST(FaultList, NoDirectionThrows) {
  auto nl = RcCircuit();
  DeviationFaultOptions opt;
  opt.upward = false;
  opt.downward = false;
  EXPECT_THROW(MakeDeviationFaults(nl, opt), util::AnalysisError);
}

TEST(FaultList, CustomFilter) {
  auto nl = RcCircuit();
  DeviationFaultOptions opt;
  opt.filter = [](const spice::Element& e) {
    return e.Kind() == spice::ElementKind::kResistor;
  };
  auto faults = MakeDeviationFaults(nl, opt);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].Device(), "R1");
}

TEST(FaultList, CatastrophicList) {
  auto nl = RcCircuit();
  auto faults = MakeCatastrophicFaults(nl);
  EXPECT_EQ(faults.size(), 4u);  // open+short for R1, C1
  CatastrophicFaultOptions opt;
  opt.shorts = false;
  EXPECT_EQ(MakeCatastrophicFaults(nl, opt).size(), 2u);
}

TEST(FaultList, MergeDeduplicates) {
  auto nl = RcCircuit();
  auto a = MakeDeviationFaults(nl);
  auto merged = MergeFaultLists({a, a, MakeCatastrophicFaults(nl)});
  EXPECT_EQ(merged.size(), 6u);
}

TEST(Injector, MultipleFaults) {
  auto nl = RcCircuit();
  {
    ScopedFaultInjection r1(nl, Fault("R1", FaultKind::kDeviationUp, 0.1));
    ScopedFaultInjection c1(nl, Fault("C1", FaultKind::kDeviationDown, 0.1));
    EXPECT_DOUBLE_EQ(nl.GetElement("R1").Value(), 1.1e3);
    EXPECT_NEAR(nl.GetElement("C1").Value(), 0.9e-6, 1e-15);
  }
  EXPECT_DOUBLE_EQ(nl.GetElement("R1").Value(), 1e3);
  EXPECT_DOUBLE_EQ(nl.GetElement("C1").Value(), 1e-6);
}

TEST(Injector, ScopedInjectionRestoresOnDestruction) {
  auto nl = RcCircuit();
  {
    ScopedFaultInjection inj(nl, Fault("R1", FaultKind::kDeviationUp, 0.2));
    EXPECT_DOUBLE_EQ(nl.GetElement("R1").Value(), 1.2e3);
  }
  EXPECT_DOUBLE_EQ(nl.GetElement("R1").Value(), 1e3);
}

TEST(Injector, ScopedInjectionRevertIsIdempotent) {
  auto nl = RcCircuit();
  ScopedFaultInjection inj(nl, Fault("R1", FaultKind::kDeviationUp, 0.2));
  inj.Revert();
  inj.Revert();
  EXPECT_DOUBLE_EQ(nl.GetElement("R1").Value(), 1e3);
}

TEST(Simulator, NominalAndFaultyResponsesDiffer) {
  auto nl = RcCircuit();
  FaultSimulator sim(nl, spice::SweepSpec::Decade(10, 1e4, 10),
                     spice::Probe{nl.FindNode("out"), spice::kGround, "v"});
  auto nominal = sim.SimulateNominal();
  auto faulty = sim.SimulateFault(Fault("R1", FaultKind::kDeviationUp, 0.5));
  EXPECT_EQ(nominal.PointCount(), faulty.PointCount());
  double max_dev = 0.0;
  for (std::size_t i = 0; i < nominal.PointCount(); ++i) {
    max_dev = std::max(max_dev,
                       std::abs(faulty.values[i] - nominal.values[i]));
  }
  EXPECT_GT(max_dev, 0.01);
}

TEST(Simulator, WorkingCopyRestoredBetweenFaults) {
  auto nl = RcCircuit();
  FaultSimulator sim(nl, spice::SweepSpec::List({159.0}),
                     spice::Probe{nl.FindNode("out"), spice::kGround, "v"});
  auto n1 = sim.SimulateNominal();
  sim.SimulateFault(Fault("R1", FaultKind::kDeviationUp, 0.5));
  auto n2 = sim.SimulateNominal();
  EXPECT_NEAR(std::abs(n1.values[0] - n2.values[0]), 0.0, 1e-15);
}

}  // namespace
}  // namespace mcdft::faults
