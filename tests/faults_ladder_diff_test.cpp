// Differential test for the retry ladder: on healthy circuits the
// resilience machinery of the campaign path (FaultSimulator::SimulateRange)
// must be a strict no-op — zero retries, zero quarantined points, and
// responses that agree with the fail-fast fault-major sweeps
// (SimulateNominal / SimulateFault) to solver roundoff.  Sweeps the whole
// circuit zoo under a grid of component-value scalings (~100 circuit
// variants), so the claim is not an artifact of one lucky operating point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "circuits/zoo.hpp"
#include "faults/fault_list.hpp"
#include "faults/simulator.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::faults {
namespace {

/// Value scalings applied to every resistor and capacitor of a variant.
/// Spread over four decades: healthy but distinct operating points.
constexpr double kScales[] = {0.01, 0.05, 0.2, 0.5, 0.8, 1.0,
                              1.25, 2.0,  5.0, 10.0, 25.0, 100.0};

core::AnalogBlock ScaledBlock(const circuits::ZooEntry& entry, double scale) {
  core::AnalogBlock block = entry.build();
  for (const auto& e : block.netlist.Elements()) {
    const spice::ElementKind kind = e->Kind();
    if (kind == spice::ElementKind::kResistor ||
        kind == spice::ElementKind::kCapacitor) {
      spice::Element& el = block.netlist.GetElement(e->Name());
      el.SetValue(el.Value() * scale);
    }
  }
  return block;
}

TEST(LadderDifferential, LadderIsANoOpOnHealthyCircuits) {
  // The no-op claim is about undisturbed operation: opt out of any
  // armed-suite MCDFT_FAULTPOINTS spec.
  util::faultpoint::DisarmAll();
  const util::metrics::ScopedEnable metrics_on;
  util::metrics::Counter& retries =
      util::metrics::GetCounter("faults.sim.retries");
  util::metrics::Counter& quarantined =
      util::metrics::GetCounter("faults.sim.quarantined");

  const auto sweep = spice::SweepSpec::Decade(50.0, 5e4, 3);
  std::size_t variants = 0;

  for (const circuits::ZooEntry& entry : circuits::Zoo()) {
    for (const double scale : kScales) {
      const std::string what =
          entry.name + " x" + std::to_string(scale);
      const core::AnalogBlock block = ScaledBlock(entry, scale);
      const std::vector<Fault> fault_list =
          MakeDeviationFaults(block.netlist);
      ASSERT_FALSE(fault_list.empty()) << what;

      spice::Probe probe;
      spice::Netlist work = block.netlist.Clone();
      probe.plus = work.FindNode(block.output_node);

      const std::uint64_t retries_before = retries.Value();
      const std::uint64_t quarantined_before = quarantined.Value();

      const FaultSimulator simulator(work, sweep, probe);
      const std::vector<spice::FrequencyResponse> a =
          simulator.SimulateRange(fault_list, 0, fault_list.size(), 2);
      std::vector<spice::FrequencyResponse> b{simulator.SimulateNominal()};
      for (const Fault& f : fault_list) b.push_back(simulator.SimulateFault(f));

      // The ladder never engaged and nothing was quarantined.
      EXPECT_EQ(retries.Value(), retries_before) << what;
      EXPECT_EQ(quarantined.Value(), quarantined_before) << what;

      // The same responses, point by point, to solver roundoff (the SMW
      // update and a fresh factorization round differently).
      ASSERT_EQ(a.size(), b.size()) << what;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label) << what;
        EXPECT_EQ(a[i].QuarantinedCount(), 0u) << what << " row " << i;
        ASSERT_EQ(a[i].values.size(), b[i].values.size()) << what;
        for (std::size_t p = 0; p < a[i].values.size(); ++p) {
          EXPECT_LT(std::abs(a[i].values[p] - b[i].values[p]),
                    1e-9 * std::max(1.0, std::abs(b[i].values[p])))
              << what << " row " << i << " point " << p;
        }
      }
      ++variants;
    }
  }
  // The claim covers a ~100-variant population, not a handful.
  EXPECT_GE(variants, 90u);
}

}  // namespace
}  // namespace mcdft::faults
