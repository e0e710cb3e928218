// Every AC fault-simulation value the CLI's campaigns compute, pinned per
// campaign by FNV-1a 64 digest: the raw bits of each SimulateRange value
// (nominal and faulty, real and imaginary parts) and each quarantine mask,
// plus the campaign's fault-solve counters.  How a unit obtains its stamp
// deltas or solves a cell must not move a bit or a counted solve.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>

#include "circuits/zoo.hpp"
#include "core/campaign.hpp"
#include "core/diagnosis.hpp"
#include "core/server/request.hpp"
#include "faults/fault_list.hpp"
#include "faults/simulator.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace mcdft::core {
namespace {

namespace fp = util::faultpoint;
namespace metrics = util::metrics;

struct SweepCampaign {
  DftCircuit circuit;
  std::vector<faults::Fault> fault_list;
  std::vector<ConfigVector> configs;
  CampaignOptions options;
};

SweepCampaign FromRequest(const server::CampaignRequest& request) {
  server::CampaignJob job = server::BuildCampaignJob(request);
  return SweepCampaign{std::move(job.circuit), std::move(job.fault_list),
                       std::move(job.configs), std::move(job.options)};
}

/// The campaign `mcdft opamp-test` runs (RunOpampTransparentTest at its
/// default options): the opamp faults over the transparent configuration
/// and every single-follower configuration, on a 10 Hz - 100 kHz grid.
SweepCampaign OpampTestCampaign(const std::string& name) {
  DftCircuit circuit = DftCircuit::Transform(circuits::FindInZoo(name).build());
  std::vector<faults::Fault> fault_list =
      faults::MakeOpampFaults(circuit.Circuit());
  const std::size_t n = circuit.ConfigurableOpamps().size();
  std::vector<ConfigVector> configs{
      ConfigVector::FromBits(std::string(n, '1'))};
  for (std::size_t k = 0; k < n; ++k) {
    ConfigVector cv(n);
    cv.SetSelection(k, true);
    configs.push_back(cv);
  }
  const OpampTestOptions defaults;
  CampaignOptions options;
  options.criteria = defaults.criteria;
  options.anchor_hz = std::sqrt(defaults.f_lo_hz * defaults.f_hi_hz);
  options.decades_below = std::log10(*options.anchor_hz / defaults.f_lo_hz);
  options.decades_above = std::log10(defaults.f_hi_hz / *options.anchor_hz);
  options.points_per_decade = defaults.points_per_decade;
  return SweepCampaign{std::move(circuit), std::move(fault_list),
                       std::move(configs), options};
}

std::uint64_t FoldDouble(std::uint64_t h, double v) {
  return fp::DigestCombine(h, std::bit_cast<std::uint64_t>(v));
}

std::string Hex(std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

bool PinnedCounter(std::string_view name) {
  if (name == "faults.sim.shared_deltas" || name == "faults.sim.unit_deltas") {
    return false;  // where a delta was computed, not what was solved
  }
  for (const std::string_view prefix :
       {"faults.sim.", "faults.screen.", "linalg.smw.", "linalg.sparse_lu."}) {
    if (name.starts_with(prefix)) return true;
  }
  return false;
}

struct SweepPin {
  std::string values;
  std::string counters;
  std::string counter_text;  // for the failure message
};

/// RunCampaign's AC units rebuilt to keep their responses: the shared
/// envelope pass and delta table, then every configuration's
/// SimulateRange at threads = 1 (units per worker), each on a worker's
/// clone.  The value digest folds the per-configuration digests in
/// configuration order; the counters are the units' own.
SweepPin PinCampaign(const SweepCampaign& c) {
  DftCircuit work = c.circuit.Clone();
  const CampaignFrame frame = BuildCampaignFrame(work, c.fault_list, c.options);
  const std::vector<std::optional<testability::DetectionCriteria>> criteria =
      PrepareCampaignCriteria(work, frame, c.configs, c.options);
  const std::optional<faults::FaultDeltaTable> deltas =
      BuildSharedFaultDeltas(work, frame, c.fault_list, c.options);
  const std::size_t points = frame.sweep.Frequencies().size();

  std::vector<std::uint64_t> digests(c.configs.size());
  const metrics::Snapshot before = metrics::Capture();
  util::ParallelForRange(
      c.options.threads, c.configs.size(),
      [&](std::size_t begin, std::size_t end) {
        DftCircuit local = work.Clone();
        for (std::size_t i = begin; i < end; ++i) {
          const spice::Netlist netlist = [&] {
            ScopedConfiguration configured(local, c.configs[i]);
            return local.Circuit().Clone();
          }();
          const testability::DetectionCriteria unit_criteria =
              criteria[i] ? *criteria[i]
                          : PrepareCampaignConfig(local, frame, c.configs[i],
                                                  c.options)
                                .criteria;
          std::optional<faults::SensitivityScreenSpec> screen;
          if (spice::SensitivityScreenEnabled(c.options.mna)) {
            screen = MakeSensitivityScreenSpec(unit_criteria, points,
                                               c.options);
          }
          const faults::FaultSimulator simulator(netlist, frame.sweep,
                                                 frame.probe, c.options.mna);
          std::uint64_t h = fp::DigestBytes(nullptr, 0);
          for (const spice::FrequencyResponse& r : simulator.SimulateRange(
                   c.fault_list, 0, c.fault_list.size(), 1,
                   screen ? &*screen : nullptr,
                   deltas ? &*deltas : nullptr)) {
            for (std::size_t t = 0; t < r.PointCount(); ++t) {
              h = FoldDouble(h, r.values[t].real());
              h = FoldDouble(h, r.values[t].imag());
              h = fp::DigestCombine(h, r.QuarantinedAt(t));
            }
          }
          digests[i] = h;
        }
      });
  const metrics::Snapshot delta = metrics::Delta(before, metrics::Capture());

  std::uint64_t values = fp::DigestBytes(nullptr, 0);
  for (const std::uint64_t h : digests) values = fp::DigestCombine(values, h);
  std::uint64_t counters = fp::DigestBytes(nullptr, 0);
  std::string text;
  for (const metrics::CounterSample& s : delta.counters) {
    if (s.value == 0 || !PinnedCounter(s.name)) continue;
    counters = fp::DigestCombine(
        counters, fp::DigestBytes(s.name.data(), s.name.size()));
    counters = fp::DigestCombine(counters, s.value);
    text += " " + s.name + "=" + std::to_string(s.value);
  }
  return SweepPin{Hex(values), Hex(counters), text};
}

// The CLI defaults (`mcdft analyze`, `--faults deviation` and `both`) on
// every zoo circuit, full-space cascade6 (`--max-followers 9`), extra
// faults on a source and an opamp, and the `mcdft opamp-test` campaign,
// whose faults sit on configurable opamps.
// The campaigns must be undisturbed, so the test opts out of any armed
// MCDFT_FAULTPOINTS spec; every value and counter is a pure function of
// its unit, so the pins hold at any MCDFT_THREADS.
TEST(CampaignSweepPins, ZooResponsesArePinned) {
  fp::DisarmAll();
  const metrics::ScopedEnable metrics_on;
  // key -> {values, counters}
  const std::map<std::string, std::pair<std::string, std::string>> pins = {
      {"biquad/deviation", {"19c6358350de9728", "f4121190f3eea35d"}},
      {"khn/deviation", {"bafbb0d4b6efe2ac", "22435273ada297c1"}},
      {"ackerberg/deviation", {"2f711cdd974367c7", "07bf3e10f7d39461"}},
      {"sallenkey/deviation", {"c9837b3f87569f6c", "7b1aba30752c1393"}},
      {"inamp/deviation", {"cc7ed102ab981996", "9d286a88e051d0a2"}},
      {"notch/deviation", {"11ca79b87c6bc477", "a543514ca2df545b"}},
      {"leapfrog/deviation", {"6c01fca8bbe30ddf", "b7c7d65ebde891a3"}},
      {"cascade6/deviation", {"240d8429f4f5d127", "b84db300815deff2"}},
      {"biquad/both", {"45f8becdbdd39af9", "0e235a1c9d9d5b4d"}},
      {"khn/both", {"dcae2444cf7bf451", "8a9535e8957f15f7"}},
      {"ackerberg/both", {"7f08eae14da0a4b0", "559afe60b7b40f81"}},
      {"sallenkey/both", {"7fd62bf3395be9a7", "71b3d7dc3c6355f7"}},
      {"inamp/both", {"105f57880cc9bcce", "340fd826c9b9f912"}},
      {"notch/both", {"cf51ca871c9f410c", "1b6cceab21946579"}},
      {"leapfrog/both", {"f9a9940a21cbe9d2", "dc063ef4f0b550d3"}},
      {"cascade6/both", {"794e5c25614ebe2c", "93cd2c981639e3a6"}},
      {"cascade6/full-space", {"87bbda945983e142", "b2ca5eaf778078d1"}},
      {"biquad/extra-faults", {"fa4c509a4410a941", "92825a94d5e45243"}},
      {"biquad/opamp-test", {"22863fb424366f8a", "29933d0911bc3577"}},
      {"khn/opamp-test", {"faa44237a5963ec3", "a49c295a90521183"}},
      {"ackerberg/opamp-test", {"5e35559b6c418168", "29933d0911bc3577"}},
      {"sallenkey/opamp-test", {"6ddd420c8477350d", "da40e2460d62431b"}},
      {"inamp/opamp-test", {"562bf2ccb7cfbadb", "a49c295a90521183"}},
      {"notch/opamp-test", {"89cb1e12232744d7", "24a5d944662f8357"}},
      {"leapfrog/opamp-test", {"73c97ede3c554937", "8d5fa3ed8b2b3408"}},
      {"cascade6/opamp-test", {"2b9cb5a1be85beb6", "4ed7c0b1fa3a668d"}},
  };
  std::vector<std::pair<std::string, SweepCampaign>> campaigns;
  for (const std::string universe : {"deviation", "both"}) {
    for (const auto& entry : circuits::Zoo()) {
      server::CampaignRequest request;
      request.circuit = entry.name;
      request.fault_universe = universe;
      campaigns.emplace_back(std::string(entry.name) + "/" + universe,
                             FromRequest(request));
    }
  }
  {
    server::CampaignRequest request;
    request.circuit = "cascade6";
    request.max_followers = 9;
    campaigns.emplace_back("cascade6/full-space", FromRequest(request));
  }
  {
    // `mcdft submit --tol 0 --extra-fault VIN:up:0.1,OP1:up:0.1`: a source
    // fault (an RHS delta, so never an SMW update) and a fault on a
    // configurable opamp that cannot inject (every cell quarantines; with
    // an envelope its tolerance site would stop the campaign).
    server::CampaignRequest request;
    request.tol = 0.0;
    request.extra_faults = {{"VIN", "up", 0.1}, {"OP1", "up", 0.1}};
    campaigns.emplace_back("biquad/extra-faults", FromRequest(request));
  }
  for (const auto& entry : circuits::Zoo()) {
    campaigns.emplace_back(std::string(entry.name) + "/opamp-test",
                           OpampTestCampaign(entry.name));
  }
  for (const auto& [key, campaign] : campaigns) {
    const SweepPin pin = PinCampaign(campaign);
    if (pins.count(key) != 1) {
      ADD_FAILURE() << "{\"" << key << "\", {\"" << pin.values << "\", \""
                    << pin.counters << "\"}},";
      continue;
    }
    EXPECT_EQ(pin.values, pins.at(key).first) << key;
    EXPECT_EQ(pin.counters, pins.at(key).second) << key << ":"
                                                 << pin.counter_text;
  }
}

}  // namespace
}  // namespace mcdft::core
