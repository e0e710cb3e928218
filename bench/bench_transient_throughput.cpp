// Transient campaign throughput bench: wall time and trapezoidal solves/sec
// for catastrophic-fault (open/short) step-response campaigns on the biquad
// and the 6-opamp cascade, across thread counts.  Transient trajectories
// always re-march exactly, so the "smw" rows run the same path as the
// "exact" row; the low-rank setting stays in each row only because
// bench_gate matches rows against the committed baseline by it.
//
// The rows join the AC rows of bench_campaign_throughput in one
// BENCH_campaign.json: an existing file is loaded, its "analysis":
// "transient" runs replaced, everything else (the AC row family) kept
// byte-for-byte as parsed.  bench_gate keys runs by (circuit, analysis,
// threads, cache, lowrank, batched), so both families gate independently
// from the same baseline.  Run bench_campaign_throughput first; this bench
// falls back to a fresh skeleton when BENCH_campaign.json is missing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "circuits/zoo.hpp"
#include "common.hpp"
#include "faults/fault_list.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace mcdft;
namespace json = util::json;

struct RunSpec {
  std::string label;
  std::size_t threads;
  bool lowrank;  // row key only: transient campaigns ignore the gate
};

struct RunResult {
  RunSpec spec;
  double wall_s = 0.0;
  double solves_per_s = 0.0;
  double configs_per_s = 0.0;
  double speedup = 1.0;  // vs the serial exact baseline of the circuit
  std::uint64_t retries = 0;
  std::uint64_t quarantined = 0;  // quarantined (fault, time) cells
};

struct CircuitReport {
  std::string name;
  std::size_t configs = 0;
  std::size_t faults = 0;
  std::size_t steps = 0;
  std::vector<RunResult> runs;
};

CircuitReport BenchCircuit(const char* name,
                           const std::vector<RunSpec>& specs) {
  const auto& entry = circuits::FindInZoo(name);
  auto block = entry.build();
  core::DftCircuit circuit = core::DftCircuit::Transform(block);
  auto fault_list = faults::MakeCatastrophicFaults(circuit.Circuit());

  auto space = circuit.Space();
  const std::vector<core::ConfigVector> configs =
      space.OpampCount() > 5 ? space.UpToKFollowers(2)
                             : space.AllNonTransparent();

  CircuitReport report;
  report.name = name;
  report.configs = configs.size();
  report.faults = fault_list.size();

  for (const RunSpec& spec : specs) {
    auto options = core::MakePaperCampaignOptions();
    options.analysis = core::CampaignAnalysis::kTransient;
    options.threads = spec.threads;
    options.mna.lowrank_fault_updates = spec.lowrank;
    report.steps = options.transient_steps;

    const util::metrics::ScopedEnable metrics_on;
    util::metrics::Counter& retry_counter =
        util::metrics::GetCounter("faults.sim.retries");
    const std::uint64_t retries_before = retry_counter.Value();

    const auto t0 = Clock::now();
    auto campaign = core::RunCampaign(circuit, fault_list, configs, options);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // One trajectory per (config, fault) plus a nominal per config; each
    // trajectory is one trapezoidal solve per time step.
    const double trajectories = static_cast<double>(report.configs) *
                                static_cast<double>(report.faults + 1);
    const double solves = trajectories * static_cast<double>(report.steps);

    RunResult r;
    r.spec = spec;
    r.wall_s = wall_s;
    r.solves_per_s = solves / wall_s;
    r.configs_per_s = static_cast<double>(report.configs) / wall_s;
    r.speedup = report.runs.empty()
                    ? 1.0
                    : report.runs.front().wall_s / wall_s;
    r.retries = retry_counter.Value() - retries_before;
    r.quarantined = campaign.QuarantinedCellCount();
    report.runs.push_back(r);
  }
  return report;
}

json::Value RunToJson(const RunResult& r) {
  json::Value run = json::Value::Object();
  run.Set("label", json::Value::Str("transient " + r.spec.label));
  run.Set("analysis", json::Value::Str("transient"));
  run.Set("threads", json::Value::Number(
                         static_cast<std::uint64_t>(r.spec.threads)));
  // The factorization cache and batched SMW toggles do not apply to the
  // trajectory path; fixed false keeps the gate key well-defined.
  run.Set("cache_factorization", json::Value::Bool(false));
  run.Set("lowrank", json::Value::Bool(r.spec.lowrank));
  run.Set("batched", json::Value::Bool(false));
  run.Set("wall_s", json::Value::Number(r.wall_s));
  run.Set("solves_per_s", json::Value::Number(r.solves_per_s));
  run.Set("configs_per_s", json::Value::Number(r.configs_per_s));
  run.Set("speedup_vs_baseline", json::Value::Number(r.speedup));
  run.Set("retries", json::Value::Number(r.retries));
  run.Set("quarantined_cells", json::Value::Number(r.quarantined));
  return run;
}

/// Merge the transient rows into (a copy of) the existing baseline
/// document: AC runs and circuit metadata pass through untouched, previous
/// transient runs are replaced, circuits new to the file are appended.
json::Value MergeIntoBaseline(const json::Value& existing,
                              const std::vector<CircuitReport>& reports) {
  json::Value doc = json::Value::Object();
  doc.Set("bench", json::Value::Str("campaign_throughput"));
  doc.Set("hardware_threads",
          json::Value::Number(
              static_cast<std::uint64_t>(util::HardwareThreadCount())));
  json::Value circuits = json::Value::Array();

  auto transient_runs = [&](const std::string& name) {
    json::Value runs = json::Value::Array();
    for (const auto& rep : reports) {
      if (rep.name != name) continue;
      for (const auto& r : rep.runs) runs.PushBack(RunToJson(r));
    }
    return runs;
  };

  std::vector<std::string> merged;
  if (const json::Value* old_circuits = existing.Find("circuits")) {
    for (const json::Value& circuit : old_circuits->Items()) {
      const std::string& name = circuit.Get("name").AsString();
      json::Value fresh = json::Value::Object();
      for (const auto& [key, value] : circuit.Members()) {
        if (key != "runs") fresh.Set(key, value);
      }
      json::Value runs = json::Value::Array();
      for (const json::Value& run : circuit.Get("runs").Items()) {
        const json::Value* analysis = run.Find("analysis");
        if (analysis != nullptr && analysis->AsString() == "transient") {
          continue;  // replaced below
        }
        runs.PushBack(run);
      }
      const json::Value mine = transient_runs(name);
      for (const json::Value& run : mine.Items()) {
        runs.PushBack(run);
      }
      fresh.Set("runs", std::move(runs));
      circuits.PushBack(std::move(fresh));
      merged.push_back(name);
    }
  }
  for (const auto& rep : reports) {
    if (std::find(merged.begin(), merged.end(), rep.name) != merged.end()) {
      continue;
    }
    json::Value fresh = json::Value::Object();
    fresh.Set("name", json::Value::Str(rep.name));
    fresh.Set("configs", json::Value::Number(
                             static_cast<std::uint64_t>(rep.configs)));
    fresh.Set("faults", json::Value::Number(
                            static_cast<std::uint64_t>(rep.faults)));
    fresh.Set("transient_steps", json::Value::Number(
                                     static_cast<std::uint64_t>(rep.steps)));
    fresh.Set("runs", transient_runs(rep.name));
    circuits.PushBack(std::move(fresh));
  }
  doc.Set("circuits", std::move(circuits));
  return doc;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Transient campaign throughput: catastrophic-fault trajectories",
      "performance engineering (no paper artifact)");

  const std::size_t hw = util::HardwareThreadCount();
  std::vector<RunSpec> specs = {
      {"serial, exact", 1, false},
      {"serial, smw", 1, true},
      {"2 threads, smw", 2, true},
      {"8 threads, smw", 8, true},
  };
  if (hw != 1 && hw != 2 && hw != 8) {
    specs.push_back({std::to_string(hw) + " threads, smw", hw, true});
  }

  std::vector<CircuitReport> reports;
  reports.push_back(BenchCircuit("biquad", specs));
  reports.push_back(BenchCircuit("cascade6", specs));

  util::Table t;
  t.SetHeader({"circuit", "run", "wall [s]", "solves/s", "configs/s",
               "speedup", "retries", "quar"});
  for (const auto& rep : reports) {
    for (const auto& r : rep.runs) {
      t.AddRow({rep.name, r.spec.label, util::FormatTrimmed(r.wall_s, 3),
                util::FormatTrimmed(r.solves_per_s, 0),
                util::FormatTrimmed(r.configs_per_s, 1),
                util::FormatTrimmed(r.speedup, 2) + "x",
                std::to_string(r.retries), std::to_string(r.quarantined)});
    }
  }
  std::printf("%s\n", t.Render().c_str());
  std::printf("hardware threads: %zu\n", hw);

  json::Value existing = json::Value::Object();
  try {
    existing = json::ParseFile("BENCH_campaign.json");
  } catch (const util::Error&) {
    std::fprintf(stderr,
                 "note: no readable BENCH_campaign.json here; writing a "
                 "transient-only report (run bench_campaign_throughput "
                 "first for the combined baseline)\n");
  }
  json::WriteFileAtomic(MergeIntoBaseline(existing, reports),
                        "BENCH_campaign.json");
  std::printf("merged transient rows into BENCH_campaign.json\n");
  return 0;
}
