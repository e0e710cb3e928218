#include "core/run_report.hpp"

#include <cstdlib>
#include <fstream>

#include "util/parallel.hpp"

namespace mcdft::core {

namespace json = util::json;
namespace metrics = util::metrics;
namespace trace = util::trace;

namespace {

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Counters under `prefix.` folded into one JSON object (prefix stripped).
json::Value CounterGroup(const metrics::Snapshot& delta,
                         std::string_view prefix) {
  json::Value group = json::Value::Object();
  for (const auto& c : delta.counters) {
    if (c.name.size() > prefix.size() + 1 &&
        c.name.compare(0, prefix.size(), prefix) == 0 &&
        c.name[prefix.size()] == '.') {
      group.Set(c.name.substr(prefix.size() + 1), json::Value::Number(c.value));
    }
  }
  return group;
}

json::Value PhaseTable(const std::vector<trace::SpanStats>& spans) {
  json::Value phases = json::Value::Array();
  for (const auto& s : spans) {
    json::Value row = json::Value::Object();
    row.Set("name", json::Value::Str(s.name));
    row.Set("count", json::Value::Number(s.count));
    row.Set("wall_s", json::Value::Number(Seconds(s.total_wall_ns)));
    row.Set("max_wall_s", json::Value::Number(Seconds(s.max_wall_ns)));
    row.Set("cpu_s", json::Value::Number(Seconds(s.total_cpu_ns)));
    phases.PushBack(std::move(row));
  }
  return phases;
}

json::Value CampaignSection(const CampaignResult& campaign) {
  json::Value section = json::Value::Object();
  section.Set("config_count", json::Value::Number(
                                  static_cast<std::uint64_t>(campaign.ConfigCount())));
  section.Set("fault_count", json::Value::Number(
                                 static_cast<std::uint64_t>(campaign.FaultCount())));
  section.Set("coverage", json::Value::Number(campaign.Coverage()));
  section.Set("average_omega_det",
              json::Value::Number(campaign.AverageOmegaDet()));

  // Resilience accounting: (fault, omega) cells the retry ladder had to
  // quarantine, campaign-wide and per configuration (with the offending
  // faults named).  A healthy campaign reports quarantined = 0 and no
  // per-row quarantine lists.
  std::size_t total_cells = 0;
  for (const auto& cr : campaign.PerConfig()) {
    for (const auto& f : cr.faults) total_cells += f.region.mask.size();
  }
  json::Value cells = json::Value::Object();
  cells.Set("total", json::Value::Number(
                         static_cast<std::uint64_t>(total_cells)));
  cells.Set("quarantined",
            json::Value::Number(static_cast<std::uint64_t>(
                campaign.QuarantinedCellCount())));
  section.Set("cells", std::move(cells));

  json::Value configs = json::Value::Array();
  for (const auto& cr : campaign.PerConfig()) {
    std::size_t detected = 0;
    for (const auto& f : cr.faults) {
      if (f.detectable) ++detected;
    }
    json::Value row = json::Value::Object();
    row.Set("config", json::Value::Str(cr.config.Name()));
    row.Set("bits", json::Value::Str(cr.config.BitString()));
    row.Set("detected_faults",
            json::Value::Number(static_cast<std::uint64_t>(detected)));
    row.Set("fault_coverage",
            json::Value::Number(cr.faults.empty()
                                    ? 0.0
                                    : static_cast<double>(detected) /
                                          static_cast<double>(cr.faults.size())));
    row.Set("average_omega_det", json::Value::Number(cr.AverageOmegaDet()));
    const std::size_t quarantined = cr.QuarantinedCellCount();
    row.Set("quarantined_cells",
            json::Value::Number(static_cast<std::uint64_t>(quarantined)));
    if (quarantined > 0) {
      json::Value list = json::Value::Array();
      for (const auto& f : cr.faults) {
        if (f.quarantined_points == 0) continue;
        json::Value q = json::Value::Object();
        q.Set("device", json::Value::Str(f.fault.Device()));
        q.Set("kind", json::Value::Str(
                          std::string(faults::FaultKindName(f.fault.Kind()))));
        q.Set("magnitude", json::Value::Number(f.fault.Magnitude()));
        q.Set("quarantined_points",
              json::Value::Number(
                  static_cast<std::uint64_t>(f.quarantined_points)));
        list.PushBack(std::move(q));
      }
      row.Set("quarantine", std::move(list));
    }
    configs.PushBack(std::move(row));
  }
  section.Set("per_config", std::move(configs));
  return section;
}

json::Value EnvironmentSection() {
  json::Value env = json::Value::Object();
  env.Set("hardware_threads",
          json::Value::Number(
              static_cast<std::uint64_t>(util::HardwareThreadCount())));
  const char* threads_env = std::getenv("MCDFT_THREADS");
  env.Set("mcdft_threads_env", threads_env ? json::Value::Str(threads_env)
                                           : json::Value::Null());
  const char* metrics_env = std::getenv("MCDFT_METRICS");
  env.Set("mcdft_metrics_env", metrics_env ? json::Value::Str(metrics_env)
                                           : json::Value::Null());
  const char* cache_env = std::getenv("MCDFT_CACHE_MB");
  env.Set("mcdft_cache_mb_env", cache_env ? json::Value::Str(cache_env)
                                          : json::Value::Null());
#if defined(__clang__)
  env.Set("compiler", json::Value::Str("clang " __clang_version__));
#elif defined(__GNUC__)
  env.Set("compiler", json::Value::Str("gcc " __VERSION__));
#else
  env.Set("compiler", json::Value::Str("unknown"));
#endif
#ifndef NDEBUG
  env.Set("build", json::Value::Str("debug"));
#else
  env.Set("build", json::Value::Str("release"));
#endif
  return env;
}

}  // namespace

CampaignRunRecorder::CampaignRunRecorder()
    : metrics_before_(metrics::Capture()),
      trace_before_(trace::Capture()),
      wall_start_ns_(trace::internal::NowWallNs()),
      cpu_start_ns_(trace::internal::NowCpuNs()) {
  enable_.emplace(true);
}

CampaignRunRecorder::~CampaignRunRecorder() = default;

json::Value CampaignRunRecorder::Finish(const CampaignResult& campaign,
                                        const RunReportOptions& options) {
  const std::uint64_t wall_ns = trace::internal::NowWallNs() - wall_start_ns_;
  const std::uint64_t cpu_ns = trace::internal::NowCpuNs() - cpu_start_ns_;
  const metrics::Snapshot delta =
      metrics::Delta(metrics_before_, metrics::Capture());
  const std::vector<trace::SpanStats> spans =
      trace::Delta(trace_before_, trace::Capture());
  enable_.reset();  // restore the pre-recorder enable state

  json::Value report = json::Value::Object();
  // Schema /10 adds the `envelope` counter group.  (/9 dropped the
  // always-zero `solver.mna` dense/uncached counters and the `solver.dc`
  // group; /8 the batched fault-solve section and the engine-gate echoes;
  // /7 added the request-lifecycle counters.)
  report.Set("schema", json::Value::Str("mcdft.run_report/10"));
  report.Set("tool", json::Value::Str(options.tool));
  if (!options.circuit.empty()) {
    report.Set("circuit", json::Value::Str(options.circuit));
  }

  json::Value timing = json::Value::Object();
  timing.Set("wall_s", json::Value::Number(Seconds(wall_ns)));
  timing.Set("cpu_s", json::Value::Number(Seconds(cpu_ns)));
  report.Set("timing", std::move(timing));
  report.Set("phases", PhaseTable(spans));

  json::Value threads = json::Value::Object();
  threads.Set("requested", json::Value::Number(
                               static_cast<std::uint64_t>(options.threads)));
  threads.Set("resolved",
              json::Value::Number(static_cast<std::uint64_t>(
                  util::ResolveThreadCount(options.threads))));
  report.Set("threads", std::move(threads));

  json::Value solver = json::Value::Object();
  solver.Set("sparse_lu", CounterGroup(delta, "linalg.sparse_lu"));
  solver.Set("smw", CounterGroup(delta, "linalg.smw"));
  solver.Set("mna", CounterGroup(delta, "spice.mna"));
  const metrics::HistogramSample fill =
      delta.HistogramOf("linalg.sparse_lu.fill_nnz");
  if (fill.count > 0) {
    json::Value h = json::Value::Object();
    h.Set("count", json::Value::Number(fill.count));
    h.Set("mean", json::Value::Number(static_cast<double>(fill.sum) /
                                      static_cast<double>(fill.count)));
    h.Set("min", json::Value::Number(fill.min));
    h.Set("max", json::Value::Number(fill.max));
    solver.Set("fill_nnz", std::move(h));
  }
  report.Set("solver", std::move(solver));

  report.Set("parallel", CounterGroup(delta, "util.parallel"));
  // Schema /10: the Monte-Carlo envelope — sample sweeps run, configurations
  // served by the shared pass, its tree pivots and its guard fallbacks.
  report.Set("envelope", CounterGroup(delta, "testability.envelope"));
  report.Set("faults", CounterGroup(delta, "faults.sim"));
  // Schema /6: the adjoint sensitivity screen (cells skipped as clearly
  // detected/undetected, cells sent to the exact path as borderline, the
  // adjoint transpose-solves behind it, and guard-band rejections).
  // All-zero when the screen is off or the workload is transient.
  report.Set("screen", CounterGroup(delta, "faults.screen"));
  // Schema /5: the transient workload class (trajectories, steps,
  // quarantined time points).  All-zero for AC campaigns.
  report.Set("transient", CounterGroup(delta, "transient"));
  report.Set("shard", CounterGroup(delta, "core.shard"));
  report.Set("checkpoint", CounterGroup(delta, "core.checkpoint"));
  // Schema /4: the daemon's result-cache and request-serving counters plus
  // the shared nominal-factor cache.  All-zero objects outside a daemon.
  json::Value cache = CounterGroup(delta, "core.cache");
  cache.Set("factor", CounterGroup(delta, "spice.factor_cache"));
  report.Set("cache", std::move(cache));
  report.Set("server", CounterGroup(delta, "server"));

  // Full counter dump for ad-hoc analysis (the grouped views above are the
  // stable, documented surface).
  json::Value raw = json::Value::Object();
  for (const auto& c : delta.counters) {
    raw.Set(c.name, json::Value::Number(c.value));
  }
  report.Set("counters", std::move(raw));

  report.Set("campaign", CampaignSection(campaign));
  report.Set("environment", EnvironmentSection());
  return report;
}

void WriteRunReport(const json::Value& report, const std::string& path) {
  json::WriteFileAtomic(report, path);
}

}  // namespace mcdft::core
