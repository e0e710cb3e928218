// bench_gate — compare a fresh bench_campaign_throughput report against the
// committed baseline and fail on a throughput regression.
//
//   bench_gate --baseline BENCH_campaign.json --fresh fresh.json
//              [--min-ratio X] [--report-only] [--summary FILE]
//
// Runs are matched by (circuit, analysis, threads, cache_factorization,
// lowrank, batched, screen) — labels embed the hardware thread count and
// are not stable across machines.  A report predating the low-rank solve
// path carries no "lowrank" field, one predating batched SMW solves no
// "batched" field, one predating the sensitivity screen no "screen" field,
// and one predating the transient workload class no "analysis"
// field; absent flags read false (the narrower solve path), absent analysis
// reads "ac".  A
// run regresses when fresh solves_per_s falls below min-ratio times the
// baseline value; the default 0.6 tolerates the noise of shared CI boxes
// while still catching a real 2x slowdown.  Baseline runs with no fresh
// counterpart are reported but do not fail the gate (thread counts vary
// with the machine).
//
// --report-only suppresses only *ratio* failures (noisy shared runners);
// a malformed or missing report is always an error: a gate that cannot
// read its baseline must say so loudly, not report success.
//
// --summary FILE additionally writes the ratio table as GitHub-flavored
// markdown — CI appends it to $GITHUB_STEP_SUMMARY.
//
// Exit codes: 0 = pass, 1 = regression detected, 2 = bad input/usage
// (including malformed/missing baseline or fresh report, even with
// --report-only).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using mcdft::util::json::Value;

struct RunKey {
  std::string circuit;
  std::string analysis = "ac";  ///< workload class; absent in old reports
  std::size_t threads = 0;
  bool cache = false;
  bool lowrank = false;
  bool batched = false;
  bool screen = false;
};

/// A boolean run flag that may predate its introduction ("lowrank",
/// "batched", "screen"); absent reads false — the narrower solve path.
bool RunFlag(const Value& run, std::string_view field) {
  const Value* v = run.Find(field);
  return v != nullptr && v->AsBool();
}

/// The run's workload class; reports predating the transient workload
/// carry no "analysis" field and read as "ac".
std::string RunAnalysis(const Value& run) {
  const Value* v = run.Find("analysis");
  return v == nullptr ? "ac" : v->AsString();
}

/// A numeric run field that may predate its introduction; absent reads 0
/// (reports from before the resilience counters carry no "retries" /
/// "quarantined_cells").
std::size_t RunCount(const Value& run, std::string_view field) {
  const Value* v = run.Find(field);
  return v == nullptr ? 0 : static_cast<std::size_t>(v->AsDouble());
}

struct SummaryRow {
  RunKey key;
  double base_rate = 0.0;
  double fresh_rate = 0.0;
  double ratio = 0.0;
  bool ok = false;
  bool missing = false;
  std::size_t retries = 0;      // fresh run's retry-ladder escalations
  std::size_t quarantined = 0;  // fresh run's quarantined cells
};

const Value* FindRun(const Value& doc, const RunKey& key) {
  for (const Value& circuit : doc.Get("circuits").Items()) {
    if (circuit.Get("name").AsString() != key.circuit) continue;
    for (const Value& run : circuit.Get("runs").Items()) {
      if (static_cast<std::size_t>(run.Get("threads").AsDouble()) ==
              key.threads &&
          RunAnalysis(run) == key.analysis &&
          run.Get("cache_factorization").AsBool() == key.cache &&
          RunFlag(run, "lowrank") == key.lowrank &&
          RunFlag(run, "batched") == key.batched &&
          RunFlag(run, "screen") == key.screen) {
        return &run;
      }
    }
  }
  return nullptr;
}

bool WriteSummary(const std::string& path, const std::vector<SummaryRow>& rows,
                  double min_ratio, std::size_t regressed, bool report_only) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_gate: cannot write summary file %s\n",
                 path.c_str());
    return false;
  }
  out << "### Campaign throughput gate (min ratio " << min_ratio << ")\n\n";
  out << "| status | circuit | analysis | threads | cache | lowrank | "
         "batched | screen | baseline solves/s | fresh solves/s | ratio | "
         "retries | quarantined |\n";
  out << "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n";
  char buf[256];
  for (const SummaryRow& r : rows) {
    if (r.missing) {
      std::snprintf(buf, sizeof buf,
                    "| :grey_question: missing | %s | %s | %zu | %d | %d | %d "
                    "| %d | %.0f | — | — | — | — |\n",
                    r.key.circuit.c_str(), r.key.analysis.c_str(),
                    r.key.threads, r.key.cache ? 1 : 0, r.key.lowrank ? 1 : 0,
                    r.key.batched ? 1 : 0, r.key.screen ? 1 : 0, r.base_rate);
    } else {
      std::snprintf(buf, sizeof buf,
                    "| %s | %s | %s | %zu | %d | %d | %d | %d | %.0f | "
                    "%.0f | x%.2f | %zu | %zu |\n",
                    r.ok ? ":white_check_mark: ok" : ":x: FAIL",
                    r.key.circuit.c_str(), r.key.analysis.c_str(),
                    r.key.threads, r.key.cache ? 1 : 0, r.key.lowrank ? 1 : 0,
                    r.key.batched ? 1 : 0, r.key.screen ? 1 : 0, r.base_rate,
                    r.fresh_rate, r.ratio, r.retries, r.quarantined);
    }
    out << buf;
  }
  out << "\n";
  if (regressed > 0) {
    out << (report_only
                ? "**Regressions detected (report-only: not failing the job).**\n"
                : "**Regressions detected.**\n");
  } else {
    out << "No regressions.\n";
  }
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  mcdft::util::CliArgs args(argc, argv);
  const std::string baseline_path =
      args.GetString("baseline", "BENCH_campaign.json");
  const std::string fresh_path = args.GetString("fresh", "");
  const std::string summary_path = args.GetString("summary", "");
  double min_ratio = 0.6;
  try {
    min_ratio = args.GetDouble("min-ratio", min_ratio);
  } catch (const mcdft::util::Error& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }
  const bool report_only = args.Has("report-only");
  if (fresh_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_gate --fresh FILE [--baseline FILE]\n"
                 "                  [--min-ratio X] [--report-only]\n"
                 "                  [--summary FILE]\n");
    return 2;
  }

  // Input validation happens before --report-only is considered: the flag
  // softens regression verdicts, never unreadable reports.
  Value baseline, fresh;
  try {
    baseline = mcdft::util::json::ParseFile(baseline_path);
    fresh = mcdft::util::json::ParseFile(fresh_path);
  } catch (const mcdft::util::Error& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }

  std::vector<SummaryRow> rows;
  std::size_t compared = 0, regressed = 0, missing = 0;
  try {
    if (baseline.Get("bench").AsString() != fresh.Get("bench").AsString()) {
      std::fprintf(stderr, "bench_gate: bench kind mismatch (%s vs %s)\n",
                   baseline.Get("bench").AsString().c_str(),
                   fresh.Get("bench").AsString().c_str());
      return 2;
    }
    std::printf("bench_gate: %s vs baseline %s (min ratio %.2f)\n",
                fresh_path.c_str(), baseline_path.c_str(), min_ratio);
    for (const Value& circuit : baseline.Get("circuits").Items()) {
      const std::string& name = circuit.Get("name").AsString();
      for (const Value& run : circuit.Get("runs").Items()) {
        RunKey key{name, RunAnalysis(run),
                   static_cast<std::size_t>(run.Get("threads").AsDouble()),
                   run.Get("cache_factorization").AsBool(),
                   RunFlag(run, "lowrank"), RunFlag(run, "batched"),
                   RunFlag(run, "screen")};
        const double base_rate = run.Get("solves_per_s").AsDouble();
        // A baseline row that parses but carries a non-finite or negative
        // rate is bad input, not a comparison: the old `base_rate > 0`
        // guard silently passed NaN (every comparison false -> ratio 1.0
        // path skipped, ok false via NaN) and negatives (ratio <= 0 always
        // "regressed" for the wrong reason).  Same exit-2 contract as a
        // malformed report.
        if (!std::isfinite(base_rate) || base_rate < 0.0) {
          std::fprintf(stderr,
                       "bench_gate: baseline run %s threads=%zu has invalid "
                       "solves_per_s (%g)\n",
                       name.c_str(), key.threads, base_rate);
          return 2;
        }
        const Value* match = FindRun(fresh, key);
        if (match == nullptr) {
          ++missing;
          rows.push_back(SummaryRow{key, base_rate, 0.0, 0.0, false, true});
          std::printf(
              "  MISSING %-10s analysis=%s threads=%zu cache=%d lowrank=%d "
              "batched=%d screen=%d (no fresh run)\n",
              name.c_str(), key.analysis.c_str(), key.threads,
              key.cache ? 1 : 0, key.lowrank ? 1 : 0, key.batched ? 1 : 0,
              key.screen ? 1 : 0);
          continue;
        }
        const double fresh_rate = match->Get("solves_per_s").AsDouble();
        if (!std::isfinite(fresh_rate) || fresh_rate < 0.0) {
          std::fprintf(stderr,
                       "bench_gate: fresh run %s threads=%zu has invalid "
                       "solves_per_s (%g)\n",
                       name.c_str(), key.threads, fresh_rate);
          return 2;
        }
        const double ratio = base_rate > 0.0 ? fresh_rate / base_rate : 1.0;
        const bool ok = ratio >= min_ratio;
        ++compared;
        if (!ok) ++regressed;
        rows.push_back(SummaryRow{key, base_rate, fresh_rate, ratio, ok, false,
                                  RunCount(*match, "retries"),
                                  RunCount(*match, "quarantined_cells")});
        std::printf(
            "  %-4s %-10s analysis=%s threads=%zu cache=%d lowrank=%d "
            "batched=%d screen=%d  %10.0f -> %10.0f solves/s (x%.2f) "
            "retries=%zu quarantined=%zu\n",
            ok ? "ok" : "FAIL", name.c_str(), key.analysis.c_str(),
            key.threads, key.cache ? 1 : 0, key.lowrank ? 1 : 0,
            key.batched ? 1 : 0, key.screen ? 1 : 0, base_rate, fresh_rate,
            ratio, rows.back().retries, rows.back().quarantined);
      }
    }
  } catch (const mcdft::util::Error& e) {
    std::fprintf(stderr, "bench_gate: malformed report: %s\n", e.what());
    return 2;
  }

  std::printf("bench_gate: %zu compared, %zu regressed, %zu missing\n",
              compared, regressed, missing);
  if (compared == 0) {
    std::fprintf(stderr, "bench_gate: nothing to compare\n");
    return 2;
  }
  if (!summary_path.empty() &&
      !WriteSummary(summary_path, rows, min_ratio, regressed, report_only)) {
    return 2;
  }
  if (regressed > 0) {
    if (report_only) {
      std::printf("bench_gate: regressions ignored (--report-only)\n");
      return 0;
    }
    return 1;
  }
  return 0;
}
