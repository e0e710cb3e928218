// Structured JSON run reports for fault-simulation campaigns.
//
// A CampaignRunRecorder brackets one campaign run: it snapshots the global
// metrics/trace registries, enables instrumentation, and — once the caller
// hands back the CampaignResult — folds the metric deltas, per-phase
// timings, per-configuration coverage summaries and environment facts into
// one JSON document (schema "mcdft.run_report/9", documented in DESIGN.md
// "Observability").
//
// The recorder only ever *adds* observability: it restores the previous
// metrics enable state on Finish()/destruction and never perturbs campaign
// numbers (instrumentation is counters and clocks, not behaviour).
#pragma once

#include <optional>
#include <string>

#include "core/campaign.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace mcdft::core {

/// Free-form context the caller wants embedded in the report.
struct RunReportOptions {
  std::string tool = "mcdft";     ///< producing binary ("mcdft", "bench", ...)
  std::string circuit;            ///< circuit name, when known
  std::size_t threads = 0;        ///< requested thread count (0 = auto)
};

/// RAII bracket around an instrumented campaign run.
class CampaignRunRecorder {
 public:
  /// Snapshots the current metric/trace state and turns instrumentation on.
  CampaignRunRecorder();

  /// Restores the previous enable state if Finish() was never called.
  ~CampaignRunRecorder();

  CampaignRunRecorder(const CampaignRunRecorder&) = delete;
  CampaignRunRecorder& operator=(const CampaignRunRecorder&) = delete;

  /// Build the report from everything recorded since construction.  May be
  /// called once; restores the previous metrics enable state.
  util::json::Value Finish(const CampaignResult& campaign,
                           const RunReportOptions& options = {});

 private:
  util::metrics::Snapshot metrics_before_;
  std::vector<util::trace::SpanStats> trace_before_;
  std::uint64_t wall_start_ns_ = 0;
  std::uint64_t cpu_start_ns_ = 0;
  std::optional<util::metrics::ScopedEnable> enable_;
};

/// Serialize `report` to `path` (pretty-printed).  Throws util::Error when
/// the file cannot be written.
void WriteRunReport(const util::json::Value& report, const std::string& path);

}  // namespace mcdft::core
