// mcdft — the command-line front end to the multi-configuration DFT flow.
//
// Subcommands:
//   list                       circuits bundled in the zoo
//   analyze                    campaign: detectability matrix + w-det table
//   merge                      merge shard checkpoints into a full campaign
//   optimize                   Sec. 4 flow: xi, config-count opt, partial DFT
//   plan                       compile a multi-frequency test plan
//   diagnose                   fault diagnosis by configuration signature
//   opamp-test                 transparent-configuration opamp screen
//   bode                       nominal frequency response of the circuit
//   submit                     send a campaign request to a running mcdftd
//                              (--socket PATH | --tcp PORT; also --ping,
//                              --stats, --shutdown control ops)
//
// Circuit selection (all subcommands):
//   --circuit NAME             a zoo circuit (default: biquad), or
//   --deck FILE                a SPICE deck (needs >=1 opamp, a V source,
//                              and a .probe card)
//
// Campaign knobs:
//   --eps X                    tester accuracy (default 0.08)
//   --tol X                    process tolerance (default 0.03; 0 = off,
//                              negative or non-finite is an error)
//   --samples N                Monte-Carlo samples (default 48)
//   --ppd N                    sweep points per decade (default 50)
//   --max-followers K          structural config pre-selection
//   --analysis ac|transient    campaign analysis (default ac); transient
//                              runs trapezoidal step-response trajectories
//                              and scores envelope-deviation detectability
//   --faults deviation|catastrophic|both
//                              fault universe (default: deviation for AC,
//                              catastrophic opens+shorts for transient)
//   --t-end SECONDS            transient window (default 0 = auto 8/f0)
//   --steps N                  transient step count (default 256)
//   --preselect                run the sensitivity screen first
//   --no-screen                disable the adjoint sensitivity screen that
//                              skips clearly-(un)detected (fault, omega)
//                              cells; results are meant to be identical
//                              either way (not on leapfrog: see DESIGN.md
//                              "Adjoint sensitivity screen")
//   --report FILE              write a JSON run report (timings, solver
//                              statistics, per-config coverage)
//
// Sharding & checkpointing (analyze / merge):
//   --shard i/N                run only shard i of an N-way static split of
//                              the (configuration x fault) work matrix
//   --checkpoint DIR           write/resume shard-<i>of<N>.json checkpoints
//                              in DIR (atomic rename + fsync per unit)
//
// Each subcommand accepts only the flags it reads; any other flag (a typo,
// a retired knob) is a usage error naming the flag.
//
// Exit codes:
//   0  success
//   1  runtime error (solver, parse, checkpoint manifest mismatch, a
//      malformed MCDFT_* integer, ...)
//   2  usage error
//   3  campaign completed but quarantined >=1 (fault, omega) cell after
//      exhausting the retry ladder (results degraded, see DESIGN.md
//      "Resilience & failure semantics")
//
// Examples:
//   mcdft analyze --circuit leapfrog --max-followers 2
//   mcdft analyze --circuit biquad --analysis transient --steps 256
//   mcdft analyze --circuit biquad --shard 1/3 --checkpoint ckpt/
//   mcdft merge --checkpoint ckpt/ --report merged.json
//   mcdft optimize --circuit biquad
//   mcdft plan --circuit biquad --sopt
//   mcdft diagnose --deck myfilter.cir --levels 4

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "circuits/zoo.hpp"
#include "core/checkpoint.hpp"
#include "core/server/request.hpp"
#include "core/server/service.hpp"
#include "core/diagnosis.hpp"
#include "core/optimizer.hpp"
#include "core/preselection.hpp"
#include "core/report.hpp"
#include "core/run_report.hpp"
#include "core/shard.hpp"
#include "core/test_plan.hpp"
#include "spice/parser.hpp"
#include "util/cancel.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"

namespace {

using namespace mcdft;

/// The campaign request the shared flags describe.  `analyze`, `optimize`,
/// `plan`, `diagnose` and `submit` all start from it, and the campaign
/// itself is built by core::server::BuildCampaignJob — the call the daemon
/// makes — so a local run and a submit of the same flags are one campaign.
core::server::CampaignRequest RequestFromArgs(const util::CliArgs& args) {
  core::server::CampaignRequest r;
  if (args.Has("deck")) {
    const std::string path = args.GetString("deck", "");
    std::ifstream in(path);
    if (!in) throw util::Error("cannot open netlist file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    r.deck = text.str();
  } else {
    r.circuit = args.GetString("circuit", r.circuit);
  }
  r.eps = args.GetDouble("eps", r.eps);
  r.tol = args.GetDouble("tol", r.tol);
  r.samples = args.GetInt("samples", r.samples);
  r.ppd = args.GetInt("ppd", r.ppd);
  r.max_followers = args.GetInt("max-followers", r.max_followers);
  r.screen = !args.Has("no-screen");
  r.analysis = args.GetString("analysis", r.analysis);
  r.fault_universe = args.GetString("faults", r.fault_universe);
  r.transient_t_end = args.GetDouble("t-end", r.transient_t_end);
  r.transient_steps = args.GetInt("steps", r.transient_steps);
  return r;
}

/// A local campaign: the job the shared flags build, plus the CLI-only
/// run controls.
struct Session {
  core::server::CampaignJob job;
  std::string report_path;     // --report FILE; empty = no run report
  std::string checkpoint_dir;  // --checkpoint DIR; empty = no checkpoints
  core::ShardSpec shard;       // --shard i/N; default 0/1 (everything)

  core::CampaignResult RunCampaignNow() const {
    if (report_path.empty()) {
      return core::RunCampaign(job.circuit, job.fault_list, job.configs,
                               job.options);
    }
    core::CampaignRunRecorder recorder;
    auto campaign = core::RunCampaign(job.circuit, job.fault_list,
                                      job.configs, job.options);
    core::RunReportOptions report_options;
    report_options.circuit = job.circuit_name;
    report_options.threads = job.options.threads;
    core::WriteRunReport(recorder.Finish(campaign, report_options),
                         report_path);
    std::fprintf(stderr, "run report written to %s\n", report_path.c_str());
    return campaign;
  }
};

core::AnalogBlock LoadBlock(const util::CliArgs& args) {
  if (args.Has("deck")) {
    return core::MakeBlockFromDeck(
        spice::ParseDeckFile(args.GetString("deck", "")));
  }
  return circuits::FindInZoo(args.GetString("circuit", "biquad")).build();
}

Session MakeSession(const util::CliArgs& args) {
  core::server::CampaignJob job =
      core::server::BuildCampaignJob(RequestFromArgs(args));
  // Reports name a deck by its path.
  if (args.Has("deck")) job.circuit_name = args.GetString("deck", "");

  if (args.Has("preselect")) {
    auto pre = core::PreselectConfigurations(job.circuit, job.fault_list,
                                             job.configs);
    std::printf("pre-selection kept %zu of %zu configurations:",
                pre.selected.size(), job.configs.size());
    for (const auto& cv : pre.selected) std::printf(" %s", cv.Name().c_str());
    std::printf("\n\n");
    job.configs = pre.selected;
  }

  core::ShardSpec shard;  // 0 of 1
  if (args.Has("shard")) {
    shard = core::ParseShardSpec(args.GetString("shard", ""));
  }
  return Session{std::move(job), args.GetString("report", ""),
                 args.GetString("checkpoint", ""), shard};
}

int CmdList() {
  std::printf("Bundled circuits:\n");
  for (const auto& entry : circuits::Zoo()) {
    auto block = entry.build();
    std::printf("  %-10s %-55s (%zu opamps)\n", entry.name.c_str(),
                entry.description.c_str(), block.opamps.size());
  }
  return 0;
}

int CmdBode(const util::CliArgs& args) {
  auto block = LoadBlock(args);
  spice::AcAnalyzer analyzer(block.netlist);
  spice::Probe probe{block.netlist.FindNode(block.output_node), spice::kGround,
                     "v(" + block.output_node + ")"};
  auto sweep = spice::SweepSpec::Decade(args.GetDouble("fstart", 10.0),
                                        args.GetDouble("fstop", 1e5),
                                        static_cast<std::size_t>(
                                            args.GetInt("ppd", 10)));
  auto r = analyzer.Run(sweep, probe);
  std::printf("%s of %s:\n", probe.label.c_str(), block.name.c_str());
  for (std::size_t i = 0; i < r.PointCount(); ++i) {
    const double db = r.MagnitudeDbAt(i);
    const double frac = std::clamp((db + 80.0) / 80.0, 0.0, 1.0);
    std::printf("  %s\n",
                util::BarLine(util::FormatEngineering(r.freqs_hz[i], 3) + "Hz",
                              frac,
                              util::FormatTrimmed(db, 1) + " dB  " +
                                  util::FormatTrimmed(r.PhaseDegAt(i), 0) +
                                  "deg",
                              30, 10)
                    .c_str());
  }
  return 0;
}

/// Exit code for campaigns that completed with quarantined cells: the
/// results are usable but degraded (quarantined (fault, omega) points
/// count as undetected), and scripted callers must be able to tell that
/// apart from both success (0) and failure (1/2).
constexpr int kExitQuarantine = 3;

/// Exit code for submits stopped by their deadline or an explicit cancel
/// (the daemon's error_kind distinguishes which); mirrors
/// core::server::kExitDeadline.
constexpr int kExitDeadline = 4;

int QuarantineExit(const core::CampaignResult& campaign) {
  const std::size_t q = campaign.QuarantinedCellCount();
  if (q == 0) return 0;
  std::fprintf(stderr,
               "warning: %zu (fault, omega) cell(s) quarantined after the "
               "retry ladder; they count as undetected (exit code %d)\n", q,
               kExitQuarantine);
  return kExitQuarantine;
}

/// Per-shard resilience notes (salvaged checkpoints, tolerated write
/// failures) go to stderr so scripted stdout parsing stays stable.
void PrintShardResilienceNotes(const core::ShardRunResult& run) {
  for (const auto& d : run.salvage_diagnostics) {
    std::fprintf(stderr, "checkpoint salvage: %s\n", d.c_str());
  }
  if (run.checkpoint_write_failures > 0) {
    std::fprintf(stderr,
                 "warning: %zu checkpoint write(s) failed (last: %s); the "
                 "previous checkpoint is intact, resume will recompute the "
                 "difference\n",
                 run.checkpoint_write_failures, run.last_write_error.c_str());
  }
}

/// The analyze output body, shared between `analyze` (monolithic or
/// single-shard checkpointed runs) and `merge` so CI can diff the two.
void PrintCampaignAnalysis(const core::CampaignResult& campaign) {
  std::printf("%s\n", core::RenderDetectabilityMatrix(campaign).c_str());
  std::printf("%s\n", core::RenderOmegaTable(campaign).c_str());
  const std::size_t c0 = campaign.RowOf(
      core::ConfigVector(campaign.PerConfig().front().config.BitCount()));
  std::printf("functional configuration: coverage %s%%, <w-det> %s%%\n",
              util::FormatTrimmed(100.0 * campaign.Coverage({c0}), 1).c_str(),
              util::FormatTrimmed(100.0 * campaign.AverageOmegaDet({c0}), 1)
                  .c_str());
  std::printf("all configurations:       coverage %s%%, <w-det> %s%%\n",
              util::FormatTrimmed(100.0 * campaign.Coverage(), 1).c_str(),
              util::FormatTrimmed(100.0 * campaign.AverageOmegaDet(), 1)
                  .c_str());
}

int CmdAnalyze(const util::CliArgs& args) {
  Session session = MakeSession(args);
  if (args.Has("shard") && session.checkpoint_dir.empty()) {
    std::fprintf(stderr, "error: --shard requires --checkpoint DIR\n");
    return 2;
  }

  if (session.checkpoint_dir.empty()) {
    const core::CampaignResult campaign = session.RunCampaignNow();
    PrintCampaignAnalysis(campaign);
    return QuarantineExit(campaign);
  }

  // Checkpointed run: execute this shard's units (resuming from any
  // existing checkpoint), then — when this one shard is the whole
  // campaign — merge its file and print the usual analysis.
  core::ShardRunOptions shard_options;
  shard_options.shard = session.shard;
  shard_options.checkpoint_dir = session.checkpoint_dir;
  const core::ShardRunResult run = core::RunCampaignShard(
      session.job.circuit, session.job.fault_list, session.job.configs,
      session.job.options, shard_options);
  std::fprintf(stderr,
               "shard %s: %zu units (%zu resumed, %zu run) -> %s\n",
               session.shard.Name().c_str(), run.units_total,
               run.units_resumed, run.units_run, run.shard_path.c_str());
  PrintShardResilienceNotes(run);
  if (session.shard.count > 1) {
    if (!session.report_path.empty()) {
      std::fprintf(stderr,
                   "note: --report applies to 'mcdft merge', not to "
                   "individual shards\n");
    }
    std::printf("shard %s complete; merge all %zu shards with: "
                "mcdft merge --checkpoint %s\n",
                session.shard.Name().c_str(), session.shard.count,
                session.checkpoint_dir.c_str());
    if (run.quarantined_cells > 0) {
      std::fprintf(stderr,
                   "warning: %zu (fault, omega) cell(s) quarantined in this "
                   "shard (exit code %d)\n",
                   run.quarantined_cells, kExitQuarantine);
      return kExitQuarantine;
    }
    return 0;
  }

  core::CampaignRunRecorder recorder;
  core::MergedCampaign merged = core::MergeShards({run.shard_path});
  if (!session.report_path.empty()) {
    core::RunReportOptions report_options;
    report_options.circuit = session.job.circuit_name;
    report_options.threads = session.job.options.threads;
    core::WriteRunReport(recorder.Finish(merged.campaign, report_options),
                         session.report_path);
    std::fprintf(stderr, "run report written to %s\n",
                 session.report_path.c_str());
  }
  PrintCampaignAnalysis(merged.campaign);
  return QuarantineExit(merged.campaign);
}

int CmdMerge(const util::CliArgs& args) {
  const std::string dir = args.GetString("checkpoint", "");
  if (dir.empty()) {
    std::fprintf(stderr, "usage: mcdft merge --checkpoint DIR "
                         "[--report FILE]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot read checkpoint directory %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.starts_with("shard-") &&
        name.ends_with(".json")) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "error: no shard-*.json checkpoints in %s\n",
                 dir.c_str());
    return 2;
  }

  core::CampaignRunRecorder recorder;
  core::MergedCampaign merged = core::MergeShards(paths);
  std::fprintf(stderr, "merged %zu shard file(s) from %s (circuit %s)\n",
               merged.shard_files, dir.c_str(), merged.circuit.c_str());
  const std::string report_path = args.GetString("report", "");
  if (!report_path.empty()) {
    core::RunReportOptions report_options;
    report_options.tool = "mcdft merge";
    report_options.circuit = merged.circuit;
    core::WriteRunReport(recorder.Finish(merged.campaign, report_options),
                         report_path);
    std::fprintf(stderr, "run report written to %s\n", report_path.c_str());
  }
  PrintCampaignAnalysis(merged.campaign);
  return QuarantineExit(merged.campaign);
}

int CmdOptimize(const util::CliArgs& args) {
  Session session = MakeSession(args);
  auto campaign = session.RunCampaignNow();
  core::DftOptimizer optimizer(session.job.circuit, campaign);
  auto fundamental = optimizer.SolveFundamental();
  std::printf("%s\n", core::RenderFundamental(fundamental, campaign).c_str());
  auto sel = optimizer.OptimizeConfigurationCount(fundamental);
  std::printf("%s\n", core::RenderSelection(sel, campaign).c_str());
  auto part = optimizer.OptimizePartialDft(fundamental);
  std::printf("%s\n",
              core::RenderPartialDft(part, campaign, session.job.circuit)
                  .c_str());
  return 0;
}

int CmdPlan(const util::CliArgs& args) {
  Session session = MakeSession(args);
  auto campaign = session.RunCampaignNow();
  core::TestPlanOptions plan_options;
  if (args.Has("magnitude-only")) {
    plan_options.mode = core::MeasurementMode::kMagnitude;
  }
  plan_options.exact = args.Has("exact");
  if (args.Has("sopt")) {
    core::DftOptimizer optimizer(session.job.circuit, campaign);
    auto sel = optimizer.OptimizeConfigurationCount();
    plan_options.rows = sel.selected.rows.Variables();
    std::printf("restricting the plan to S_opt = %s\n\n",
                core::RowSetName(campaign, sel.selected.rows).c_str());
  }
  auto plan = core::GenerateTestPlan(campaign, plan_options);
  std::printf("%s\n", core::RenderTestPlan(plan, campaign).c_str());
  return 0;
}

int CmdDiagnose(const util::CliArgs& args) {
  Session session = MakeSession(args);
  auto campaign = session.RunCampaignNow();
  core::DiagnosisOptions diag;
  diag.levels = static_cast<std::size_t>(args.GetInt("levels", 1));
  auto report = core::Diagnose(campaign, diag);
  std::printf("%s\n", core::RenderDiagnosis(report, campaign).c_str());
  return 0;
}

int CmdOpampTest(const util::CliArgs& args) {
  auto block = LoadBlock(args);
  core::DftCircuit circuit = core::DftCircuit::Transform(block);
  auto result = core::RunOpampTransparentTest(circuit);
  std::printf("transparent-configuration opamp screen:\n");
  for (const auto& v : result.screen) {
    std::printf("  %-20s %sdetected (w-det %s%%)\n", v.fault.Label().c_str(),
                v.detectable ? "" : "NOT ",
                util::FormatTrimmed(100.0 * v.omega_detectability, 1).c_str());
  }
  std::printf("screen coverage: %s%%\n\n",
              util::FormatTrimmed(100.0 * result.screen_coverage, 1).c_str());
  std::printf("%s\n",
              core::RenderDiagnosis(result.diagnosis, result.localization)
                  .c_str());
  return 0;
}

/// `--extra-fault DEV:KIND:MAG[,DEV:KIND:MAG...]` — appended faults for a
/// daemon submit (KIND is up/down/open/short; MAG optional for the
/// catastrophic kinds).  Throws util::Error on a malformed spec.
std::vector<core::server::ExtraFault> ParseExtraFaults(
    const std::string& spec) {
  std::vector<core::server::ExtraFault> faults;
  for (const std::string& piece : util::SplitFields(spec, ",")) {
    const std::vector<std::string> parts = util::SplitKeepEmpty(piece, ':');
    if (parts.size() < 2 || parts.size() > 3 || parts[0].empty() ||
        parts[1].empty()) {
      throw util::Error("bad --extra-fault piece '" + piece +
                        "' (want DEV:KIND[:MAG])");
    }
    core::server::ExtraFault f;
    f.device = parts[0];
    f.kind = parts[1];
    if (parts.size() == 3) {
      char* end = nullptr;
      f.magnitude = std::strtod(parts[2].c_str(), &end);
      if (end == parts[2].c_str()) {
        throw util::Error("bad --extra-fault magnitude '" + parts[2] + "'");
      }
    }
    faults.push_back(std::move(f));
  }
  return faults;
}

/// Talk to a running mcdftd.  Default op is a campaign submit built from
/// the same knobs `analyze` takes; --ping/--stats/--shutdown/--cancel
/// select the control ops instead.  A submit's exit code mirrors the
/// daemon's (0 ok, 3 quarantine, 4 deadline/cancelled, 1 error), so
/// scripts treat `mcdft submit` exactly like a local `mcdft analyze`.
///
/// Resilience knobs: --deadline-ms bounds the end-to-end request (the
/// daemon stops computing within one campaign unit of expiry; default
/// from MCDFT_DEADLINE_MS), --retries N re-submits on queue-full and
/// transport errors with jittered exponential backoff seeded by the
/// daemon's retry_after_ms hint, and --request-id names the request so
/// `mcdft submit --cancel ID` can stop it from another shell.
int CmdSubmit(const util::CliArgs& args) {
  const std::string socket_path = args.GetString("socket", "");
  const bool tcp = args.Has("tcp");
  if (socket_path.empty() && !tcp) {
    std::fprintf(stderr,
                 "usage: mcdft submit --socket PATH | --tcp PORT\n"
                 "         [--circuit NAME | --deck FILE] [--eps X] [--tol X]\n"
                 "         [--samples N] [--ppd N] [--max-followers K]\n"
                 "         [--analysis ac|transient] [--faults UNIVERSE]\n"
                 "         [--t-end SECONDS] [--steps N]\n"
                 "         [--no-screen] [--threads N]\n"
                 "         [--priority N] [--extra-fault DEV:KIND:MAG,...]\n"
                 "         [--deadline-ms N] [--retries N] [--request-id ID]\n"
                 "         [--report FILE]\n"
                 "         [--ping | --stats | --shutdown | --cancel ID]\n"
                 "%s",
                 util::EnvOverridesHelp());
    return 2;
  }

  const int tcp_port = tcp ? args.GetInt("tcp", 0, 0, 65535) : 0;

  // End-to-end budget: flag wins, then MCDFT_DEADLINE_MS, then unlimited.
  std::int64_t deadline_ms =
      args.GetInt("deadline-ms", util::GetEnvInt("MCDFT_DEADLINE_MS", 0));
  if (deadline_ms < 0) deadline_ms = 0;
  const auto overall_deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);

  util::json::Value request;
  const bool control_op = args.Has("ping") || args.Has("stats") ||
                          args.Has("shutdown") || args.Has("cancel");
  if (control_op) {
    request = util::json::Value::Object();
    if (args.Has("cancel")) {
      request.Set("op", util::json::Value::Str("cancel"));
      request.Set("request_id",
                  util::json::Value::Str(args.GetString("cancel", "")));
    } else {
      request.Set("op", util::json::Value::Str(
                            args.Has("ping") ? "ping"
                            : args.Has("stats") ? "stats"
                                                : "shutdown"));
    }
  } else {
    core::server::CampaignRequest r = RequestFromArgs(args);
    r.threads = args.GetInt("threads", r.threads);
    r.priority = args.GetInt("priority", r.priority);
    if (args.Has("extra-fault")) {
      r.extra_faults = ParseExtraFaults(args.GetString("extra-fault", ""));
    }
    r.deadline_ms = deadline_ms;
    r.request_id = args.GetString("request-id", "");
    request = core::server::RequestToJson(r);
    request.Set("op", util::json::Value::Str("submit"));
  }
  const std::string request_line = request.Serialize(0) + "\n";

  // One attempt per loop pass: connect, submit, read the response.  A
  // retryable failure (queue full, lost/failed connection) backs off with
  // deterministic jitter — seeded per process so herds spread — honoring
  // the daemon's retry_after_ms hint, and never sleeps past the deadline.
  const int max_retries = control_op ? 0 : args.GetInt("retries", 0);
  const std::uint64_t backoff_seed = static_cast<std::uint64_t>(::getpid());
  std::optional<util::json::Value> parsed;
  for (int attempt = 0;; ++attempt) {
    std::string transient_error;
    std::int64_t retry_after_ms = 0;
    std::unique_ptr<util::Conn> conn =
        socket_path.empty() ? util::ConnectTcp(tcp_port)
                            : util::ConnectUnix(socket_path);
    if (!conn) {
      transient_error = std::string("cannot connect to mcdftd at ") +
                        (socket_path.empty()
                             ? "127.0.0.1:" + args.GetString("tcp", "")
                             : socket_path);
    } else {
      // Client-side read budget: the deadline remaining plus slack for the
      // daemon's last campaign unit to notice, so a wedged daemon cannot
      // hold a deadline-bearing client forever.
      if (deadline_ms > 0) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                overall_deadline - std::chrono::steady_clock::now())
                .count();
        conn->SetReadTimeoutMs(
            static_cast<int>((remaining > 0 ? remaining : 0) + 30'000));
      }
      std::string line;
      if (!conn->WriteAll(request_line) || !conn->ReadLine(line)) {
        transient_error = "connection to mcdftd lost";
      } else {
        util::json::Value response = util::json::Parse(line);
        const util::json::Value* kind = response.Find("error_kind");
        if (kind != nullptr && kind->AsString() == "queue_full") {
          transient_error = response.Get("error").AsString();
          if (const util::json::Value* hint = response.Find("retry_after_ms")) {
            retry_after_ms = static_cast<std::int64_t>(hint->AsDouble());
          }
        } else {
          parsed = std::move(response);
          break;
        }
      }
    }
    const bool budget_left =
        deadline_ms == 0 || std::chrono::steady_clock::now() < overall_deadline;
    if (attempt >= max_retries || !budget_left) {
      std::fprintf(stderr, "error: %s\n", transient_error.c_str());
      return 1;
    }
    const std::int64_t delay = util::BackoffDelayMs(
        static_cast<std::size_t>(attempt),
        retry_after_ms > 0 ? retry_after_ms : 100, 10'000, backoff_seed);
    std::fprintf(stderr, "retry %d/%d in %lld ms: %s\n", attempt + 1,
                 max_retries, static_cast<long long>(delay),
                 transient_error.c_str());
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }

  const util::json::Value& response = *parsed;
  const std::string op = response.Get("op").AsString();
  if (!response.Get("ok").AsBool()) {
    const util::json::Value* kind = response.Find("error_kind");
    if (kind != nullptr && !kind->AsString().empty()) {
      std::fprintf(stderr, "error (%s): %s\n", kind->AsString().c_str(),
                   response.Get("error").AsString().c_str());
    } else {
      std::fprintf(stderr, "error: %s\n",
                   response.Get("error").AsString().c_str());
    }
    const util::json::Value* code = response.Find("exit_code");
    return code == nullptr ? 1 : static_cast<int>(code->AsDouble());
  }
  if (op == "ping" || op == "shutdown") {
    std::printf("%s: ok\n", op.c_str());
    return 0;
  }
  if (op == "cancel") {
    const bool hit = response.Get("cancelled").AsBool();
    std::printf("cancel: %s\n", hit ? "delivered" : "no such request");
    return hit ? 0 : 1;
  }
  if (op == "stats") {
    std::printf("%s\n", response.Get("stats").Serialize(2).c_str());
    return 0;
  }

  // Submit.  The cache tier goes to stderr (stable stdout for scripts that
  // parse the analysis) and the report bytes are written verbatim — a warm
  // hit's file must compare byte-equal to the cold run's.
  const std::string tier = response.Get("cache").AsString();
  std::fprintf(stderr, "cache: %s\n", tier.c_str());
  const int exit_code =
      static_cast<int>(response.Get("exit_code").AsDouble());
  const std::uint64_t quarantined = static_cast<std::uint64_t>(
      response.Get("quarantined_cells").AsDouble());
  std::printf("key: %s\n", response.Get("key").AsString().c_str());
  const std::string report_path = args.GetString("report", "");
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    out << response.Get("report").AsString();
    if (!out) {
      std::fprintf(stderr, "error: cannot write report %s\n",
                   report_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "run report written to %s\n", report_path.c_str());
  }
  if (exit_code == kExitQuarantine) {
    std::fprintf(stderr,
                 "warning: %llu (fault, omega) cell(s) quarantined (exit "
                 "code %d)\n",
                 static_cast<unsigned long long>(quarantined),
                 kExitQuarantine);
  }
  return exit_code;
}

void PrintUsage() {
  std::printf(
      "usage: mcdft "
      "<list|bode|analyze|merge|optimize|plan|diagnose|opamp-test|submit>\n"
      "             [--circuit NAME | --deck FILE] [--eps X] [--tol X]\n"
      "             [--samples N] [--ppd N] [--max-followers K] [--preselect]\n"
      "             [--analysis ac|transient] [--faults deviation|\n"
      "              catastrophic|both] [--t-end SECONDS] [--steps N]\n"
      "             [--no-screen] [--report FILE]\n"
      "             [bode: --fstart HZ --fstop HZ --ppd N]\n"
      "             [analyze: --shard i/N --checkpoint DIR]\n"
      "             [merge: --checkpoint DIR]\n"
      "             [plan: --sopt --magnitude-only --exact]\n"
      "             [diagnose: --levels N]\n"
      "             [submit: --socket PATH | --tcp PORT, --threads N,\n"
      "                      --priority N, --extra-fault DEV:KIND:MAG,\n"
      "                      --ping | --stats | --shutdown]\n"
      "%s"
      "Run 'mcdft list' for the bundled circuits.\n",
      util::EnvOverridesHelp());
}

/// The flags subcommand `cmd` reads, or nullopt for an unknown subcommand.
/// Any other flag is a usage error: it would otherwise be dropped silently.
std::optional<std::set<std::string>> FlagsOf(const std::string& cmd) {
  if (cmd == "list") return std::set<std::string>{};
  if (cmd == "merge") return std::set<std::string>{"checkpoint", "report"};
  std::set<std::string> flags = {"circuit", "deck"};  // circuit selection
  if (cmd == "opamp-test") return flags;
  if (cmd == "bode") {
    flags.insert({"fstart", "fstop", "ppd"});
    return flags;
  }
  // RequestFromArgs, plus --report (a run report, or submit's reply).
  flags.insert({"eps", "tol", "samples", "ppd", "max-followers", "no-screen",
                "analysis", "faults", "t-end", "steps", "report"});
  if (cmd == "submit") {
    flags.insert({"socket", "tcp", "threads", "priority", "extra-fault",
                  "deadline-ms", "retries", "request-id", "ping", "stats",
                  "shutdown", "cancel"});
    return flags;
  }
  flags.insert("preselect");  // MakeSession
  if (cmd == "analyze") flags.insert({"shard", "checkpoint"});
  else if (cmd == "plan") flags.insert({"sopt", "magnitude-only", "exact"});
  else if (cmd == "diagnose") flags.insert("levels");
  else if (cmd != "optimize") return std::nullopt;
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  if (args.Positional().empty()) {
    PrintUsage();
    return 2;
  }
  const std::string& cmd = args.Positional()[0];
  const std::optional<std::set<std::string>> flags = FlagsOf(cmd);
  if (!flags) {
    std::fprintf(stderr, "unknown subcommand '%s'\n\n", cmd.c_str());
    PrintUsage();
    return 2;
  }
  if (const std::optional<std::string> flag = args.UnknownOption(*flags)) {
    std::fprintf(stderr, "error: '%s' does not take --%s\n\n", cmd.c_str(),
                 flag->c_str());
    PrintUsage();
    return 2;
  }
  try {
    // Latch MCDFT_THREADS up front: a malformed value stops the run here,
    // like a bad flag, instead of inside the first parallel section.
    util::DefaultThreadCount();
    if (cmd == "list") return CmdList();
    if (cmd == "bode") return CmdBode(args);
    if (cmd == "analyze") return CmdAnalyze(args);
    if (cmd == "merge") return CmdMerge(args);
    if (cmd == "optimize") return CmdOptimize(args);
    if (cmd == "plan") return CmdPlan(args);
    if (cmd == "diagnose") return CmdDiagnose(args);
    if (cmd == "opamp-test") return CmdOpampTest(args);
    return CmdSubmit(args);
  } catch (const util::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
