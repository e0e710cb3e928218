// Layered benchmark driver for the mcdft flow.
//
//   perfbench_driver --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--print-pins]
//
// Workloads (see perfbench/README.md for why each exists):
//   analyze-full    AC analyze of cascade6 over all 511 configurations
//   optimize-zoo    the Sec. 4 optimizer + renderers over every zoo circuit
//   transient-full  transient analyze of cascade6 over all 511 configurations
//   service-mix     in-process CampaignService under a closed-loop mix
//
// An untraced run (--trace 0) builds the workload's inputs several times
// (median = setup_s) and runs one discarded warm-up pass, then timed passes
// for --seconds (median = wall_s).  A traced run (--trace 1) times passes for
// half that, then runs the workload layer by layer through the public
// building blocks with the metrics layer on, and reports per-layer busy
// time and work counters.
//
// Every pass checks its outputs; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.  A fidelity failure of the
// traced replica aborts with exit code 1 and no result line.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "circuits/zoo.hpp"
#include "core/optimizer.hpp"
#include "core/report.hpp"
#include "core/server/request.hpp"
#include "core/server/service.hpp"
#include "faults/fault.hpp"
#include "faults/simulator.hpp"
#include "pins.hpp"
#include "support.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace {

using namespace mcdft;
namespace pb = mcdft::perfbench;
namespace metrics = util::metrics;

/// Stop starting new passes after this long, well inside the 180 s budget
/// a single benchmark run has.
constexpr double kPassBudgetS = 120.0;

/// Set-up runs at least this many times and for at least this long.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupMinS = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = pb::kPaperSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_pins = false;
};

/// Output-check bookkeeping: one attempt per checked job (a campaign pass,
/// one circuit's optimizer run, one service request).
class Checks {
 public:
  /// Record one job; `failures` lists what it got wrong (empty = correct).
  void Job(const std::vector<std::string>& failures) {
    ++attempted_;
    if (failures.empty()) return;
    ++failed_;
    for (const std::string& f : failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
  }
  std::size_t Attempted() const { return attempted_; }
  std::size_t Failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// A verdict checked against pins.hpp at the paper seed.  `text` verdicts
/// compare exactly; numeric ones within the pin's tolerance.
struct Verdict {
  std::string name;
  std::string text;
  double value = 0.0;
};

/// Check the pins of `workload` whose names start with `prefix`.
void CheckPins(const std::string& workload, const std::string& prefix,
               const std::vector<Verdict>& verdicts,
               std::vector<std::string>& failures) {
  std::size_t matched = 0;
  for (const pb::Pin& pin : pb::kPins) {
    if (workload != pin.workload ||
        !std::string_view(pin.name).starts_with(prefix)) {
      continue;
    }
    const auto it =
        std::find_if(verdicts.begin(), verdicts.end(),
                     [&](const Verdict& v) { return v.name == pin.name; });
    if (it == verdicts.end()) {
      failures.push_back(workload + ": no verdict for pin " + pin.name);
      continue;
    }
    ++matched;
    const bool ok = pin.text[0] != '\0'
                        ? it->text == pin.text
                        : std::fabs(it->value - pin.value) <= pin.tolerance;
    if (!ok) {
      failures.push_back(workload + ": " + pin.name + " = " +
                         (it->text.empty() ? util::FormatTrimmed(it->value, 6)
                                           : it->text) +
                         ", pinned " +
                         (pin.text[0] != '\0'
                              ? std::string(pin.text)
                              : util::FormatTrimmed(pin.value, 6)));
    }
  }
  if (matched == 0) {
    failures.push_back(workload + ": no pinned verdicts for " + prefix);
  }
}

void PrintPins(const std::string& workload,
               const std::vector<Verdict>& verdicts) {
  for (const Verdict& v : verdicts) {
    const bool text = !v.text.empty();
    const double tol =
        text ? 0.0 : (v.name.ends_with("wdet") ? 0.05 : 1e-9);
    std::printf("    {\"%s\", \"%s\", \"%s\", %.17g, %g},\n", workload.c_str(),
                v.name.c_str(), v.text.c_str(), text ? 0.0 : v.value, tol);
  }
}

// --- Per-layer accounting ------------------------------------------------

/// Measures one layer phase from outside: wall, process CPU and the
/// metrics-counter delta between construction and Stop().
class LayerClock {
 public:
  LayerClock() : before_(metrics::Capture()), wall0_(pb::WallNow()),
                 cpu0_(pb::CpuNow()) {}
  void Stop() {
    busy_s = pb::WallNow() - wall0_;
    cpu_s = pb::CpuNow() - cpu0_;
    delta = metrics::Delta(before_, metrics::Capture());
  }
  std::uint64_t Count(std::string_view name) const {
    return delta.CounterValue(name);
  }

  double busy_s = 0.0;
  double cpu_s = 0.0;
  metrics::Snapshot delta;

 private:
  metrics::Snapshot before_;
  double wall0_;
  double cpu0_;
};

/// Raw per-layer sums of one traced pass; Finish() derives the reported
/// per-layer metrics (every name in pb::PerLayerMetrics()).
struct Layers {
  double threads = 1.0;  ///< threads one layer call may use (cpu_util)
  /// Concurrent layer calls: 1 when layers are timed from outside, the
  /// worker count when their busy times are summed over service workers.
  double concurrency = 1.0;

  double band_s = 0.0;
  double envelope_s = 0.0, envelope_cpu_s = 0.0;
  double envelope_samples = 0.0;
  double worker_idle_s = 0.0, join_wait_s = 0.0;
  double simulate_s = 0.0, simulate_cpu_s = 0.0;
  double screened_cells = 0.0;
  double mna_solves = 0.0, smw_updates = 0.0, exact_fallbacks = 0.0;
  double transient_steps = 0.0, full_factors = 0.0, refactors = 0.0;
  double score_s = 0.0, score_cells = 0.0;
  double fundamental_s = 0.0, config_count_s = 0.0, partial_s = 0.0;
  double exact_s = 0.0, minimal_covers = 0.0;
  double render_s = 0.0, render_bytes = 0.0;
  std::map<std::string, double> service;  ///< service.* / cache.* values

  /// Scale every summed time and count by `f` (per-pass figures from a
  /// pooled traced run); service.computed is the only extensive service
  /// value.
  void Scale(double f) {
    for (double* v :
         {&band_s, &envelope_s, &envelope_cpu_s, &envelope_samples,
          &worker_idle_s, &join_wait_s, &simulate_s, &simulate_cpu_s,
          &screened_cells, &mna_solves, &smw_updates, &exact_fallbacks,
          &transient_steps, &full_factors, &refactors, &score_s, &score_cells,
          &fundamental_s, &config_count_s, &partial_s, &exact_s,
          &minimal_covers, &render_s, &render_bytes}) {
      *v *= f;
    }
    if (service.contains("service.computed")) service["service.computed"] *= f;
  }

  /// Fold the simulate-layer counters of one phase.
  void AddSimulate(const LayerClock& clock) {
    simulate_s += clock.busy_s;
    simulate_cpu_s += clock.cpu_s;
    screened_cells +=
        static_cast<double>(clock.Count("faults.screen.screened_detected") +
                            clock.Count("faults.screen.screened_undetected"));
    mna_solves += static_cast<double>(clock.Count("spice.mna.solve"));
    smw_updates += static_cast<double>(clock.Count("linalg.smw.update"));
    exact_fallbacks +=
        static_cast<double>(clock.Count("faults.sim.exact_fallback") +
                            clock.Count("transient.smw_fallback"));
    transient_steps += static_cast<double>(clock.Count("transient.steps"));
    full_factors +=
        static_cast<double>(clock.Count("linalg.sparse_lu.full_factor"));
    refactors += static_cast<double>(clock.Count("linalg.sparse_lu.refactor"));
  }

  void AddEnvelope(const LayerClock& clock) {
    envelope_s += clock.busy_s;
    envelope_cpu_s += clock.cpu_s;
    envelope_samples +=
        static_cast<double>(clock.Count("testability.envelope.samples"));
    worker_idle_s +=
        1e-9 * static_cast<double>(clock.Count("util.parallel.worker_idle_ns"));
    join_wait_s +=
        1e-9 * static_cast<double>(clock.Count("util.parallel.join_wait_ns"));
  }

  std::map<std::string, double> Finish(double traced_wall_s,
                                       double untraced_wall_s) const {
    const auto per_s = [](double n, double s) { return s > 0.0 ? n / s : 0.0; };
    const auto util = [this](double cpu, double busy) {
      return busy > 0.0 ? cpu / (busy * threads) : 0.0;
    };
    // Cells the simulate layer actually solved: scored (fault, point) cells
    // minus the ones the sensitivity screen decided without a solve.
    const double solved_cells = std::max(0.0, score_cells - screened_cells);
    std::map<std::string, double> m = {
        {"band.busy_s", band_s},
        {"envelope.busy_s", envelope_s},
        {"envelope.samples", envelope_samples},
        {"envelope.samples_per_s", per_s(envelope_samples, envelope_s)},
        {"envelope.cpu_util", util(envelope_cpu_s, envelope_s)},
        {"parallel.worker_idle_s", worker_idle_s},
        {"parallel.join_wait_s", join_wait_s},
        {"simulate.busy_s", simulate_s},
        {"simulate.cells", solved_cells},
        {"simulate.cells_per_s", per_s(solved_cells, simulate_s)},
        {"simulate.cpu_util", util(simulate_cpu_s, simulate_s)},
        {"simulate.mna_solves", mna_solves},
        {"simulate.smw_updates", smw_updates},
        {"simulate.exact_fallbacks", exact_fallbacks},
        {"simulate.screen_decided_frac",
         score_cells > 0.0 ? screened_cells / score_cells : 0.0},
        {"simulate.transient_steps", transient_steps},
        {"linalg.full_factors", full_factors},
        {"linalg.refactors", refactors},
        {"score.busy_s", score_s},
        {"score.cells_per_s", per_s(score_cells, score_s)},
        {"optimize.fundamental_s", fundamental_s},
        {"optimize.config_count_s", config_count_s},
        {"optimize.partial_s", partial_s},
        {"optimize.exact_s", exact_s},
        {"optimize.minimal_covers", minimal_covers},
        {"render.busy_s", render_s},
        {"render.bytes", render_bytes},
        {"trace.overhead_frac",
         untraced_wall_s > 0.0 ? traced_wall_s / untraced_wall_s - 1.0 : 0.0},
    };
    // Wall not covered by any layer.  Service layers run on its workers,
    // so their summed busy time is spread over the worker count.
    const double covered = band_s + envelope_s + simulate_s + score_s +
                           fundamental_s + config_count_s + partial_s +
                           exact_s + render_s;
    m["other.busy_s"] = traced_wall_s - covered / concurrency;
    for (const pb::MetricSpec& spec : pb::PerLayerMetrics()) {
      if (!m.contains(spec.name)) m[spec.name] = 0.0;
    }
    for (const auto& [name, value] : service) m[name] = value;
    return m;
  }
};

// --- Campaign inputs and the layered replica ----------------------------

std::size_t BenchThreads() {
  return std::min<std::size_t>(4, util::HardwareThreadCount());
}

/// The inputs `mcdft analyze` builds for a zoo circuit, through the request
/// path the daemon shares with the CLI: the analysis's default fault
/// universe, the paper campaign options and `max_followers` (< 0: the CLI's
/// follower default).  The Monte-Carlo seed is set afterwards, so the job's
/// content-hash key is stale and unused.
core::server::CampaignJob MakeJob(const std::string& circuit,
                                  const std::string& analysis,
                                  int max_followers, std::uint64_t seed) {
  core::server::CampaignRequest request;
  request.circuit = circuit;
  request.analysis = analysis;
  request.max_followers = max_followers;
  request.threads = static_cast<int>(BenchThreads());
  core::server::CampaignJob job = core::server::BuildCampaignJob(request);
  job.options.tolerance->seed = seed;
  return job;
}

/// RunCampaign rebuilt from its public building blocks, one layer phase at
/// a time, each timed from outside into `layers`: band (BuildCampaignFrame),
/// envelope (PrepareCampaignConfig), simulate (FaultSimulator), score
/// (AssembleConfigRow).
core::CampaignResult LayeredCampaign(
    const core::DftCircuit& circuit,
    const std::vector<faults::Fault>& fault_list,
    const std::vector<core::ConfigVector>& configs,
    const core::CampaignOptions& options, Layers& layers) {
  core::DftCircuit work = circuit.Clone();
  LayerClock band;
  const core::CampaignFrame frame =
      core::BuildCampaignFrame(work, fault_list, options);
  band.Stop();
  layers.band_s += band.busy_s;

  LayerClock envelope;
  std::vector<core::PreparedConfig> prepared;
  prepared.reserve(configs.size());
  for (const core::ConfigVector& cv : configs) {
    prepared.push_back(core::PrepareCampaignConfig(work, frame, cv, options));
  }
  envelope.Stop();
  layers.AddEnvelope(envelope);

  LayerClock simulate;
  std::vector<std::vector<spice::FrequencyResponse>> rows;
  rows.reserve(configs.size());
  const bool screening = spice::SensitivityScreenEnabled(options.mna);
  for (std::size_t c = 0; c < configs.size(); ++c) {
    faults::FaultSimulator simulator(prepared[c].netlist, frame.sweep,
                                     frame.probe, options.mna);
    if (options.analysis == core::CampaignAnalysis::kTransient) {
      rows.push_back(simulator.SimulateTransientRange(
          fault_list, 0, fault_list.size(), options.threads, *frame.transient));
      continue;
    }
    std::optional<faults::SensitivityScreenSpec> screen;
    if (screening) {
      screen = core::MakeSensitivityScreenSpec(
          prepared[c].criteria, frame.sweep.Frequencies().size(), options);
    }
    rows.push_back(simulator.SimulateRange(fault_list, 0, fault_list.size(),
                                           options.threads,
                                           screen ? &*screen : nullptr));
  }
  simulate.Stop();
  layers.AddSimulate(simulate);

  LayerClock score;
  std::vector<core::ConfigResult> per_config;
  per_config.reserve(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    per_config.push_back(core::AssembleConfigRow(
        configs[c], prepared[c].criteria, std::move(rows[c]), fault_list, 0,
        fault_list.size()));
  }
  core::CampaignResult result(fault_list, std::move(per_config), frame.band);
  score.Stop();
  layers.score_s += score.busy_s;
  layers.score_cells +=
      static_cast<double>(score.Count("campaign.cells.total"));
  return result;
}

/// Abort (exit 1, no result line) unless the replica reproduced the
/// campaign exactly: otherwise the per-layer numbers describe a different
/// program.
void RequireSameCampaign(const core::CampaignResult& replica,
                         const core::CampaignResult& reference,
                         const std::string& what) {
  if (replica.DetectabilityMatrix() == reference.DetectabilityMatrix() &&
      replica.OmegaTable() == reference.OmegaTable()) {
    return;
  }
  std::fprintf(stderr,
               "fidelity check failed: the layered replica of %s differs "
               "from RunCampaign\n",
               what.c_str());
  std::exit(1);
}

/// The `mcdft analyze` stdout body for a campaign.
std::string RenderAnalysis(const core::CampaignResult& campaign) {
  std::string out = core::RenderDetectabilityMatrix(campaign) + "\n" +
                    core::RenderOmegaTable(campaign) + "\n";
  const std::size_t c0 = campaign.RowOf(
      core::ConfigVector(campaign.PerConfig().front().config.BitCount()));
  out += "functional configuration: coverage " +
         util::FormatTrimmed(100.0 * campaign.Coverage({c0}), 1) +
         "%, <w-det> " +
         util::FormatTrimmed(100.0 * campaign.AverageOmegaDet({c0}), 1) +
         "%\n";
  out += "all configurations:       coverage " +
         util::FormatTrimmed(100.0 * campaign.Coverage(), 1) + "%, <w-det> " +
         util::FormatTrimmed(100.0 * campaign.AverageOmegaDet(), 1) + "%\n";
  return out;
}

std::vector<Verdict> CampaignVerdicts(const std::string& prefix,
                                      const core::CampaignResult& campaign) {
  return {{prefix + "matrix_digest",
           pb::MatrixDigest(campaign.DetectabilityMatrix()), 0.0},
          {prefix + "coverage", "", campaign.Coverage()},
          {prefix + "wdet", "", campaign.AverageOmegaDet()}};
}

// --- Workloads -----------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs a pass needs (timed into setup_s).  Runs several
  /// times; each call replaces what the last one built.
  virtual void Setup() = 0;
  /// One untraced pass, output-checked (timed by the caller: wall_s).
  virtual void Pass(Checks& checks) = 0;
  /// True while the run still lacks samples an end-to-end metric needs.
  virtual bool NeedsMorePasses() const { return false; }
  /// One traced pass: the same work layer by layer with metrics on.
  /// Returns its wall time.
  virtual double TracedPass(Checks& checks, Layers& layers) = 0;
  /// Verdicts of the last pass, for --print-pins.
  virtual void PrintPins() const = 0;
  /// Human-readable extras printed before the result line.
  virtual void Summary() const {}
};

/// analyze-full / transient-full: `mcdft analyze` on cascade6 over every
/// non-transparent configuration.
class AnalyzeWorkload final : public Workload {
 public:
  AnalyzeWorkload(std::string name, std::string analysis, std::uint64_t seed)
      : name_(std::move(name)), analysis_(std::move(analysis)), seed_(seed) {}

  void Setup() override {
    // Every follower allowed: all 2^n - 1 non-transparent configurations.
    const int opamps =
        static_cast<int>(circuits::FindInZoo("cascade6").build().opamps.size());
    job_.emplace(MakeJob("cascade6", analysis_, opamps, seed_));
  }

  void Pass(Checks& checks) override {
    core::CampaignResult campaign =
        core::RunCampaign(job_->circuit, job_->fault_list,
                          job_->configs, job_->options);
    const std::string text = RenderAnalysis(campaign);
    Check(campaign, text, checks);
    last_.emplace(std::move(campaign));
  }

  double TracedPass(Checks& checks, Layers& layers) override {
    layers.threads = static_cast<double>(job_->options.threads);
    const double t0 = pb::WallNow();
    core::CampaignResult campaign =
        LayeredCampaign(job_->circuit, job_->fault_list,
                        job_->configs, job_->options, layers);
    const double r0 = pb::WallNow();
    const std::string text = RenderAnalysis(campaign);
    layers.render_s += pb::WallNow() - r0;
    layers.render_bytes += static_cast<double>(text.size());
    const double wall = pb::WallNow() - t0;
    RequireSameCampaign(campaign, *last_, name_);
    Check(campaign, text, checks);
    return wall;
  }

  void PrintPins() const override {
    ::PrintPins(name_, CampaignVerdicts("", *last_));
  }

 private:
  void Check(const core::CampaignResult& campaign, const std::string& text,
             Checks& checks) {
    std::vector<std::string> failures;
    if (campaign.QuarantinedCellCount() != 0) {
      failures.push_back(name_ + ": quarantined cells");
    }
    if (campaign.ConfigCount() != job_->configs.size() ||
        campaign.FaultCount() != job_->fault_list.size() || text.empty()) {
      failures.push_back(name_ + ": campaign shape or rendering is wrong");
    }
    const std::string digest = pb::MatrixDigest(campaign.DetectabilityMatrix());
    if (first_digest_.empty()) first_digest_ = digest;
    if (digest != first_digest_) {
      failures.push_back(name_ + ": matrix changed between passes");
    }
    if (seed_ == pb::kPaperSeed) {
      CheckPins(name_, "", CampaignVerdicts("", campaign), failures);
    }
    checks.Job(failures);
  }

  std::string name_;
  std::string analysis_;
  std::uint64_t seed_;
  std::optional<core::server::CampaignJob> job_;
  std::optional<core::CampaignResult> last_;
  std::string first_digest_;
};

/// optimize-zoo: the Sec. 4 flow (`mcdft optimize` plus the exact cover)
/// over campaigns of every zoo circuit built during set-up.
class OptimizeWorkload final : public Workload {
 public:
  explicit OptimizeWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    // The campaigns are always drawn at the paper seed: the optimizer's
    // cost hinges on the Monte-Carlo draw (cascade6 has 3022 minimal covers
    // at the paper seed, 1864 at seed 7, and a pass over 8 cascade6 draws
    // still varied 0.79-1.07 s between seeds), so a seeded matrix would
    // measure the draw rather than the optimizer.  --seed orders the
    // circuits within a pass instead.
    circuits_.clear();
    const std::vector<circuits::ZooEntry>& zoo = circuits::Zoo();
    for (std::size_t i : pb::SeededPermutation(seed_, zoo.size())) {
      core::server::CampaignJob job =
          MakeJob(zoo[i].name, "ac", /*max_followers=*/-1, pb::kPaperSeed);
      core::CampaignResult campaign = core::RunCampaign(
          job.circuit, job.fault_list, job.configs, job.options);
      circuits_.push_back(Circuit{std::move(job), std::move(campaign)});
    }
  }

  void Pass(Checks& checks) override {
    Layers unused;
    RunOptimizer(checks, unused);
  }

  double TracedPass(Checks& checks, Layers& layers) override {
    // Fidelity first (outside the traced wall): the set-up campaigns must
    // be reproducible layer by layer.
    for (const Circuit& c : circuits_) {
      Layers scratch;
      const core::CampaignResult replica =
          LayeredCampaign(c.job.circuit, c.job.fault_list, c.job.configs,
                          c.job.options, scratch);
      RequireSameCampaign(replica, c.campaign, c.job.circuit_name);
    }
    layers.threads = 1.0;
    const double t0 = pb::WallNow();
    RunOptimizer(checks, layers);
    return pb::WallNow() - t0;
  }

  void PrintPins() const override { ::PrintPins("optimize-zoo", verdicts_); }

 private:
  struct Circuit {
    core::server::CampaignJob job;
    core::CampaignResult campaign;
  };

  void RunOptimizer(Checks& checks, Layers& layers) {
    verdicts_.clear();
    for (const Circuit& c : circuits_) {
      const core::DftOptimizer optimizer(c.job.circuit, c.campaign);
      double t = pb::WallNow();
      const auto lap = [&t] {
        const double now = pb::WallNow();
        const double dt = now - t;
        t = now;
        return dt;
      };
      const core::FundamentalSolution fundamental =
          optimizer.SolveFundamental();
      layers.fundamental_s += lap();
      std::string text = core::RenderFundamental(fundamental, c.campaign);
      layers.render_s += lap();
      const core::SelectionResult selection =
          optimizer.OptimizeConfigurationCount();
      layers.config_count_s += lap();
      text += core::RenderSelection(selection, c.campaign);
      layers.render_s += lap();
      const core::PartialDftResult partial = optimizer.OptimizePartialDft();
      layers.partial_s += lap();
      text += core::RenderPartialDft(partial, c.campaign, c.job.circuit);
      layers.render_s += lap();
      const core::ScoredSet exact = optimizer.OptimizeConfigurationCountExact();
      layers.exact_s += lap();
      text += core::RowSetName(c.campaign, exact.rows);
      layers.render_s += lap();
      layers.render_bytes += static_cast<double>(text.size());
      layers.minimal_covers +=
          static_cast<double>(fundamental.minimal_covers.size());

      std::vector<std::string> failures;
      const std::string& name = c.job.circuit_name;
      if (selection.selected.coverage < fundamental.max_coverage - 1e-12) {
        failures.push_back(name + ": selected cover misses max coverage");
      }
      if (fundamental.minimal_covers.empty() ||
          exact.rows.LiteralCount() !=
              fundamental.minimal_covers.front().LiteralCount()) {
        failures.push_back(name +
                           ": exact cover size != smallest Petrick cover");
      }
      if (exact.coverage < fundamental.max_coverage - 1e-12) {
        failures.push_back(name + ": exact cover misses max coverage");
      }
      std::vector<Verdict> verdicts =
          CampaignVerdicts(name + ".", c.campaign);
      verdicts.push_back({name + ".sopt",
                          core::RowSetName(c.campaign, selection.selected.rows),
                          0.0});
      verdicts.push_back(
          {name + ".sopt_wdet", "", selection.selected.avg_omega_det});
      verdicts.push_back({name + ".opamps",
                          util::Join(partial.opamps, ","), 0.0});
      verdicts.push_back({name + ".exact_size", "",
                          static_cast<double>(exact.rows.LiteralCount())});
      CheckPins("optimize-zoo", name + ".", verdicts, failures);
      verdicts_.insert(verdicts_.end(), verdicts.begin(), verdicts.end());
      checks.Job(failures);
    }
  }

  std::uint64_t seed_;
  std::vector<Circuit> circuits_;
  std::vector<Verdict> verdicts_;
};

/// service-mix: an in-process CampaignService (memory tier only, 2 workers,
/// fresh for every pass) under a closed loop of 2 clients submitting a
/// seeded request sequence over the <= 5-opamp zoo circuits x eps in
/// {0.06, 0.08, 0.10}.
class ServiceWorkload final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kTracedPasses = 3;

  explicit ServiceWorkload(std::uint64_t seed) : seed_(seed) {}

  void Setup() override {
    keys_.clear();
    requests_.clear();
    for (const circuits::ZooEntry& entry : circuits::Zoo()) {
      if (entry.build().opamps.size() > 5) continue;
      for (double eps : {0.06, 0.08, 0.10}) {
        keys_.push_back(MixKey{entry.name, eps});
        core::server::CampaignRequest request;
        request.circuit = entry.name;
        request.eps = eps;
        // A coarse grid (20 points/decade, 12 Monte-Carlo samples) keeps
        // a pass near one second, so a run holds many passes.
        request.ppd = 20;
        request.samples = 12;
        request.threads = 1;
        requests_.push_back(std::move(request));
      }
    }
  }

  void Pass(Checks& checks) override {
    const PassResult pass = RunPass();
    Check(pass, checks);
    if (passes_run_ == 1) return;  // the discarded warm-up pass
    for (const Record& r : pass.records) latencies_ms_.push_back(r.latency_ms);
    pass_walls_.push_back(pass.wall_s);
  }

  bool NeedsMorePasses() const override {
    return !pb::Percentile(latencies_ms_, 0.9).has_value();
  }

  double TracedPass(Checks& checks, Layers& layers) override {
    // Pool enough passes that every traced percentile has its tail samples
    // (p90 of all requests needs about 100).
    std::vector<PassResult> passes;
    const auto spans_before = util::trace::Capture();
    for (std::size_t i = 0; i < kTracedPasses; ++i) passes.push_back(RunPass());
    TraceFromSpans(util::trace::Delta(spans_before, util::trace::Capture()),
                   layers);
    double wall_s = 0.0;
    for (const PassResult& pass : passes) {
      Check(pass, checks);
      wall_s += pass.wall_s;
    }
    ServiceLayerMetrics(passes, wall_s, layers);
    // Report per-pass figures, comparable with the untraced wall_s.
    layers.Scale(1.0 / static_cast<double>(kTracedPasses));
    // The work counters come from the replica of one pass, which computes
    // every key once, as each pass does.
    CheckReplica(passes.front(), layers);
    return wall_s / static_cast<double>(kTracedPasses);
  }

  void PrintPins() const override { ::PrintPins("service-mix", verdicts_); }

  void Summary() const override {
    const auto p50 = pb::Percentile(latencies_ms_, 0.5);
    const auto p90 = pb::Percentile(latencies_ms_, 0.9);
    const double requests = static_cast<double>(RequestsPerPass());
    std::printf("service-mix: %.0f requests/pass, %zu samples, req_per_s %.3f, "
                "req_p50_ms %.3f, req_p90_ms %.3f\n",
                requests, latencies_ms_.size(),
                requests / pb::Median(pass_walls_),
                p50.value_or(NAN), p90.value_or(NAN));
  }

 private:
  /// Every key once, and as many repeats of earlier keys: about half the
  /// requests repeat a key.
  std::size_t RequestsPerPass() const { return 2 * keys_.size(); }

  struct Record {
    double latency_ms = 0.0;
    core::server::SubmitOutcome outcome;
  };
  struct PassResult {
    std::vector<std::size_t> sequence;  ///< key index of each request
    double wall_s = 0.0;
    std::vector<Record> records;
    std::uint64_t factor_hits = 0, factor_misses = 0;
  };

  /// Each pass (warm-up, timed, traced) submits its own seeded order, so a
  /// run's median pass averages over many orders of the same keys.
  PassResult RunPass() {
    PassResult pass;
    pass.sequence = pb::MakeRequestSequence(
        seed_ + 0x9e3779b97f4a7c15ull * passes_run_++, keys_.size(),
        RequestsPerPass() - keys_.size());
    const std::vector<std::size_t>& sequence = pass.sequence;
    core::server::ServiceOptions options;
    options.workers = kWorkers;
    options.cache.disk_dir.clear();  // memory tier only
    auto service = std::make_unique<core::server::CampaignService>(options);
    pass.records.resize(sequence.size());
    std::atomic<std::size_t> next{0};
    const double t0 = pb::WallNow();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= sequence.size()) return;
          const double a = pb::WallNow();
          try {
            pass.records[i].outcome = service->Submit(requests_[sequence[i]]);
          } catch (const std::exception& e) {
            pass.records[i].outcome.ok = false;
            pass.records[i].outcome.error = e.what();
          }
          pass.records[i].latency_ms = 1e3 * (pb::WallNow() - a);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    pass.wall_s = pb::WallNow() - t0;
    const util::json::Value stats = service->StatsJson();
    const util::json::Value& factor = stats.Get("factor_cache");
    pass.factor_hits =
        static_cast<std::uint64_t>(factor.Get("hits").AsDouble());
    pass.factor_misses =
        static_cast<std::uint64_t>(factor.Get("misses").AsDouble());
    // A daemon keeps one service for its lifetime; this benchmark builds
    // one per pass.  Hand the discarded service's heap back to the OS so
    // peak_rss_mb measures one pass, not allocator retention across passes.
    service.reset();
    malloc_trim(0);
    return pass;
  }

  std::string KeyName(std::size_t key) const {
    return keys_[key].circuit + "@" + util::FormatTrimmed(keys_[key].eps, 2);
  }

  void Check(const PassResult& pass, Checks& checks) {
    // The bytes each key computed; every hit must return exactly them.
    std::map<std::size_t, const std::string*> computed;
    std::map<std::size_t, std::size_t> compute_count;
    for (std::size_t i = 0; i < pass.records.size(); ++i) {
      const auto& out = pass.records[i].outcome;
      if (out.ok && out.cache_tier == "compute") {
        computed.emplace(pass.sequence[i], &out.report_json);
        ++compute_count[pass.sequence[i]];
      }
    }
    verdicts_.clear();
    for (const auto& [key, bytes] : computed) {
      const util::json::Value report = util::json::Parse(*bytes);
      const util::json::Value& campaign = report.Get("campaign");
      verdicts_.push_back({KeyName(key) + ".coverage", "",
                           campaign.Get("coverage").AsDouble()});
      verdicts_.push_back({KeyName(key) + ".wdet", "",
                           campaign.Get("average_omega_det").AsDouble()});
    }
    for (std::size_t i = 0; i < pass.records.size(); ++i) {
      const auto& out = pass.records[i].outcome;
      const std::size_t key = pass.sequence[i];
      const std::string label = "service-mix request " + std::to_string(i) +
                                " (" + KeyName(key) + ")";
      std::vector<std::string> failures;
      if (!out.ok || out.exit_code != 0 || out.quarantined_cells != 0) {
        failures.push_back(label + ": failed: " + out.error);
      } else if (out.cache_tier != "compute" && out.cache_tier != "memory" &&
                 out.cache_tier != "dedup") {
        failures.push_back(label + ": unexpected tier " + out.cache_tier);
      } else if (compute_count[key] != 1) {
        failures.push_back(label + ": key computed " +
                           std::to_string(compute_count[key]) + " times");
      } else if (out.report_json != *computed[key]) {
        failures.push_back(label + ": hit bytes differ from computed bytes");
      }
      // A key's verdicts belong to its computing request.  Requests carry
      // no Monte-Carlo seed, so the pins hold for every benchmark seed.
      if (out.ok && out.cache_tier == "compute") {
        CheckPins("service-mix", KeyName(key) + ".", verdicts_, failures);
      }
      checks.Job(failures);
    }
  }

  /// Layer busy times inside the service come from the spans the program
  /// already records (summed over the worker threads).
  void TraceFromSpans(const std::vector<util::trace::SpanStats>& spans,
                      Layers& layers) {
    const auto span_s = [&spans](std::string_view name) {
      for (const auto& s : spans) {
        if (s.name == name) return 1e-9 * static_cast<double>(s.total_wall_ns);
      }
      return 0.0;
    };
    const auto span_cpu_s = [&spans](std::string_view name) {
      for (const auto& s : spans) {
        if (s.name == name) return 1e-9 * static_cast<double>(s.total_cpu_ns);
      }
      return 0.0;
    };
    layers.threads = 1.0;  // requests run campaigns serially
    layers.concurrency = static_cast<double>(kWorkers);
    layers.band_s = span_s("campaign.resolve_band");
    layers.envelope_s = span_s("campaign.prepare");
    // Span CPU is process CPU, which counts every busy worker.
    layers.envelope_cpu_s = span_cpu_s("campaign.prepare") / kWorkers;
    layers.simulate_s = span_s("campaign.simulate");
    layers.simulate_cpu_s = span_cpu_s("campaign.simulate") / kWorkers;
    layers.score_s = span_s("campaign.assemble");
  }

  void ServiceLayerMetrics(const std::vector<PassResult>& passes,
                           double wall_s, Layers& layers) const {
    std::vector<double> all, compute, hit, queue_wait;
    std::size_t memory_hits = 0, dedups = 0, computes = 0;
    std::uint64_t factor_hits = 0, factor_misses = 0;
    for (const PassResult& pass : passes) {
      factor_hits += pass.factor_hits;
      factor_misses += pass.factor_misses;
      for (const Record& r : pass.records) {
        all.push_back(r.latency_ms);
        const std::string& tier = r.outcome.cache_tier;
        if (tier == "memory") {
          ++memory_hits;
          hit.push_back(r.latency_ms);
        } else if (tier == "dedup") {
          ++dedups;
        } else if (tier == "compute") {
          ++computes;
          compute.push_back(r.latency_ms);
          // The report's run time starts when a worker picks the job up.
          // (Its server.request phase row is a process-wide span delta and
          // also counts the other worker's requests that ended meanwhile.)
          const double run_s = util::json::Parse(r.outcome.report_json)
                                   .Get("timing")
                                   .Get("wall_s")
                                   .AsDouble();
          queue_wait.push_back(r.latency_ms - 1e3 * run_s);
        }
      }
    }
    const double n = static_cast<double>(all.size());
    const auto p = [](const std::vector<double>& v, double q) {
      const auto value = pb::Percentile(v, q);
      if (!value) {
        std::fprintf(stderr, "note: a traced percentile is missing\n");
      }
      return value.value_or(0.0);
    };
    layers.service = {
        {"service.req_per_s", n / wall_s},
        {"service.req_p50_ms", p(all, 0.5)},
        {"service.req_p90_ms", p(all, 0.9)},
        {"service.compute_ms_p50", p(compute, 0.5)},
        {"service.hit_ms_p50", p(hit, 0.5)},
        {"service.queue_wait_ms_p50", p(queue_wait, 0.5)},
        {"cache.hit_frac", static_cast<double>(memory_hits) / n},
        {"cache.dedup_frac", static_cast<double>(dedups) / n},
        {"service.computed", static_cast<double>(computes)},
        {"factor_cache.hit_frac",
         factor_hits + factor_misses == 0
             ? 0.0
             : static_cast<double>(factor_hits) /
                   static_cast<double>(factor_hits + factor_misses)},
    };
  }

  /// Every key the traced pass computed, rebuilt exactly as the service
  /// builds it, must come out of the layered replica identical to
  /// RunCampaign, and with the coverage the service reported.  The
  /// replica's envelope, simulate and score work counters go into `layers`:
  /// read around each phase, they count only that layer's work, which the
  /// service's concurrent workers cannot separate.  (The service's shared
  /// factor cache changes where a full factorization comes from, not how
  /// many there are.)
  void CheckReplica(const PassResult& pass, Layers& layers) const {
    Layers replica_layers;
    std::set<std::size_t> done;
    for (std::size_t i = 0; i < pass.records.size(); ++i) {
      const auto& out = pass.records[i].outcome;
      if (out.cache_tier != "compute" ||
          !done.insert(pass.sequence[i]).second) {
        continue;
      }
      const core::server::CampaignJob job =
          core::server::BuildCampaignJob(requests_[pass.sequence[i]]);
      const core::CampaignResult replica =
          LayeredCampaign(job.circuit, job.fault_list, job.configs,
                          job.options, replica_layers);
      const core::CampaignResult reference = core::RunCampaign(
          job.circuit, job.fault_list, job.configs, job.options);
      RequireSameCampaign(replica, reference, job.circuit_name);
      const double reported = util::json::Parse(out.report_json)
                                  .Get("campaign")
                                  .Get("coverage")
                                  .AsDouble();
      if (std::fabs(reported - replica.Coverage()) > 1e-12) {
        std::fprintf(stderr,
                     "fidelity check failed: service coverage of %s differs "
                     "from the layered replica\n",
                     job.circuit_name.c_str());
        std::exit(1);
      }
    }
    layers.envelope_samples = replica_layers.envelope_samples;
    layers.worker_idle_s = replica_layers.worker_idle_s;
    layers.join_wait_s = replica_layers.join_wait_s;
    layers.screened_cells = replica_layers.screened_cells;
    layers.mna_solves = replica_layers.mna_solves;
    layers.smw_updates = replica_layers.smw_updates;
    layers.exact_fallbacks = replica_layers.exact_fallbacks;
    layers.transient_steps = replica_layers.transient_steps;
    layers.full_factors = replica_layers.full_factors;
    layers.refactors = replica_layers.refactors;
    layers.score_cells = replica_layers.score_cells;
  }

  std::uint64_t seed_;
  /// One request key: a zoo circuit at one tester accuracy.
  struct MixKey {
    std::string circuit;
    double eps = 0.08;
  };

  std::vector<MixKey> keys_;
  std::vector<core::server::CampaignRequest> requests_;
  std::size_t passes_run_ = 0;
  std::vector<double> latencies_ms_;
  std::vector<double> pass_walls_;
  std::vector<Verdict> verdicts_;
};

// --- Driver ----------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "analyze-full|optimize-zoo|transient-full|service-mix\n"
               "                        [--seed N] [--seconds S] "
               "[--trace 0|1] [--print-pins]\n");
  return 2;
}

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-pins") {
      args.print_pins = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 0);
      if (end == value || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return std::nullopt;
      }
      args.trace = value[0] == '1';
    } else {
      return std::nullopt;
    }
  }
  const auto& names = pb::WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return std::nullopt;
  }
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "analyze-full") {
    return std::make_unique<AnalyzeWorkload>(args.workload, "ac", args.seed);
  }
  if (args.workload == "transient-full") {
    return std::make_unique<AnalyzeWorkload>(args.workload, "transient",
                                             args.seed);
  }
  if (args.workload == "optimize-zoo") {
    return std::make_unique<OptimizeWorkload>(args.seed);
  }
  return std::make_unique<ServiceWorkload>(args.seed);
}

void PrintResult(const Checks& checks,
                 const std::map<std::string, double>& values,
                 const std::vector<pb::MetricSpec>& specs) {
  std::string json = "{\"correct\": ";
  json += checks.Failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checks.Attempted());
  json += ", \"failed\": " + std::to_string(checks.Failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args);
  const double run_start = pb::WallNow();

  // Set-up is building the workload's inputs, so work moved out of the
  // timed pass into it shows up.  It is repeated and reported as the
  // median, so one cold build does not set the figure.  The discarded
  // warm-up pass that follows (pool threads, caches, page faults) is not
  // part of it: its cold cost varies too much between processes.
  std::vector<double> setups;
  const double setup_start = pb::WallNow();
  do {
    const double t0 = pb::WallNow();
    workload->Setup();
    setups.push_back(pb::WallNow() - t0);
  } while (setups.size() < kSetupRepeats ||
           pb::WallNow() - setup_start < kSetupMinS);
  const double setup_s = pb::Median(setups);
  Checks checks;
  workload->Pass(checks);
  if (args.print_pins) {
    workload->PrintPins();
    return 0;
  }

  // Timed passes: at least one, then until --seconds elapsed (and the
  // workload has the samples its tail metrics need).  A traced run spends
  // half its time here, for the tracing-overhead reference.  Memory is the
  // median of the passes' peak resident sets, each pass's peak window
  // opened just before it (process peak where the kernel cannot reset).
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  std::vector<double> walls;
  std::vector<double> peaks_mb;
  const double timed_start = pb::WallNow();
  do {
    pb::ResetPeakRss();
    const double t0 = pb::WallNow();
    workload->Pass(checks);
    walls.push_back(pb::WallNow() - t0);
    peaks_mb.push_back(pb::PeakRssMb());
  } while ((pb::WallNow() - timed_start < budget ||
            workload->NeedsMorePasses()) &&
           pb::WallNow() - run_start < kPassBudgetS);
  const double wall_s = pb::Median(walls);

  if (!args.trace) {
    workload->Summary();
    std::printf("%s: setup_s %.4f, wall_s %.4f over %zu passes, %zu/%zu "
                "jobs failed\n",
                args.workload.c_str(), setup_s, wall_s, walls.size(),
                checks.Failed(), checks.Attempted());
    PrintResult(checks,
                {{"setup_s", setup_s},
                 {"wall_s", wall_s},
                 {"peak_rss_mb", pb::Median(peaks_mb)}},
                pb::EndToEndMetrics());
    return 0;
  }

  Layers layers;
  double traced_wall = 0.0;
  {
    const metrics::ScopedEnable on;
    traced_wall = workload->TracedPass(checks, layers);
  }
  const std::map<std::string, double> per_layer =
      layers.Finish(traced_wall, wall_s);
  for (const auto& [name, value] : per_layer) {
    std::printf("  %-30s %.6g\n", name.c_str(), value);
  }
  PrintResult(checks, per_layer, pb::PerLayerMetrics());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) return Usage();
  try {
    return Run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
