#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>
#include <unordered_set>

#include "util/faultpoint.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace mcdft::core {

namespace metrics = util::metrics;

std::string_view CampaignAnalysisName(CampaignAnalysis analysis) {
  switch (analysis) {
    case CampaignAnalysis::kAc: return "ac";
    case CampaignAnalysis::kTransient: return "transient";
  }
  return "ac";
}

std::optional<CampaignAnalysis> ParseCampaignAnalysis(std::string_view name) {
  if (name == "ac") return CampaignAnalysis::kAc;
  if (name == "transient") return CampaignAnalysis::kTransient;
  return std::nullopt;
}

double ConfigResult::AverageOmegaDet() const {
  return testability::AverageOmegaDetectability(faults);
}

std::size_t ConfigResult::QuarantinedCellCount() const {
  std::size_t n = 0;
  for (const auto& f : faults) n += f.quarantined_points;
  return n;
}

CampaignResult::CampaignResult(std::vector<faults::Fault> fault_list,
                               std::vector<ConfigResult> per_config,
                               testability::ReferenceBand band)
    : faults_(std::move(fault_list)),
      per_config_(std::move(per_config)),
      band_(band) {
  if (per_config_.empty()) {
    throw util::AnalysisError("campaign with zero configurations");
  }
  for (const auto& cr : per_config_) {
    if (cr.faults.size() != faults_.size()) {
      throw util::AnalysisError("campaign configuration rows are ragged");
    }
    for (std::size_t j = 0; j < faults_.size(); ++j) {
      if (!(cr.faults[j].fault == faults_[j])) {
        throw util::AnalysisError("campaign row " + cr.config.Name() +
                                  " does not list the faults in campaign "
                                  "order");
      }
    }
  }
  row_of_.reserve(per_config_.size());
  for (std::size_t i = 0; i < per_config_.size(); ++i) {
    row_of_.emplace(per_config_[i].config.Index(), i);  // first wins, as before
  }
}

std::vector<std::vector<bool>> CampaignResult::DetectabilityMatrix() const {
  std::vector<std::vector<bool>> m(ConfigCount(),
                                   std::vector<bool>(FaultCount(), false));
  for (std::size_t i = 0; i < ConfigCount(); ++i) {
    for (std::size_t j = 0; j < FaultCount(); ++j) {
      m[i][j] = per_config_[i].faults[j].detectable;
    }
  }
  return m;
}

std::vector<std::vector<double>> CampaignResult::OmegaTable() const {
  std::vector<std::vector<double>> m(ConfigCount(),
                                     std::vector<double>(FaultCount(), 0.0));
  for (std::size_t i = 0; i < ConfigCount(); ++i) {
    for (std::size_t j = 0; j < FaultCount(); ++j) {
      m[i][j] = per_config_[i].faults[j].omega_detectability;
    }
  }
  return m;
}

namespace {

/// Calls `visit` with each fault's best-case entry over `rows` (empty = all
/// rows), in fault order: the first listed row with the strictly highest
/// omega-detectability, BestCasePerFault's rule, read in place.
template <typename Visit>
void ForEachBestCase(const std::vector<ConfigResult>& per_config,
                     std::size_t fault_count,
                     const std::vector<std::size_t>& rows, Visit&& visit) {
  for (std::size_t r : rows) {
    if (r >= per_config.size()) {
      throw util::OptimizationError("campaign row " + std::to_string(r) +
                                    " out of range");
    }
  }
  const std::size_t n = rows.empty() ? per_config.size() : rows.size();
  const auto row = [&](std::size_t i) -> const ConfigResult& {
    return per_config[rows.empty() ? i : rows[i]];
  };
  for (std::size_t j = 0; j < fault_count; ++j) {
    const testability::FaultDetectability* best = &row(0).faults[j];
    for (std::size_t i = 1; i < n; ++i) {
      const testability::FaultDetectability& d = row(i).faults[j];
      if (d.omega_detectability > best->omega_detectability) best = &d;
    }
    visit(*best);
  }
}

}  // namespace

std::vector<testability::FaultDetectability> CampaignResult::BestCase(
    const std::vector<std::size_t>& rows) const {
  std::vector<testability::FaultDetectability> best;
  best.reserve(faults_.size());
  ForEachBestCase(per_config_, faults_.size(), rows,
                  [&](const testability::FaultDetectability& d) {
                    best.push_back(d);
                  });
  return best;
}

double CampaignResult::Coverage(const std::vector<std::size_t>& rows) const {
  std::size_t detected = 0;
  ForEachBestCase(per_config_, faults_.size(), rows,
                  [&](const testability::FaultDetectability& d) {
                    if (d.detectable) ++detected;
                  });
  if (faults_.empty()) {
    throw util::AnalysisError("fault coverage of an empty fault list");
  }
  return static_cast<double>(detected) / static_cast<double>(faults_.size());
}

double CampaignResult::AverageOmegaDet(
    const std::vector<std::size_t>& rows) const {
  double acc = 0.0;
  ForEachBestCase(per_config_, faults_.size(), rows,
                  [&](const testability::FaultDetectability& d) {
                    acc += d.omega_detectability;
                  });
  if (faults_.empty()) {
    throw util::AnalysisError("omega-detectability of an empty fault list");
  }
  return acc / static_cast<double>(faults_.size());
}

std::size_t CampaignResult::QuarantinedCellCount() const {
  std::size_t n = 0;
  for (const auto& cr : per_config_) n += cr.QuarantinedCellCount();
  return n;
}

std::size_t CampaignResult::RowOf(const ConfigVector& cv) const {
  const auto it = row_of_.find(cv.Index());
  if (it != row_of_.end() && per_config_[it->second].config == cv) {
    return it->second;
  }
  throw util::OptimizationError("configuration " + cv.Name() +
                                " was not simulated in this campaign");
}

namespace {

testability::ReferenceBand ResolveBand(DftCircuit& work,
                                       const CampaignOptions& options) {
  double anchor;
  if (options.anchor_hz) {
    anchor = *options.anchor_hz;
  } else {
    // Estimate from the functional configuration's fault-free response on a
    // wide exploratory sweep (6 decades around 1 kHz, then refined around
    // the found passband).
    ScopedConfiguration functional(
        work, ConfigVector(work.ConfigurableOpamps().size()));
    spice::AcAnalyzer analyzer(work.Circuit(), options.mna);
    spice::Probe probe{work.Circuit().FindNode(work.OutputNode()),
                       spice::kGround, "v(out)"};
    const auto wide = spice::SweepSpec::Decade(1e-1, 1e8, 10);
    anchor = testability::EstimateAnchorFrequency(analyzer.Run(wide, probe));
  }
  return testability::ReferenceBand::Around(anchor, options.decades_below,
                                            options.decades_above,
                                            options.points_per_decade);
}

}  // namespace

CampaignFrame BuildCampaignFrame(DftCircuit& work,
                                 const std::vector<faults::Fault>& fault_list,
                                 const CampaignOptions& options) {
  if (fault_list.empty()) {
    throw util::AnalysisError("campaign needs a non-empty fault list");
  }
  if (options.tolerance && !options.criteria.envelope.empty()) {
    throw util::AnalysisError(
        "criteria.envelope must be empty when a tolerance model is set");
  }
  testability::ReferenceBand band = [&] {
    util::trace::Span span("campaign.resolve_band");
    return ResolveBand(work, options);
  }();
  spice::SweepSpec sweep = band.MakeSweep();
  spice::Probe probe{work.Circuit().FindNode(work.OutputNode()),
                     spice::kGround, "v(" + work.OutputNode() + ")"};
  std::vector<std::string> sites;
  if (options.tolerance) {
    std::unordered_set<std::string> seen;
    for (const auto& f : fault_list) {
      if (seen.insert(f.Device()).second) sites.push_back(f.Device());
    }
  }
  CampaignFrame frame{band, std::move(sweep), std::move(probe),
                      std::move(sites), std::nullopt};
  if (options.analysis == CampaignAnalysis::kTransient) {
    if (options.transient_steps == 0) {
      throw util::AnalysisError("transient campaign needs >= 1 step");
    }
    spice::TransientSpec spec;
    spec.steps = options.transient_steps;
    if (options.transient_t_end_s > 0.0) {
      spec.t_end_s = options.transient_t_end_s;
    } else {
      // Auto window: ~eight dominant time constants around the band's
      // geometric centre, so both fast settling and slow tails of the
      // step response are inside the comparison window.
      const double f0 = std::sqrt(band.FLow() * band.FHigh());
      spec.t_end_s = 8.0 / f0;
    }
    spec.Times();  // validate (finite positive window)
    frame.transient = spec;
  }
  return frame;
}

namespace {

/// The criteria every configuration shares: epsilon and the floor, in the
/// time domain for transient campaigns.
testability::DetectionCriteria BaseCriteria(const CampaignOptions& options) {
  testability::DetectionCriteria base = options.criteria;
  // Time-domain cells compare step-response envelopes against a flat
  // epsilon: the Monte-Carlo tolerance envelope is a per-*frequency*
  // artifact and does not transfer to the time grid.
  if (options.analysis == CampaignAnalysis::kTransient) {
    base.time_domain = true;
  }
  return base;
}

bool HasEnvelope(const CampaignOptions& options) {
  return options.analysis == CampaignAnalysis::kAc &&
         options.tolerance.has_value();
}

}  // namespace

std::vector<std::optional<testability::DetectionCriteria>>
PrepareCampaignCriteria(DftCircuit& work, const CampaignFrame& frame,
                        const std::vector<ConfigVector>& configs,
                        const CampaignOptions& options) {
  for (const ConfigVector& cv : configs) work.CheckConfiguration(cv);
  const testability::DetectionCriteria base = BaseCriteria(options);
  if (!HasEnvelope(options)) {
    return std::vector<std::optional<testability::DetectionCriteria>>(
        configs.size(), base);
  }
  std::vector<testability::FollowerSet> follower_sets;
  follower_sets.reserve(configs.size());
  for (const ConfigVector& cv : configs) {
    follower_sets.push_back(cv.FollowerPositions());
  }
  std::vector<std::vector<double>> envelopes =
      testability::ComputeSharedToleranceEnvelopes(
          work.Circuit(), frame.sweep, frame.probe, frame.tolerance_sites,
          work.ConfigurableOpamps(), follower_sets, *options.tolerance,
          base.relative_floor, options.mna, options.threads, options.cancel);
  std::vector<std::optional<testability::DetectionCriteria>> out(
      configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (envelopes[i].empty()) continue;  // the per-configuration fallback
    out[i] = base;
    out[i]->envelope = std::move(envelopes[i]);
  }
  return out;
}

namespace {

/// Snapshot `cv`'s configured netlist with `criteria`, or with the
/// per-configuration envelope sweep of that netlist when `criteria` is
/// nullopt (the shared pass's guard fallback).
PreparedConfig PrepareConfigured(
    DftCircuit& work, const CampaignFrame& frame, const ConfigVector& cv,
    std::optional<testability::DetectionCriteria> criteria,
    const CampaignOptions& options) {
  ScopedConfiguration sc(work, cv);
  if (criteria) {
    return PreparedConfig{work.Circuit().Clone(), std::move(*criteria)};
  }
  testability::DetectionCriteria fallback = BaseCriteria(options);
  if (HasEnvelope(options)) {
    fallback.envelope = testability::ComputeToleranceEnvelope(
        work.Circuit(), frame.sweep, frame.probe, frame.tolerance_sites,
        *options.tolerance, fallback.relative_floor, options.mna,
        options.threads);
  }
  return PreparedConfig{work.Circuit().Clone(), std::move(fallback)};
}

}  // namespace

PreparedConfig PrepareCampaignConfig(DftCircuit& work,
                                     const CampaignFrame& frame,
                                     const ConfigVector& cv,
                                     const CampaignOptions& options) {
  return PrepareConfigured(
      work, frame, cv, PrepareCampaignCriteria(work, frame, {cv}, options)[0],
      options);
}

ConfigResult AssembleConfigRow(const ConfigVector& cv,
                               const testability::DetectionCriteria& criteria,
                               std::vector<spice::FrequencyResponse> responses,
                               const std::vector<faults::Fault>& fault_list,
                               std::size_t fault_begin,
                               std::size_t fault_end) {
  if (fault_end > fault_list.size() || fault_begin > fault_end ||
      responses.size() != 1 + (fault_end - fault_begin)) {
    throw util::AnalysisError("config row assembly out of range");
  }
  ConfigResult row{cv, {}, std::move(responses[0]), {}};
  row.faults.reserve(fault_end - fault_begin);
  std::size_t quarantined_cells = 0;
  if (fault_begin < fault_end) {
    // The nominal's magnitudes, denominators and weights, once per row.
    const testability::ScoringReference reference(row.nominal, criteria);
    for (std::size_t j = fault_begin; j < fault_end; ++j) {
      row.faults.push_back(testability::AnalyzeFault(
          fault_list[j], reference, responses[1 + j - fault_begin]));
      quarantined_cells += row.faults.back().quarantined_points;
    }
  }
  // Cell accounting for run reports and the CLI exit code: a cell is one
  // (config, fault, omega) verdict; quarantined cells were excluded from
  // the verdict by the documented counted-undetected convention.
  metrics::GetCounter("campaign.cells.total")
      .Add((fault_end - fault_begin) * row.nominal.PointCount());
  if (quarantined_cells > 0) {
    metrics::GetCounter("campaign.cells.quarantined").Add(quarantined_cells);
  }
  row.threshold.resize(row.nominal.PointCount());
  for (std::size_t i = 0; i < row.threshold.size(); ++i) {
    row.threshold[i] = criteria.ThresholdAt(i);
  }
  row.relative_floor = criteria.relative_floor;
  return row;
}

std::optional<faults::FaultDeltaTable> BuildSharedFaultDeltas(
    const DftCircuit& work, const CampaignFrame& frame,
    const std::vector<faults::Fault>& fault_list,
    const CampaignOptions& options) {
  static metrics::Counter& shared_deltas =
      metrics::GetCounter("faults.sim.shared_deltas");
  if (options.analysis != CampaignAnalysis::kAc) return std::nullopt;
  util::trace::Span span("campaign.fault_deltas");
  const spice::Netlist& netlist = work.Circuit();
  std::vector<const spice::Element*> configurable;
  for (const std::string& name : work.ConfigurableOpamps()) {
    configurable.push_back(netlist.FindElement(name));
  }
  std::vector<bool> shareable(fault_list.size());
  for (std::size_t j = 0; j < fault_list.size(); ++j) {
    const spice::Element* e = netlist.FindElement(fault_list[j].Device());
    shareable[j] = e != nullptr && std::find(configurable.begin(),
                                             configurable.end(),
                                             e) == configurable.end();
  }
  faults::FaultDeltaTable table(netlist, frame.sweep.Frequencies(),
                                fault_list, shareable);
  shared_deltas.Add(table.EntryCount());
  return table;
}

faults::SensitivityScreenSpec MakeSensitivityScreenSpec(
    const testability::DetectionCriteria& criteria, std::size_t points,
    const CampaignOptions& /*options*/) {
  faults::SensitivityScreenSpec spec;
  spec.relative_floor = criteria.relative_floor;
  spec.threshold.resize(points);
  for (std::size_t i = 0; i < points; ++i) {
    spec.threshold[i] = criteria.ThresholdAt(i);
  }
  return spec;
}

CampaignOptions MakePaperCampaignOptions() {
  CampaignOptions options;
  options.criteria.epsilon = 0.08;
  options.criteria.relative_floor = 0.25;
  options.tolerance = testability::ToleranceModel{};  // 3 %, 48 samples
  options.decades_below = 2.0;
  options.decades_above = 2.0;
  options.points_per_decade = 50;
  return options;
}

namespace {

// The unit's cells, in AssembleConfigRow's slot layout (nominal, then the
// faults of [fault_begin, fault_end)).  Every cell is a pure function of
// (configured netlist values, grid), so both paths below give the same
// bytes at any thread count and for any split of the fault range.
std::vector<spice::FrequencyResponse> SimulateUnit(
    const PreparedConfig& prepared, const CampaignFrame& frame,
    const std::vector<faults::Fault>& fault_list, std::size_t fault_begin,
    std::size_t fault_end, const CampaignOptions& options,
    const faults::FaultDeltaTable* deltas) {
  faults::FaultSimulator simulator(prepared.netlist, frame.sweep, frame.probe,
                                   options.mna);
  if (options.analysis == CampaignAnalysis::kTransient) {
    // Fault-major trajectory marches, parallel over the unit's faults.
    return simulator.SimulateTransientRange(fault_list, fault_begin,
                                            fault_end, options.threads,
                                            *frame.transient);
  }
  // Frequency-major: the nominal system is factored once per frequency and
  // the unit's faults apply as SMW rank-updates against it, parallel over
  // frequency blocks, with their stamp deltas read from the campaign's
  // shared table where it covers them.  A unit always spans the whole
  // grid, so the sensitivity screen's per-cell verdicts are
  // partition-invariant too.
  std::optional<faults::SensitivityScreenSpec> screen;
  if (spice::SensitivityScreenEnabled(options.mna)) {
    screen = MakeSensitivityScreenSpec(
        prepared.criteria, frame.sweep.Frequencies().size(), options);
  }
  return simulator.SimulateRange(fault_list, fault_begin, fault_end,
                                 options.threads,
                                 screen ? &*screen : nullptr, deltas);
}

}  // namespace

ConfigResult RunCampaignUnit(
    DftCircuit& work, const CampaignFrame& frame, const ConfigVector& cv,
    std::optional<testability::DetectionCriteria> criteria,
    const std::vector<faults::Fault>& fault_list, std::size_t fault_begin,
    std::size_t fault_end, const CampaignOptions& options,
    const faults::FaultDeltaTable* deltas) {
  // Unit boundary: an optional deterministic stall (tests arm
  // `campaign.unit.stall` to slow units down and cancel mid-run; its
  // evaluation count doubles as a progress probe), then the cooperative
  // cancellation poll.
  if (util::faultpoint::ShouldFail("campaign.unit.stall")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  if (options.cancel != nullptr) options.cancel->ThrowIfCancelled();

  const PreparedConfig prepared = [&] {
    util::trace::Span span("campaign.prepare");
    return PrepareConfigured(work, frame, cv, std::move(criteria), options);
  }();
  std::vector<spice::FrequencyResponse> responses = [&] {
    util::trace::Span span("campaign.simulate");
    return SimulateUnit(prepared, frame, fault_list, fault_begin, fault_end,
                        options, deltas);
  }();
  util::trace::Span span("campaign.assemble");
  return AssembleConfigRow(cv, prepared.criteria, std::move(responses),
                           fault_list, fault_begin, fault_end);
}

namespace {

/// Whole units per worker: each worker owns a clone of the circuit, claims
/// the next configuration index from a shared counter and runs that unit
/// serially, storing the row by index.  Units run at threads = 1: the
/// caller runs worker 0 itself and is not a pool worker, so a parallel
/// section nested in its units would queue behind the other workers'
/// whole-campaign tasks.  After a unit throws no worker claims a new one;
/// every unit below it was already claimed and runs to its end, so the
/// lowest-index failure rethrown here is the one the serial loop would
/// have thrown first.  Every row is a pure function of its unit, so the
/// claim order never reaches the bytes.
std::vector<ConfigResult> RunUnitsPerWorker(
    const DftCircuit& work, const CampaignFrame& frame,
    const std::vector<faults::Fault>& fault_list,
    const std::vector<ConfigVector>& configs,
    std::vector<std::optional<testability::DetectionCriteria>>& criteria,
    const faults::FaultDeltaTable* deltas, const CampaignOptions& options,
    std::size_t threads) {
  CampaignOptions unit_options = options;
  unit_options.threads = 1;
  std::vector<DftCircuit> clones;
  clones.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) clones.push_back(work.Clone());

  std::vector<std::optional<ConfigResult>> rows(configs.size());
  std::vector<std::exception_ptr> errors(configs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  util::ParallelForRange(threads, threads, [&](std::size_t worker,
                                               std::size_t) {
    DftCircuit& local = clones[worker];
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      try {
        rows[i] = RunCampaignUnit(local, frame, configs[i],
                                  std::move(criteria[i]),
                                  fault_list, 0, fault_list.size(),
                                  unit_options, deltas);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::vector<ConfigResult> out;
  out.reserve(rows.size());
  for (std::optional<ConfigResult>& row : rows) out.push_back(std::move(*row));
  return out;
}

}  // namespace

CampaignResult RunCampaign(const DftCircuit& circuit,
                           const std::vector<faults::Fault>& fault_list,
                           const std::vector<ConfigVector>& configs,
                           const CampaignOptions& options) {
  if (configs.empty()) {
    throw util::AnalysisError("campaign needs at least one configuration");
  }
  metrics::GetCounter("core.campaign.runs").Add();
  metrics::GetCounter("core.campaign.configs").Add(configs.size());
  metrics::GetCounter("core.campaign.faults")
      .Add(configs.size() * fault_list.size());
  metrics::GetGauge("core.campaign.threads")
      .Set(static_cast<std::int64_t>(util::ResolveThreadCount(options.threads)));
  util::trace::Span run_span("campaign");

  DftCircuit work = circuit.Clone();
  const CampaignFrame frame = BuildCampaignFrame(work, fault_list, options);
  std::vector<std::optional<testability::DetectionCriteria>> criteria =
      [&] {
        util::trace::Span span("campaign.prepare");
        return PrepareCampaignCriteria(work, frame, configs, options);
      }();
  const std::optional<faults::FaultDeltaTable> deltas =
      BuildSharedFaultDeltas(work, frame, fault_list, options);
  const faults::FaultDeltaTable* shared = deltas ? &*deltas : nullptr;
  const std::size_t threads = util::ResolveThreadCount(options.threads);
  std::vector<ConfigResult> per_config;
  if (configs.size() >= threads) {
    per_config = RunUnitsPerWorker(work, frame, fault_list, configs, criteria,
                                   shared, options, threads);
  } else {
    // Fewer units than threads: units run one after another and each
    // parallelizes inside (frequency blocks, transient faults).
    per_config.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      per_config.push_back(RunCampaignUnit(work, frame, configs[i],
                                           std::move(criteria[i]),
                                           fault_list, 0,
                                           fault_list.size(), options,
                                           shared));
    }
  }
  return CampaignResult(fault_list, std::move(per_config), frame.band);
}

CampaignResult AnalyzeFunctionalOnly(const DftCircuit& circuit,
                                     const std::vector<faults::Fault>& fault_list,
                                     const CampaignOptions& options) {
  return RunCampaign(circuit, fault_list,
                     {ConfigVector(circuit.ConfigurableOpamps().size())},
                     options);
}

}  // namespace mcdft::core
