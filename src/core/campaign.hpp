// The multi-configuration fault-simulation campaign: evaluate every fault
// in every candidate test configuration, producing the fault detectability
// matrix (paper Fig. 5) and the omega-detectability table (Table 2).
#pragma once

#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/dft_transform.hpp"
#include "faults/delta_table.hpp"
#include "faults/sensitivity_screen.hpp"
#include "spice/transient_analysis.hpp"
#include "testability/metrics.hpp"
#include "testability/tolerance.hpp"
#include "util/cancel.hpp"

namespace mcdft::core {

/// Which analysis a campaign's (configuration, fault) cells run.
enum class CampaignAnalysis {
  kAc,         ///< AC sweeps over the reference band (the paper's path)
  kTransient,  ///< trapezoidal step-response trajectories (catastrophic
               ///< faults show up as envelope deviations in time)
};

/// Stable lowercase name used by the content hash, shard manifests, run
/// reports and the CLI: "ac" / "transient".
std::string_view CampaignAnalysisName(CampaignAnalysis analysis);

/// Inverse of CampaignAnalysisName; nullopt for unknown names.
std::optional<CampaignAnalysis> ParseCampaignAnalysis(std::string_view name);

/// Campaign options.
struct CampaignOptions {
  testability::DetectionCriteria criteria;  ///< epsilon etc. (Def. 1)

  /// When set, a Monte-Carlo process-tolerance envelope is computed for
  /// every configuration (over the fault-site components) and added to the
  /// detection threshold — the realistic reading of the paper's epsilon.
  /// AC campaigns compute every configuration's envelope in one shared pass
  /// over the functional configuration (PrepareCampaignCriteria).
  /// criteria.envelope must then be empty (it is filled per configuration).
  std::optional<testability::ToleranceModel> tolerance;

  /// Reference band shape (Def. 2): decades below/above the anchor and the
  /// sampling density.
  double decades_below = 2.0;
  double decades_above = 2.0;
  std::size_t points_per_decade = 50;

  /// Band anchor frequency (Hz).  Unset = estimate from the functional
  /// configuration's fault-free response (its -3 dB passband centre).
  std::optional<double> anchor_hz;

  /// Analysis kind of the campaign cells.  kTransient runs the same
  /// (configuration, fault) matrix through step-response trajectories:
  /// detectability becomes the envelope-deviation measure over the
  /// response window (DetectionCriteria::time_domain) and the Monte-Carlo
  /// tolerance envelope is skipped (thresholds are flat epsilon).
  CampaignAnalysis analysis = CampaignAnalysis::kAc;

  /// Transient window length in seconds; 0 = auto-derive 8 / f0 from the
  /// resolved reference band's geometric centre f0 = sqrt(f_lo * f_hi)
  /// (about eight dominant time constants of step response).  Ignored for
  /// AC campaigns.
  double transient_t_end_s = 0.0;

  /// Transient step count (uniform trapezoidal grid).  Ignored for AC.
  std::size_t transient_steps = 256;

  spice::MnaOptions mna;

  /// Worker threads.  0 = MCDFT_THREADS env var, else the hardware thread
  /// count; 1 = serial.  The shared envelope pass splits its Monte-Carlo
  /// samples over the threads.  RunCampaign then hands whole configuration
  /// units to the workers when there are at least as many configurations
  /// as threads; with fewer, units run in turn and parallelize inside
  /// (frequency blocks, transient faults).  Results are bit-identical for
  /// any value (every cell is a pure function of its unit; static
  /// partitioning + ordered reductions inside a unit).
  std::size_t threads = 0;

  /// Cooperative cancellation (non-owning; nullptr = never cancelled).
  /// The shared envelope pass polls the token before every sample sweep,
  /// and RunCampaignUnit at the start of every unit (one configuration of
  /// RunCampaign, one shard unit of RunCampaignShard); either aborts with
  /// util::CancelError when it fires — so a cancelled or deadline-expired
  /// request stops computing within one sweep or unit per worker.
  /// Deliberately excluded from CampaignContentHash: cancellation
  /// truncates work, it never changes a completed campaign's bytes.
  const util::CancelToken* cancel = nullptr;
};

/// Per-configuration fault analysis.
struct ConfigResult {
  ConfigVector config;
  std::vector<testability::FaultDetectability> faults;  ///< per fault, in order

  /// Fault-free response of this configuration on the campaign grid
  /// (empty for synthetic campaigns built from bare matrices).
  spice::FrequencyResponse nominal;

  /// Detection threshold at each grid point (epsilon + envelope), aligned
  /// with `nominal`; empty for synthetic campaigns.
  std::vector<double> threshold;

  /// Deviation-normalization floor the thresholds were applied against
  /// (criteria.relative_floor at campaign time).
  double relative_floor = 0.25;

  /// Average omega-detectability over the fault list in this configuration.
  double AverageOmegaDet() const;

  /// Total quarantined (fault, omega) cells in this configuration row —
  /// grid points the resilient simulator excluded from the verdicts after
  /// exhausting the retry ladder (counted undetected by convention).
  std::size_t QuarantinedCellCount() const;
};

/// Full campaign result: everything Sections 3-4 need.
class CampaignResult {
 public:
  /// Throws AnalysisError when there are no rows, or when a row does not
  /// list exactly `fault_list`, in order (checked once, here, so the
  /// best-case queries below can compare rows cell by cell).
  CampaignResult(std::vector<faults::Fault> fault_list,
                 std::vector<ConfigResult> per_config,
                 testability::ReferenceBand band);

  const std::vector<faults::Fault>& Faults() const { return faults_; }
  const std::vector<ConfigResult>& PerConfig() const { return per_config_; }
  const testability::ReferenceBand& Band() const { return band_; }

  std::size_t ConfigCount() const { return per_config_.size(); }
  std::size_t FaultCount() const { return faults_.size(); }

  /// The boolean fault detectability matrix d_ij (row = configuration in
  /// campaign order, column = fault), paper Fig. 5.
  std::vector<std::vector<bool>> DetectabilityMatrix() const;

  /// The omega-detectability table (same shape), paper Table 2.
  std::vector<std::vector<double>> OmegaTable() const;

  /// Best-case (per-fault max) verdicts over a subset of configuration rows
  /// (empty = all rows): the "a fault is tested in its best configuration"
  /// rule behind Graph 2 and the <w-det> of a chosen configuration set.
  /// Each fault keeps the entry of the first listed row with the strictly
  /// highest omega-detectability (testability::BestCasePerFault's rule).
  /// Throws OptimizationError on a row out of range.
  std::vector<testability::FaultDetectability> BestCase(
      const std::vector<std::size_t>& rows = {}) const;

  /// Fault coverage achieved using a subset of rows (empty = all): the
  /// share of faults whose BestCase entry is detectable.  Reads the rows in
  /// place (no entry is copied), as does AverageOmegaDet.
  double Coverage(const std::vector<std::size_t>& rows = {}) const;

  /// Average omega-detectability using a subset of rows (empty = all): the
  /// BestCase entries' omega summed in fault order, then divided.
  double AverageOmegaDet(const std::vector<std::size_t>& rows = {}) const;

  /// Row index of a configuration in this campaign; throws
  /// OptimizationError when the configuration was not simulated.  O(1):
  /// the index->row map is built at construction.
  std::size_t RowOf(const ConfigVector& cv) const;

  /// Total quarantined cells over every configuration row (0 on a fully
  /// healthy campaign).  Non-zero drives the CLI's distinct exit code and
  /// the run report's quarantine section.
  std::size_t QuarantinedCellCount() const;

 private:
  std::vector<faults::Fault> faults_;
  std::vector<ConfigResult> per_config_;
  testability::ReferenceBand band_;
  // ConfigVector::Index() -> row; verified with operator== on lookup so
  // same-index vectors of a different width still miss.
  std::unordered_map<std::size_t, std::size_t> row_of_;
};

/// The campaign settings used by every paper-reproduction experiment in
/// bench/ and by the integration tests: tester accuracy epsilon = 8 %,
/// +/-3 % Monte-Carlo process-tolerance envelope (48 samples, fixed seed),
/// a 25 %-of-peak measurement floor, and the 4-decade reference band of
/// Definition 2 (2 decades of passband + 2 of stopband, 50 points/decade).
CampaignOptions MakePaperCampaignOptions();

/// Run the campaign on `circuit` over `configs` (e.g. Space().All() or a
/// pre-selected subset) and `fault_list`.  The circuit is cloned; the
/// argument is untouched.  Every configuration's criteria come first, from
/// one shared envelope pass (PrepareCampaignCriteria, under the
/// campaign.prepare span), then the shared stamp deltas
/// (BuildSharedFaultDeltas); then one AC sweep is run per (configuration,
/// fault) pair plus one nominal sweep per configuration.  The units are the
/// 1-shard, no-checkpoint loop over RunCampaignUnit: one unit per
/// configuration, spanning every fault — whole units per worker when there
/// are at least as many configurations as threads (see
/// CampaignOptions::threads).  A failing unit stops the claiming of further
/// units, and the lowest-index failure is rethrown, as the serial loop
/// would.
CampaignResult RunCampaign(const DftCircuit& circuit,
                           const std::vector<faults::Fault>& fault_list,
                           const std::vector<ConfigVector>& configs,
                           const CampaignOptions& options = {});

// --- Campaign building blocks (shared with core/shard) -----------------
//
// The sharded executor must reproduce the monolithic campaign bit for bit,
// so both loops run the same unit executor (RunCampaignUnit) over the
// same frame: resolve the frame once, compute the criteria of the
// configurations to run in one shared envelope pass
// (PrepareCampaignCriteria) and the shared stamp deltas
// (BuildSharedFaultDeltas), then prepare, simulate and score each
// (configuration, fault range) unit independently.  Every piece is a
// deterministic function of its arguments (Monte-Carlo envelopes use fixed
// per-sample seed streams, a configuration's envelope depends only on its
// own follower set, and a shared delta is the one every configuration
// computes), so any partition of the work matrix reassembles to identical
// numbers.

/// The campaign-wide frame: reference band, sweep grid, output probe and
/// the component sites the tolerance envelope perturbs (fault-list order).
struct CampaignFrame {
  testability::ReferenceBand band;
  spice::SweepSpec sweep;
  spice::Probe probe;
  std::vector<std::string> tolerance_sites;

  /// Resolved transient grid (window auto-derivation applied); set exactly
  /// when the campaign's analysis is kTransient.  Shards must reuse these
  /// resolved values, never re-derive them, so the manifest records them.
  std::optional<spice::TransientSpec> transient;
};

/// Resolve the frame on a working clone of the circuit (the clone is
/// switched to the functional configuration for the anchor estimate).
/// Validates the options; throws AnalysisError on conflicts.
CampaignFrame BuildCampaignFrame(DftCircuit& work,
                                 const std::vector<faults::Fault>& fault_list,
                                 const CampaignOptions& options);

/// One configuration, ready to simulate: the configured netlist snapshot
/// and its detection criteria (epsilon + Monte-Carlo envelope).
struct PreparedConfig {
  spice::Netlist netlist;
  testability::DetectionCriteria criteria;
};

/// The detection criteria of every configuration of `configs`, index-
/// aligned: epsilon, plus for AC campaigns with a tolerance model the
/// Monte-Carlo envelope, all from one shared pass over the functional
/// configuration (testability::ComputeSharedToleranceEnvelopes).  An entry
/// is nullopt where that configuration must take the per-configuration
/// envelope sweep instead (the counted guard fallback); RunCampaignUnit
/// and PrepareCampaignConfig then compute it.  Checks every
/// configuration's width in index order first, so the lowest-index error
/// is the one thrown.  Throws util::CancelError when options.cancel fires
/// between sample sweeps.  `work` must be in the functional configuration.
std::vector<std::optional<testability::DetectionCriteria>>
PrepareCampaignCriteria(DftCircuit& work, const CampaignFrame& frame,
                        const std::vector<ConfigVector>& configs,
                        const CampaignOptions& options);

/// Apply `cv` to the working circuit, compute its criteria and snapshot
/// the configured netlist.  The criteria are PrepareCampaignCriteria's on
/// {cv} (with the fallback applied): the shared pass restricted to one
/// configuration gives the bits the whole campaign's pass gives it, so
/// preparing any subset yields the same bytes as preparing all of them.
PreparedConfig PrepareCampaignConfig(DftCircuit& work,
                                     const CampaignFrame& frame,
                                     const ConfigVector& cv,
                                     const CampaignOptions& options);

/// The campaign's shared stamp-delta table: FaultStampDelta::Compute's
/// outcome at every point of the frame's grid for each fault of
/// `fault_list` whose device resolves and is not one of `work`'s
/// configurable opamps.  A configuration only switches those opamps'
/// modes, so such a fault's delta is the same in every configuration and
/// is computed once here, on `work` as it stands, under the
/// campaign.fault_deltas span; its entries count in
/// `faults.sim.shared_deltas`.  Faults on configurable opamps and devices
/// that do not resolve are left to the units.  nullopt for transient
/// campaigns (no stamp deltas).
std::optional<faults::FaultDeltaTable> BuildSharedFaultDeltas(
    const DftCircuit& work, const CampaignFrame& frame,
    const std::vector<faults::Fault>& fault_list,
    const CampaignOptions& options);

/// Build the adjoint sensitivity-screen spec of one prepared configuration
/// for a sweep of `points` grid points: per-point detection thresholds
/// (epsilon + envelope, the exact ThresholdAt() arithmetic the analysis
/// applies later) and the deviation relative floor.  No option moves the
/// spec today (the guard margin is faults::kScreenMargin); `options` stays
/// in the signature for the benchmark's layered replica.  Callers gate on
/// spice::SensitivityScreenEnabled(options.mna) and AC analysis before
/// passing the spec to FaultSimulator::SimulateRange.
faults::SensitivityScreenSpec MakeSensitivityScreenSpec(
    const testability::DetectionCriteria& criteria, std::size_t points,
    const CampaignOptions& options);

/// Assemble a (possibly partial) ConfigResult row covering fault indices
/// [fault_begin, fault_end) of `fault_list`.  `responses` holds the
/// nominal response followed by the faulty responses in fault order.
ConfigResult AssembleConfigRow(const ConfigVector& cv,
                               const testability::DetectionCriteria& criteria,
                               std::vector<spice::FrequencyResponse> responses,
                               const std::vector<faults::Fault>& fault_list,
                               std::size_t fault_begin, std::size_t fault_end);

/// The campaign-unit executor: configuration `cv` over fault indices
/// [fault_begin, fault_end) of `fault_list`, with `criteria` from
/// PrepareCampaignCriteria.  Polls the unit boundary (the
/// `campaign.unit.stall` faultpoint, then options.cancel), snapshots the
/// configured netlist (computing the per-configuration envelope when
/// `criteria` is nullopt), simulates the unit's cells and scores them
/// (AssembleConfigRow) under the spans campaign.prepare /
/// campaign.simulate / campaign.assemble.  The simulate step is the one
/// place the solve path is chosen: transient trajectories or the
/// frequency-major SMW sweep (FaultSimulator::SimulateRange, reading its
/// stamp deltas from `deltas`, BuildSharedFaultDeltas' table, where that
/// covers a fault).  Returns the (partial) row; the unit's faulty
/// responses are dropped before it returns.
ConfigResult RunCampaignUnit(
    DftCircuit& work, const CampaignFrame& frame, const ConfigVector& cv,
    std::optional<testability::DetectionCriteria> criteria,
    const std::vector<faults::Fault>& fault_list, std::size_t fault_begin,
    std::size_t fault_end, const CampaignOptions& options,
    const faults::FaultDeltaTable* deltas = nullptr);

/// Testability of the *unmodified* block (paper Sec. 2): analyze the fault
/// list on the functional circuit only.  Returns the single-configuration
/// campaign so the same accessors/metrics apply.
CampaignResult AnalyzeFunctionalOnly(const DftCircuit& circuit,
                                     const std::vector<faults::Fault>& fault_list,
                                     const CampaignOptions& options = {});

}  // namespace mcdft::core
