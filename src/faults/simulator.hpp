// Fault simulation: fault-free and faulty AC responses over a sweep.
//
// This is the paper's "extensive fault simulation" (HSPICE in the original,
// our MNA engine here).  Campaigns call SimulateRange (AC) or
// SimulateTransientRange.  SimulateNominal / SimulateFault are the small
// reference oracle those paths are tested against: one plain sweep each,
// every point assembled and factored afresh by spice::MnaSystem::Solve.
#pragma once

#include "faults/delta_table.hpp"
#include "faults/fault_list.hpp"
#include "faults/injector.hpp"
#include "faults/sensitivity_screen.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/transient_analysis.hpp"

namespace mcdft::faults {

/// Drives fault simulation of a fixed circuit / sweep / probe.
class FaultSimulator {
 public:
  /// The simulator clones `netlist` internally; later changes to the
  /// original do not affect it.  `options` carries the sensitivity-screen
  /// gate of SimulateRange.
  FaultSimulator(const spice::Netlist& netlist, spice::SweepSpec sweep,
                 spice::Probe probe, spice::MnaOptions options = {});

  /// Fault-free response, the reference sweep: per point, generic
  /// Assemble and a fresh factorization (spice::MnaSystem::Solve; dense
  /// on every bundled circuit).  No stamp program, refactorization or SMW
  /// update is involved, so it shares no machinery with SimulateRange.
  /// Fail-fast: a solve failure throws.
  spice::FrequencyResponse SimulateNominal() const;

  /// Response with one fault injected (the reference, like
  /// SimulateNominal()).
  spice::FrequencyResponse SimulateFault(const Fault& fault) const;

  /// The campaign's AC fault path over a fault range: returns the nominal
  /// response followed by the responses of faults [fault_begin, fault_end)
  /// in order — the exact slot layout of one campaign-unit row.
  ///
  /// Frequency-major: per sweep frequency the nominal system is factored
  /// once (a sparse numeric refactorization under an ordering derived from
  /// the sweep's first point) and every fault is applied as a
  /// Sherman-Morrison-Woodbury rank-update against it; faults the SMW path
  /// rejects (RHS deltas, near-singular updates) are solved exactly from
  /// scratch.  The sweep parallelizes
  /// over frequency blocks; every value is a pure function of (netlist
  /// values, frequency), so results are bit-identical for any `threads`
  /// (0 = resolve MCDFT_THREADS).
  ///
  /// Failures never throw: a cell whose solve fails or probes a
  /// non-finite value walks a retry ladder (exact sparse factorization,
  /// jittered pivot ordering, dense LU) and is quarantined in its
  /// response's mask when every stage fails; a quarantined nominal
  /// quarantines its whole frequency point.
  ///
  /// With `screen` set (and spice::SensitivityScreenEnabled(options)), an
  /// adjoint sensitivity screen runs ahead of the fault loop: a pass-1
  /// nominal sweep prices the campaign's deviation denominators, then each
  /// point pays one SparseLu::SolveTranspose and every parametric fault
  /// whose first-order |dT/T| estimate clears `screen->threshold` by the
  /// guard band kScreenMargin skips its SMW/exact solve, storing the
  /// first-order value instead.  Detectability masks derived from the
  /// result are meant to be bit-identical to the unscreened run (see
  /// sensitivity_screen.hpp; leapfrog is a known exception); only
  /// the stored deviation magnitudes of skipped cells differ, which is why
  /// the campaign content hash folds the effective screen gate in.
  ///
  /// Every fault's stamp delta is read from a FaultDeltaTable.  `deltas`
  /// is the campaign's shared table (built for exactly `faults` on this
  /// sweep's grid, else util::AnalysisError); before the sweep, the entries
  /// of range faults it does not cover — all of them without one — are
  /// computed into a range-local table (counted in
  /// `faults.sim.unit_deltas`).  Either way each entry holds the bits
  /// FaultStampDelta::Compute gives on this netlist at that point.
  std::vector<spice::FrequencyResponse> SimulateRange(
      const std::vector<Fault>& faults, std::size_t fault_begin,
      std::size_t fault_end, std::size_t threads,
      const SensitivityScreenSpec* screen = nullptr,
      const FaultDeltaTable* deltas = nullptr) const;

  /// Time-domain analogue of SimulateRange: trapezoidal step-response
  /// trajectories of the nominal circuit and of faults
  /// [fault_begin, fault_end), in the same slot layout (`freqs_hz` carries
  /// the time grid in seconds; values are purely real).
  ///
  /// This is the one transient march: the nominal trajectory is its
  /// no-fault case.  The path is fault-major — a trajectory is sequential
  /// in time, so the parallel axis is the fault range.  Each worker block
  /// owns a netlist clone; every fault re-marches exactly from t = 0 under
  /// ScopedFaultInjection with its own factorization (no low-rank
  /// solves).  Every value is a pure function of (netlist values, fault,
  /// spec), so results — including quarantine masks — are bit-identical
  /// at any thread or shard count.
  ///
  /// Every trajectory, nominal included, factors through one ladder
  /// (Markowitz sparse -> jittered pivot -> dense).  A trajectory that
  /// fails at step k is quarantined from k to the end; a nominal failure
  /// at step k quarantines every slot from k.
  std::vector<spice::FrequencyResponse> SimulateTransientRange(
      const std::vector<Fault>& faults, std::size_t fault_begin,
      std::size_t fault_end, std::size_t threads,
      const spice::TransientSpec& spec) const;

 private:
  // mutable: SimulateFault temporarily perturbs the working netlist and
  // restores it; the object is logically const.
  mutable spice::Netlist work_;
  spice::SweepSpec sweep_;
  spice::Probe probe_;
  spice::MnaOptions options_;
};

}  // namespace mcdft::faults
