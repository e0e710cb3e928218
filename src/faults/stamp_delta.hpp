// Derivation of a fault's low-rank MNA perturbation from its element stamp.
//
// A parametric fault changes one element's principal value, so the faulty
// system matrix differs from the nominal one only by that element's stamp
// delta: recording the stamp with weight -1 at nominal values and +1 with
// the fault injected yields a handful of triplets whose dense closure is
// rank <= 2 for every two-terminal stamp (and rank 1 for most).  The delta
// is factorized as Delta = sum_j u_j w_j^T, ready for the SMW solver.
//
// Faults that touch the right-hand side (independent-source value faults)
// or exceed the rank cap have no pure-matrix low-rank form; Compute()
// returns nullopt and the caller must solve the faulty system exactly.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "faults/fault.hpp"
#include "linalg/lowrank.hpp"
#include "spice/mna.hpp"

namespace mcdft::faults {

/// Sum the duplicate coordinates of recorded stamp entries in place (the
/// result is sorted by row, then column) and drop exact zeros: value-free
/// entries — e.g. a source's incidence pattern — cancel exactly between a
/// weight -1 and a weight +1 recording.
void AccumulateStampDelta(std::vector<linalg::Triplet>& entries);

class FaultStampDelta {
 public:
  /// Drop tolerance of the rank factorization, relative to the largest
  /// delta entry: elimination residue below this is stamp roundoff, not
  /// structure.
  static constexpr double kDropTol = 1e-13;

  /// Reusable working storage for Compute().  A sweep computes one delta
  /// per (fault, frequency); keeping the buffers across calls turns the
  /// per-call cost into a handful of resize()s.
  struct Scratch {
    std::vector<linalg::Triplet> entries;
    std::vector<std::pair<std::size_t, linalg::Complex>> rhs;
    std::vector<std::size_t> rows, cols;
    std::vector<linalg::Complex> dense, u_col, w_row;
  };

  /// Compute the rank-factorized matrix perturbation of `fault` on
  /// `netlist` for analysis (kind, omega).  `system` must index `netlist`;
  /// the netlist is mutated (fault injected) and restored before return.
  /// Returns nullopt when the fault is not expressible as a pure low-rank
  /// matrix update (RHS delta, unknown device, or rank above
  /// linalg::LowRankUpdateSolver::kMaxRank).
  static std::optional<linalg::LowRankPerturbation> Compute(
      const spice::MnaSystem& system, spice::Netlist& netlist,
      const Fault& fault, spice::AnalysisKind kind, double omega);

  /// Hot-path variant with the target element pre-resolved and all
  /// allocations amortized: fills `out` (clearing any previous terms) and
  /// returns true, or returns false where the overload above returns
  /// nullopt.  `element` must be `system`'s element `element_idx` and
  /// `fault`'s device.
  static bool Compute(const spice::MnaSystem& system, spice::Element& element,
                      std::size_t element_idx, const Fault& fault,
                      spice::AnalysisKind kind, double omega, Scratch& scratch,
                      linalg::LowRankPerturbation& out);
};

}  // namespace mcdft::faults
