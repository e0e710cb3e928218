// Adjoint sensitivity screen for AC fault campaigns (ROADMAP item 5).
//
// First-order perturbation theory: with A x = b, T = p^T x (p the probe
// indicator) and a faulty system (A + Delta) x' = b, the response change is
//
//   dT = p^T (x' - x) ~= -lambda^T Delta x,   A^T lambda = p,
//
// so ONE transpose solve per (config, omega) — SparseLu::SolveTranspose
// against the already-factored nominal system — prices |dT/T| for EVERY
// parametric fault at once: Delta = sum_j u_j w_j^T gives
// dT ~= -sum_j (lambda^T u_j)(w_j^T x).  A cell whose estimate clears the
// detection threshold by more than a conservative guard band (either way)
// already has its detectability verdict; the fault solver skips it and
// stores the first-order faulty value instead.  Borderline cells — and
// every fault the estimate cannot speak for (catastrophic kinds, RHS
// deltas, rank-declined stamps) — always take the exact SMW/ladder path,
// so coverage tables, omega tables and quarantine lists are bit-identical
// to the unscreened run (the screen is purely a scheduling optimization).
//
// The classification evaluates the estimate with the exact arithmetic of
// spice::RelativeDeviation / MagnitudeDeviation (same denominators, same
// rounding: the deviation of the *stored* synthetic value is recomputed,
// not the raw |dT|), so the masks testability::AnalyzeFault later derives
// from a skipped cell agree bit-for-bit with the screen's verdict.
#pragma once

#include <vector>

#include "faults/fault.hpp"
#include "linalg/lowrank.hpp"

namespace mcdft::faults {

/// Per-config screen parameters, built by the campaign layer from its
/// DetectionCriteria: `threshold[i]` is DetectionCriteria::ThresholdAt(i)
/// (epsilon + tolerance envelope) on the sweep grid.  `relative_floor`
/// rides along so the simulator can rebuild the deviation denominators
/// from its own pass-1 nominal sweep with the campaign's exact parameters.
struct SensitivityScreenSpec {
  double relative_floor = 1e-9;
  std::vector<double> threshold;
};

/// Outcome of screening one (fault, omega) cell.
struct ScreenDecision {
  /// True: the verdict is decided either way — skip the fault solve and
  /// store `synthetic` as the cell's faulty value.
  bool skip = false;
  linalg::Complex synthetic{};
};

/// True for fault kinds the first-order estimate can speak for: small
/// parametric deviations.  Catastrophic opens/shorts and opamp-model
/// faults perturb far outside the linear regime (or change the stamp
/// structure) and always take the exact path.
inline bool ScreenableFaultKind(FaultKind kind) {
  return kind == FaultKind::kDeviationUp || kind == FaultKind::kDeviationDown;
}

/// Trust cap on the deviation magnitude the screen will speak for.  The
/// exact rank-1 probe delta is first_order / (1 + s) with s the SMW
/// capacity scalar, and |s| grows with the deviation; past ~25 % the
/// correction can exceed any practical guard margin near high-Q features
/// (the near-threshold fuzz test demonstrates misclassification at 30 %).
/// Computing s exactly would cost the very solve the screen is skipping,
/// so larger deviations simply take the exact path.  Covers the paper's
/// +/-20 % fault universe with headroom.
inline constexpr double kMaxScreenableDeviation = 0.25;

/// A fault the screen may classify: a parametric deviation inside the
/// linearization trust region.
inline bool ScreenableFault(const Fault& fault) {
  return ScreenableFaultKind(fault.Kind()) &&
         fault.Magnitude() <= kMaxScreenableDeviation;
}

/// The first-order probe-response change -sum_j (lambda^T u_j)(w_j^T x0)
/// of a rank-factorized perturbation.  Plain (unconjugated) dots — lambda
/// solves the plain-transposed system.
linalg::Complex FirstOrderProbeDelta(const linalg::LowRankPerturbation& delta,
                                     const linalg::Vector& lambda,
                                     const linalg::Vector& x0);

/// Guard band of the campaign's screen: a cell is only skipped when its
/// first-order estimate is at least this factor away from the detection
/// threshold (see ScreenCell), so first-order truncation error cannot flip
/// a verdict.  Folded into the campaign content hash when the screen is
/// on.  The 8x is sized by the near-threshold fuzz test: the exact rank-1
/// delta is first_order / (1 + s), and |1 + s| down to ~0.25 is observed
/// for the <= 25% deviations the screen accepts (ScreenableFault caps
/// larger ones onto the exact path), so 8x doubles the worst observed
/// requirement.  It does not hold on leapfrog, where |1 + s| reaches ~17
/// at the low band edge (DESIGN.md "Adjoint sensitivity screen").
inline constexpr double kScreenMargin = 8.0;

/// Classify one cell: `nominal` is the cell's nominal probe value,
/// `first_order_delta` the estimate above, `denom` the deviation
/// denominator at this sweep point (spice::DeviationDenominators),
/// `threshold` the detection threshold and `margin` the guard band.
///
/// The cell is skipped as UNDETECTED when est * margin < threshold (the
/// magnitude deviation is <= the complex one, so both masks are clearly
/// false) and as DETECTED when est > margin * threshold AND the magnitude
/// mask is safe under an *additive* error budget: the trusted exact delta
/// satisfies |d_ex - d_fo| <= (1 - 1/margin) * |d_fo|, and magnitude
/// deviation is 1-Lipschitz in the complex value, so the magnitude verdict
/// is certain only when mag_est > threshold + (1 - 1/margin) * est.  A
/// plain multiplicative guard on mag_est would be unsound — the magnitude
/// deviation is a difference of near-equal norms, so its own relative
/// error is unbounded by cancellation even when the complex delta is
/// accurate (a near-miss caught by the near-threshold fuzz test).  A clear
/// complex verdict whose magnitude bit stays ambiguous counts a
/// guard_reject and solves exactly.  Everything else — including a
/// non-finite estimate — is BORDERLINE and solves exactly.  Bumps the
/// faults.screen.{screened_detected, screened_undetected, borderline,
/// guard_rejects} counters.
ScreenDecision ScreenCell(linalg::Complex nominal,
                          linalg::Complex first_order_delta, double denom,
                          double threshold, double margin);

}  // namespace mcdft::faults
