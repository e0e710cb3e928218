// Trapezoidal transient analysis over the existing MNA stamps.
//
// The engine reuses the AC assembly verbatim: assembling at
// (AnalysisKind::kTransient, omega = 2/h) makes every capacitor stamp its
// trapezoidal companion conductance G_eq = 2C/h and every inductor its
// companion resistance R_eq = 2L/h, so the system matrix G + (2/h)C is
// built once per trajectory and factored once — the per-step work is a
// history-current RHS refresh plus one triangular solve.  The one march
// over these pieces is faults::FaultSimulator::SimulateTransientRange: the
// nominal trajectory is its no-fault slot.
//
// The system is real by construction: s = (2/h, 0), opamp gains are taken
// at s = 0 and sources stamp their principal value, so the stepper checks
// that the assembled matrix and RHS are real and keeps the RHS and the
// companion states in double.  The march solves each step in double
// (linalg::RealLuFactor), which equals the real part of the complex solve.
//
// Discretization (trapezoidal / bilinear, fixed step h = t_end/steps):
//   capacitor  i = C dv/dt   ->  i_{n+1} = G_eq v_{n+1} - I_eq,n
//                                I_eq,n+1 = 2 G_eq v_{n+1} - I_eq,n
//   inductor   v = L di/dt   ->  v_{n+1} - R_eq i_{n+1} = -w_n
//                                w_{n+1} = 2 R_eq i_{n+1} - w_n
// with one scalar history state per dynamic element (I_eq for capacitors,
// w = v + R_eq i for inductors), both zero at t = 0 (zero initial state).
// Sources apply their principal value as a step at t = 0+; the grid is
// t_k = k*h for k = 1..steps (t = 0 is the all-zero initial state and is
// not part of the response).
//
// Every trajectory value is a pure function of (netlist values, spec) —
// there is no timing- or partition-dependent state — so transient campaign
// cells inherit the same bit-determinism contract as the AC sweeps.
#pragma once

#include <vector>

#include "spice/mna.hpp"

namespace mcdft::spice {

/// A transient run: step response over [0, t_end_s] in `steps` uniform
/// trapezoidal steps.
struct TransientSpec {
  double t_end_s = 1e-3;     ///< window length in seconds
  std::size_t steps = 256;   ///< uniform steps; grid t_k = k*h, k = 1..steps

  /// Step size h = t_end_s / steps.
  double StepSize() const { return t_end_s / static_cast<double>(steps); }

  /// The time grid t_1..t_steps (ascending, t = 0 excluded).  Throws
  /// AnalysisError on a non-positive window or zero step count.
  std::vector<double> Times() const;
};

/// Companion-model state machine for one trapezoidal trajectory: owns the
/// assembled transient system (matrix + base source RHS) and the per-element
/// history states, and produces the per-step RHS.
///
/// Element values (and so the companion conductances G_eq, R_eq) are read
/// once at construction — the fault path builds a stepper while a
/// ScopedFaultInjection is active to get faulty history recursions, then
/// marches it after the injection is reverted.
class TransientStepper {
 public:
  /// Assemble `sys` at (kTransient, 2/h).  `netlist` must be the system's
  /// netlist.  Throws AnalysisError when an assembled matrix entry or RHS
  /// value has an imaginary part that is not exactly 0.
  TransientStepper(const MnaSystem& sys, const Netlist& netlist,
                   const TransientSpec& spec);

  /// The assembled transient system matrix (G + (2/h)C companion form);
  /// every entry is real.
  const linalg::TripletMatrix& Matrix() const { return a_; }

  /// RHS of the next step: base source vector plus the history injections
  /// of the current companion states.  Valid until the next call.
  const std::vector<double>& NextRhs();

  /// Advance the companion states with the solution of the step whose RHS
  /// was produced by the last NextRhs().
  void Advance(const std::vector<double>& x);

 private:
  struct CapState {
    std::size_t p_row;  ///< unknown index of the + node (kNoRow = ground)
    std::size_t m_row;  ///< unknown index of the - node (kNoRow = ground)
    double geq;         ///< 2C_eff/h
    double ieq;         ///< companion history current I_eq,n
  };
  struct IndState {
    std::size_t p_row;       ///< + node unknown (kNoRow = ground)
    std::size_t m_row;       ///< - node unknown (kNoRow = ground)
    std::size_t branch_row;  ///< branch-current unknown
    double req;              ///< 2L_eff/h
    double w;                ///< companion history state w_n = v_n + R_eq i_n
  };
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  linalg::TripletMatrix a_;
  std::vector<double> base_rhs_;  // source contributions (constant per
                                  // trajectory)
  std::vector<double> rhs_;       // per-step working RHS
  std::vector<CapState> caps_;
  std::vector<IndState> inductors_;
};

}  // namespace mcdft::spice
