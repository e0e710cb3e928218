// Sherman-Morrison-Woodbury rank-k update solves against a factored
// nominal matrix.
//
// A fault campaign solves (A + Delta) x = b for many small perturbations
// Delta of one nominal system A.  When Delta = sum_j u_j w_j^T has rank
// k << n (a single element's stamp change has rank <= 2), the Woodbury
// identity gives
//
//   x = x0 - Z (I_k + W^T Z)^{-1} (W^T x0),   Z = A^{-1} U,  x0 = A^{-1} b
//
// so each faulty solve costs k triangular solve pairs plus a k-by-k dense
// solve instead of a full refactorization — and x0 is shared by every
// perturbation at one frequency.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "linalg/sparse_lu.hpp"

namespace mcdft::linalg {

/// One rank-1 term u w^T of a perturbation, with both vectors stored
/// sparsely as (index, value) pairs (distinct indices, any order).
struct LowRankTerm {
  std::vector<std::pair<std::size_t, Complex>> u;
  std::vector<std::pair<std::size_t, Complex>> w;
};

/// An additive perturbation Delta = sum_j u_j w_j^T of rank terms.size().
struct LowRankPerturbation {
  std::vector<LowRankTerm> terms;

  std::size_t Rank() const { return terms.size(); }
};

/// Solves (A + Delta) x = b via SMW against a factored nominal A.
///
/// Usage: Bind() once per (factorization, rhs) — typically once per sweep
/// frequency — then Solve() once per perturbation.  Solve() returns nullopt
/// when the update is not numerically safe (rank above kMaxRank, a
/// near-singular capacitance matrix I + W^T Z, or non-finite coefficients);
/// the caller must then solve the perturbed system exactly.  Fallbacks bump
/// the `linalg.smw.fallback` counter, successes `linalg.smw.update`.
class LowRankUpdateSolver {
 public:
  /// Largest accepted perturbation rank.  A two-terminal stamp is rank <= 2;
  /// the slack covers multi-branch elements (opamp models).
  static constexpr std::size_t kMaxRank = 4;

  /// A capacitance-matrix pivot below kPivotFloor * max(1, max|C_ij|) is
  /// treated as singular: the perturbation moved the system onto (or past)
  /// a pole of the update formula and the exact path must decide.
  static constexpr double kPivotFloor = 1e-12;

  /// Bind to a factored nominal system and its right-hand side; computes
  /// and caches x0 = A^{-1} b.  `nominal` must stay alive and unmodified
  /// until the next Bind().
  void Bind(SparseLu& nominal, const Vector& b);

  /// The cached fault-free solution x0 (valid after Bind()).
  const Vector& NominalSolution() const { return x0_; }

  /// Solve (A + delta) x = b for the bound system.  Rank 0 returns x0.
  std::optional<Vector> Solve(const LowRankPerturbation& delta);

 private:
  SparseLu* lu_ = nullptr;
  Vector x0_;
  Vector dense_u_;          // dense expansion of one u_j
  std::vector<Vector> z_;   // Z columns A^{-1} u_j, capacity reused
};

}  // namespace mcdft::linalg
