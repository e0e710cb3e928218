// Sparse LU factorization over complex<double> with threshold-relaxed
// Markowitz pivoting, the classical circuit-simulator ordering (Kundert,
// "Sparse matrix techniques").
//
// Construction performs the full value-guided symbolic+numeric
// factorization with rows held as sorted (column, value) runs.  Repeated
// numeric-only refactorizations (the AC-sweep fast path) do not re-run that
// machinery: the first Refactor() compiles the elimination into a *factor
// program* — a symbolic-superset schedule of flat value-array indices (see
// CompileProgram) — and every subsequent refactor is a branch-light replay
// of multiplier divisions and indexed multiply-subtracts.  A program
// depends only on the sparsity pattern and the pivot order, so it is an
// immutable object that factors of one pattern and order share by pointer
// (AdoptProgram).
//
// Every division goes through linalg::Divide (complex_div.hpp), and the
// pivot and growth tests avoid hypot where the answer is clear; both give
// the bits and decisions of the plain std::complex operators.  The
// Markowitz search reads entry magnitudes through linalg::Magnitude, which
// skips hypot for an entry with a +-0 part.
//
// A factor of a real system (every stored value with imaginary part
// exactly 0) can be copied into a RealLuFactor (CopyRealFactor) and solved
// in double: the transient march factors once per trajectory and solves
// once per step.
#pragma once

#include <algorithm>
#include <memory>

#include "linalg/complex_div.hpp"
#include "linalg/sparse.hpp"

namespace mcdft::linalg {

/// Options controlling the sparse factorization.
struct SparseLuOptions {
  /// A candidate pivot must satisfy |a| >= threshold * max_col_magnitude.
  /// 1.0 = pure partial pivoting, small values favor sparsity (Markowitz).
  double pivot_threshold = 0.1;
};

/// A compiled factor program (defined in sparse_lu.cpp).  Immutable: one
/// program serves every factor of its pattern and pivot order.
class FactorProgram;

/// A SparseLu factor of a real system, copied into real arrays for many
/// solves in double (the transient march: one factor, one solve per step).
/// Filled by SparseLu::CopyRealFactor; the caller owns it, so refilling one
/// object for every trajectory reuses its storage.
class RealLuFactor {
 public:
  /// Solve A x = b into `x` (resized).  The operations are
  /// SparseLu::Solve's construction-path sequence on the real parts:
  /// forward targets in step order, U entries in stored order, then
  /// acc / pivot.  `x` must not alias `b`.
  void Solve(const std::vector<double>& b, std::vector<double>& x);

 private:
  friend class SparseLu;

  // Indices are elimination steps: a forward target's row and a U entry's
  // column are stored as the step that pivots on them, so both passes run
  // in step space and only the load and the store permute.
  std::vector<std::size_t> row_perm_;    // step -> original row of b
  std::vector<std::size_t> col_perm_;    // step -> original column of x
  std::vector<std::size_t> lower_ptr_;   // n+1
  std::vector<std::size_t> lower_step_;  // target row's step
  std::vector<double> lower_val_;        // multiplier
  std::vector<std::size_t> upper_ptr_;   // n+1
  std::vector<std::size_t> upper_step_;  // column's step (pivot excluded)
  std::vector<double> upper_val_;
  std::vector<double> pivot_;
  std::vector<std::size_t> row_pos_;     // original row -> step (for the copy)
  std::vector<double> work_;             // step-space solve workspace
};

/// Sparse LU of a square CSR matrix.  Construction performs the full
/// symbolic+numeric factorization; Solve() is then cheap and reusable.
class SparseLu {
 public:
  /// Factorize.  Throws NumericError on non-square input and
  /// util::McdftError (category kSingularSystem) on singular input.
  explicit SparseLu(const CsrMatrix& a, SparseLuOptions options = {});

  /// Numeric-only refactorization: redo the elimination of `a` reusing the
  /// pivot ordering chosen at construction, skipping the Markowitz
  /// analysis.  `a` must have the sparsity pattern of the matrix this
  /// factor was constructed from (its values may differ); only its size and
  /// entry count are checked.  This is the classic circuit-simulator fast path: across an
  /// AC sweep (and across parametric faults) the sparsity pattern is
  /// invariant and the ordering stays numerically adequate.
  ///
  /// Returns false when the fixed ordering is no longer safe for these
  /// values (a vanished pivot or an elimination multiplier above
  /// `kRefactorGrowthLimit`); the factor is then invalid (solves throw)
  /// until a later Refactor succeeds, and the caller must construct a fresh
  /// SparseLu (full pivot search).
  bool Refactor(const CsrMatrix& a);

  /// Multiplier-magnitude bound beyond which Refactor() refuses the cached
  /// ordering.  A fresh threshold-Markowitz factorization bounds
  /// multipliers by 1/pivot_threshold (= 10 at the default); allowing a
  /// generous excursion keeps the fast path sticky across a 4-decade sweep
  /// while still catching genuine pivot collapse.
  static constexpr double kRefactorGrowthLimit = 1e6;

  /// A pivot of magnitude at or below this is treated as vanished.
  static constexpr double kSingularAbs = 1e-300;

  /// std::abs(piv) <= kSingularAbs, deciding from the larger part where
  /// that settles it (|piv| >= max(|re|, |im|)).
  [[gnu::always_inline]] static bool PivotVanished(Complex piv) {
    const double major = std::max(std::fabs(piv.real()), std::fabs(piv.imag()));
    if (major > kSingularAbs * (1.0 + 1e-9)) return false;
    return std::abs(piv) <= kSingularAbs;
  }

  /// std::abs(m) > kRefactorGrowthLimit, deciding from the squared norm
  /// outside a 1e-9 relative margin around the limit (an overflowing square
  /// reads +inf, a NaN falls through to std::abs).
  [[gnu::always_inline]] static bool ExceedsGrowthLimit(Complex m) {
    constexpr double kLimit2 = kRefactorGrowthLimit * kRefactorGrowthLimit;
    const double norm2 = m.real() * m.real() + m.imag() * m.imag();
    if (norm2 > kLimit2 * (1.0 + 1e-9)) return true;
    if (norm2 < kLimit2 * (1.0 - 1e-9)) return false;
    return std::abs(m) > kRefactorGrowthLimit;
  }

  /// Solve A x = b.  Non-const: the triangular passes run through member
  /// scratch buffers.
  Vector Solve(const Vector& b);

  /// Solve A x = b into `x` (resized; its storage is reused, so a sweep
  /// solving once per point does not allocate).  `x` must not alias `b`.
  void Solve(const Vector& b, Vector& x);

  /// Solve A^T lambda = c reusing the existing factorization: with
  /// A = P^-1 L U Q the adjoint system is U^T L^T (P lambda) = Q c, so the
  /// triangular sweeps of Solve() simply run in reverse order (U^T first,
  /// forward; L^T second, backward) over the same flat factor program — no
  /// new symbolic analysis, no extra storage beyond two permutation maps.
  /// This is the sensitivity-screen adjoint: one call per (config, omega)
  /// yields d(T)/d(stamp) for every fault at once.  Plain transpose, not
  /// conjugate — the screen's first-order dots are unconjugated.  Compiles
  /// the factor program on first use (non-const for the same scratch-buffer
  /// reason as Solve()).
  Vector SolveTranspose(const Vector& c);

  /// Copy the factor from construction into `out` for real solves; returns
  /// false, leaving `out` unchanged, when a stored value (multiplier, U
  /// entry or pivot) has an imaginary part that is not exactly 0.  On a
  /// real system that happens only once the elimination produced a
  /// non-finite value.  Where every imaginary part is +-0, each real
  /// operation of RealLuFactor::Solve equals the real part of the complex
  /// one for finite values (Divide's ratio is +-0 and its denominator the
  /// pivot), up to the sign of a zero.  Throws NumericError once a factor
  /// program exists (Refactor, EnsureFactorProgram, AdoptProgram), since
  /// the construction factor may then be superseded.
  bool CopyRealFactor(RealLuFactor& out) const;

  /// Matrix dimension.
  std::size_t Size() const noexcept { return n_; }

  /// Number of stored nonzero entries in L + U after elimination (fill-in
  /// metric, exercised by the perf bench and ordering tests).
  std::size_t FactorNonZeroCount() const;

  /// True once the factor has a program (compiled by the first Refactor,
  /// SolveTranspose or EnsureFactorProgram, or adopted).  For tests.
  bool HasFactorProgram() const noexcept { return program_ != nullptr; }

  /// Compile the factor program and move the current factor into the flat
  /// storage now (normally lazy).  Solve() then runs the program path at
  /// every point of a sweep, the anchor included (where the factor comes
  /// straight from construction, not from a Refactor), so low-rank fault
  /// solves see one operation sequence per sweep.
  void EnsureFactorProgram() { EnsureFlatFactor(); }

  /// The factor program (null until compiled or adopted).
  const std::shared_ptr<const FactorProgram>& Program() const noexcept {
    return program_;
  }

  /// Use `program` instead of compiling one, when it was compiled for this
  /// factor's pivot order; returns whether it was adopted.  The caller
  /// vouches that it was compiled for this factor's sparsity pattern.  A
  /// factor that already has a program keeps it.
  bool AdoptProgram(const std::shared_ptr<const FactorProgram>& program);

 private:
  struct Entry {
    std::size_t col;
    Complex val;
  };

  /// Compile the factor program for the pattern in pat_row_ptr_/
  /// pat_col_idx_ under the fixed pivot sequence (see the .cpp).
  void CompileProgram();

  /// Scatter the construction-time factor (upper_/lower_) into the flat
  /// slot array so Solve can run the program before any Refactor
  /// happened.
  void LoadConstructionFactor();

  /// Replay the program over the values of `a` (same pattern); the numeric
  /// body of Refactor().
  bool ReplayRefactor(const CsrMatrix& a);

  /// Compile the program (unless adopted) and load the current factor
  /// values if not already flat (a freshly constructed factor).
  void EnsureFlatFactor();

  /// Throw unless the factor holds a usable factorization.
  void CheckValid() const;

  std::size_t n_ = 0;
  // The factor from construction, step-major: step s froze its pivot row
  // (pivot plus trailing entries, column-sorted) into upper_[upper_ptr_[s],
  // upper_ptr_[s+1]) and produced the multipliers (target row, m) in
  // lower_[lower_ptr_[s], lower_ptr_[s+1]).  Superseded by the flat slot
  // storage once a Refactor replays the program.
  std::vector<Entry> upper_;
  std::vector<std::size_t> upper_ptr_;  // n+1
  std::vector<Entry> lower_;
  std::vector<std::size_t> lower_ptr_;  // n+1
  std::vector<std::size_t> row_perm_;   // elimination step k used original row row_perm_[k]
  std::vector<std::size_t> col_perm_;   // step k eliminated original column col_perm_[k]
  std::vector<std::size_t> col_pos_;    // inverse of col_perm_
  std::vector<std::size_t> row_pos_;    // inverse of row_perm_ (lazy, for
                                        // SolveTranspose)
  // Pattern the factor was constructed for (CSR row pointers + column
  // indices), the input of CompileProgram.
  std::vector<std::size_t> pat_row_ptr_;
  std::vector<std::size_t> pat_col_idx_;

  std::shared_ptr<const FactorProgram> program_;
  bool valid_ = true;        // false after a rejected Refactor
  bool flat_valid_ = false;  // slot_val_ holds the current factor
  std::vector<Complex> slot_val_;
  // Per step: the divisor half of the current factor's pivot, shared by
  // every division by that pivot (construction, refactor and solves).
  std::vector<DivisorHalf> half_;

  // Solve() workspace (forward-elimination copy of b and intermediate y).
  Vector work_b_;
  Vector work_y_;
};

/// One-shot sparse solve.
Vector SolveSparse(const CsrMatrix& a, const Vector& b,
                   SparseLuOptions options = {});

}  // namespace mcdft::linalg
