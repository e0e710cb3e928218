// Sparse LU factorization over complex<double> with threshold-relaxed
// Markowitz pivoting, the classical circuit-simulator ordering (Kundert,
// "Sparse matrix techniques").
//
// Construction performs the full value-guided symbolic+numeric
// factorization with rows held as sorted (column, value) vectors.  Repeated
// numeric-only refactorizations (the AC-sweep fast path) do not re-run that
// machinery: the first Refactor() compiles the elimination into a *factor
// program* — a symbolic-superset schedule of flat value-array indices (see
// CompileProgram) — and every subsequent refactor is a branch-light replay
// of multiplier divisions and indexed multiply-subtracts.
#pragma once

#include "linalg/sparse.hpp"

namespace mcdft::linalg {

/// Options controlling the sparse factorization.
struct SparseLuOptions {
  /// A candidate pivot must satisfy |a| >= threshold * max_col_magnitude.
  /// 1.0 = pure partial pivoting, small values favor sparsity (Markowitz).
  double pivot_threshold = 0.1;
};

/// Sparse LU of a square CSR matrix.  Construction performs the full
/// symbolic+numeric factorization; Solve() is then cheap and reusable.
class SparseLu {
 public:
  /// Factorize.  Throws NumericError on non-square input and
  /// util::McdftError (category kSingularSystem) on singular input.
  explicit SparseLu(const CsrMatrix& a, SparseLuOptions options = {});

  /// Numeric-only refactorization: redo the elimination of `a` (same
  /// dimension, values may differ) reusing the pivot ordering chosen at
  /// construction, skipping the Markowitz analysis.  This is the classic
  /// circuit-simulator fast path: across an AC sweep (and across
  /// parametric faults) the sparsity pattern is invariant and the ordering
  /// stays numerically adequate.
  ///
  /// Returns false when the fixed ordering is no longer safe for these
  /// values (a vanished pivot or an elimination multiplier above
  /// `kRefactorGrowthLimit`); the factor is then invalid and the caller
  /// must construct a fresh SparseLu (full pivot search).
  bool Refactor(const CsrMatrix& a);

  /// Multiplier-magnitude bound beyond which Refactor() refuses the cached
  /// ordering.  A fresh threshold-Markowitz factorization bounds
  /// multipliers by 1/pivot_threshold (= 10 at the default); allowing a
  /// generous excursion keeps the fast path sticky across a 4-decade sweep
  /// while still catching genuine pivot collapse.
  static constexpr double kRefactorGrowthLimit = 1e6;

  /// Solve A x = b.  Non-const: the triangular passes run through member
  /// scratch buffers so repeated solves (one per sweep point) do not
  /// allocate beyond the returned vector.
  Vector Solve(const Vector& b);

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

  /// Matrix dimension.
  std::size_t Size() const noexcept { return n_; }

  /// Number of stored nonzero entries in L + U after elimination (fill-in
  /// metric, exercised by the perf bench and ordering tests).
  std::size_t FactorNonZeroCount() const;

  /// True once the factor program has been compiled (first Refactor,
  /// SolveTranspose or EnsureFactorProgram).  Exposed for tests.
  bool HasFactorProgram() const noexcept { return have_program_; }

  /// Compile the factor program and move the current factor into the flat
  /// storage now (normally lazy).  Solve() then runs the program path at
  /// every point of a sweep, the anchor included (where the factor comes
  /// straight from construction, not from a Refactor), so low-rank fault
  /// solves see one operation sequence per sweep.
  void EnsureFactorProgram() { EnsureFlatFactor(); }

 private:
  struct Entry {
    std::size_t col;
    Complex val;
  };
  using SparseRow = std::vector<Entry>;  // sorted by col

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// row -= m * (urow restricted to still-active columns); sorted merge
  /// through `scratch` (buffer swapped into `row`, capacities recirculate).
  static void EliminateRow(SparseRow& row, const SparseRow& urow,
                           const std::vector<bool>& col_active, Complex m,
                           SparseRow& scratch);

  /// Rebuild the working rows of `a` into `rows` for an elimination pass,
  /// keeping each row's capacity from the previous pass.
  static void BuildRows(const CsrMatrix& a, std::vector<SparseRow>& rows);

  /// Compile the factor program for the pattern in pat_row_ptr_/
  /// pat_col_idx_ under the fixed pivot sequence (see the .cpp).
  void CompileProgram();

  /// Scatter the construction-time factor (lower_/upper_) into the flat
  /// slot array so Solve can run the program before any Refactor
  /// happened.
  void LoadLegacyFactor();

  /// Replay the program over the values of `a` (same pattern); the numeric
  /// body of Refactor().
  bool ReplayRefactor(const CsrMatrix& a);

  /// Compile the program and load current factor values if not already
  /// flat (a freshly constructed factor).
  void EnsureFlatFactor();

  /// Slot index of position (row, col); kNoSlot when outside the compiled
  /// structure.
  std::size_t SlotOf(std::size_t row, std::size_t col) const;

  std::size_t n_ = 0;
  // Rows of the combined LU factor from construction, in elimination order.
  // Superseded by the flat slot storage once the program is compiled.
  std::vector<SparseRow> lower_;        // multipliers, cols < pivot col order
  std::vector<SparseRow> upper_;        // pivot + trailing entries
  std::vector<std::size_t> row_perm_;   // elimination step k used original row row_perm_[k]
  std::vector<std::size_t> col_perm_;   // step k eliminated original column col_perm_[k]
  std::vector<std::size_t> col_pos_;    // inverse of col_perm_
  std::vector<std::size_t> row_pos_;    // inverse of row_perm_ (lazy, for
                                        // SolveTranspose)

  // ---- Factor program (compiled by CompileProgram) -----------------------
  // Pattern the program was compiled for (CSR row pointers + column
  // indices); Refactor recompiles when the incoming pattern differs.
  bool have_program_ = false;
  bool flat_valid_ = false;  // slot_val_ holds the current factor
  std::vector<std::size_t> pat_row_ptr_;
  std::vector<std::size_t> pat_col_idx_;
  // Flat storage: one slot per (row, column) position the elimination can
  // ever touch, grouped by original row, column-sorted within a row.
  std::vector<std::size_t> row_slot_ptr_;  // n+1
  std::vector<std::size_t> slot_col_;
  std::vector<Complex> slot_val_;
  std::vector<std::size_t> csr_slot_;      // CSR entry k -> slot
  // Per elimination step: the pivot slot, the frozen U entries of the
  // pivot row excluding the pivot itself (for the backward pass), and the
  // target rows with their multiplier slots.  Each target applies the ops
  // (dst -= m * src) listed per step in op_dst_/op_src_ — targets of one
  // step share the src sequence, so ops are stored target-major with a
  // fixed per-target width of (step_u_ptr_ delta).
  std::vector<std::size_t> step_pivot_slot_;  // n (kNoSlot = missing pivot)
  std::vector<std::size_t> step_u_ptr_;       // n+1 -> u_slot_/u_col_
  std::vector<std::size_t> u_slot_;
  std::vector<std::size_t> u_col_;
  std::vector<std::size_t> step_target_ptr_;  // n+1 -> target_row_/...
  std::vector<std::size_t> target_row_;
  std::vector<std::size_t> target_mult_slot_;
  std::vector<std::size_t> target_op_ptr_;    // per target -> op_dst_/op_src_
  std::vector<std::size_t> op_dst_;
  std::vector<std::size_t> op_src_;

  // Solve() workspace (forward-elimination copy of b and intermediate y).
  Vector work_b_;
  Vector work_y_;
};

/// One-shot sparse solve.
Vector SolveSparse(const CsrMatrix& a, const Vector& b,
                   SparseLuOptions options = {});

}  // namespace mcdft::linalg
