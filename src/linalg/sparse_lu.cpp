#include "linalg/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::linalg {

namespace {
constexpr double kSingularAbs = 1e-300;

namespace metrics = util::metrics;
}  // namespace

void SparseLu::BuildRows(const CsrMatrix& a, std::vector<SparseRow>& rows) {
  rows.resize(a.Rows());
  for (std::size_t r = 0; r < a.Rows(); ++r) {
    rows[r].clear();
    for (std::size_t k = a.RowPointers()[r]; k < a.RowPointers()[r + 1]; ++k) {
      if (a.Values()[k] != Complex(0.0, 0.0)) {
        rows[r].push_back(Entry{a.ColumnIndices()[k], a.Values()[k]});
      }
    }
  }
}

void SparseLu::EliminateRow(SparseRow& row, const SparseRow& urow,
                            const std::vector<bool>& col_active, Complex m,
                            SparseRow& scratch) {
  SparseRow& merged = scratch;
  merged.clear();
  merged.reserve(row.size() + urow.size());
  std::size_t i = 0, j = 0;
  while (i < row.size() || j < urow.size()) {
    if (j >= urow.size() || (i < row.size() && row[i].col < urow[j].col)) {
      merged.push_back(row[i++]);
    } else if (!col_active[urow[j].col]) {
      ++j;  // pivot column itself (and any frozen column): no update needed
    } else if (i >= row.size() || urow[j].col < row[i].col) {
      merged.push_back(Entry{urow[j].col, -m * urow[j].val});
      ++j;
    } else {
      Complex v = row[i].val - m * urow[j].val;
      if (v != Complex(0.0, 0.0)) merged.push_back(Entry{row[i].col, v});
      ++i;
      ++j;
    }
  }
  row.swap(merged);  // old buffer becomes the next merge's scratch
}

SparseLu::SparseLu(const CsrMatrix& a, SparseLuOptions options) {
  if (a.Rows() != a.Cols()) {
    throw util::NumericError("sparse LU requires a square matrix");
  }
  n_ = a.Rows();
  // Hashed-mode faultpoint: the decision is a pure function of the matrix
  // values, so an armed run fails the same factorizations at any thread or
  // shard count.  The digest is only computed while armed.
  if (util::faultpoint::AnyArmed() &&
      util::faultpoint::ShouldFail(
          "sparse_lu.factor",
          util::faultpoint::DigestBytes(
              a.Values().data(), a.Values().size() * sizeof(Complex)))) {
    throw util::McdftError(util::ErrorCategory::kInjected,
                           "faultpoint sparse_lu.factor");
  }
  lower_.assign(n_, {});
  upper_.assign(n_, {});
  row_perm_.resize(n_);
  col_perm_.resize(n_);
  col_pos_.assign(n_, 0);
  // Remember the pattern for the (lazy) factor-program compilation.
  pat_row_ptr_ = a.RowPointers();
  pat_col_idx_ = a.ColumnIndices();

  // Working copy: active rows as sorted (col, val) vectors.
  std::vector<SparseRow> rows;
  BuildRows(a, rows);
  SparseRow merge_scratch;
  std::vector<bool> row_active(n_, true);
  std::vector<bool> col_active(n_, true);
  // Multipliers produced at each elimination step: (original row, m).
  std::vector<std::vector<std::pair<std::size_t, Complex>>> step_mult(n_);

  std::vector<std::size_t> col_count(n_);

  for (std::size_t step = 0; step < n_; ++step) {
    // Column occupancy among active rows (recomputed per step; cheap at MNA
    // sizes and keeps the invariant trivially correct under fill-in).
    std::fill(col_count.begin(), col_count.end(), 0);
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      for (const Entry& e : rows[r]) {
        if (col_active[e.col]) ++col_count[e.col];
      }
    }

    // Threshold-relaxed Markowitz pivot search.
    std::size_t best_row = n_, best_col = n_;
    std::size_t best_markowitz = std::numeric_limits<std::size_t>::max();
    double best_mag = 0.0;
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      double row_max = 0.0;
      std::size_t active_in_row = 0;
      for (const Entry& e : rows[r]) {
        if (!col_active[e.col]) continue;
        row_max = std::max(row_max, std::abs(e.val));
        ++active_in_row;
      }
      if (active_in_row == 0 || row_max <= kSingularAbs) continue;
      for (const Entry& e : rows[r]) {
        if (!col_active[e.col]) continue;
        double mag = std::abs(e.val);
        if (mag < options.pivot_threshold * row_max || mag <= kSingularAbs) {
          continue;
        }
        std::size_t mk = (active_in_row - 1) * (col_count[e.col] - 1);
        if (mk < best_markowitz || (mk == best_markowitz && mag > best_mag)) {
          best_markowitz = mk;
          best_mag = mag;
          best_row = r;
          best_col = e.col;
        }
      }
    }
    if (best_row == n_) {
      throw util::McdftError(
          util::ErrorCategory::kSingularSystem,
          "sparse LU found no acceptable pivot at step " +
              std::to_string(step) + " of " + std::to_string(n_));
    }

    row_perm_[step] = best_row;
    col_perm_[step] = best_col;
    col_pos_[best_col] = step;
    row_active[best_row] = false;
    col_active[best_col] = false;

    // Freeze the pivot row into U (keeps already-eliminated columns out).
    SparseRow& prow = rows[best_row];
    Complex piv(0.0, 0.0);
    SparseRow urow;
    urow.reserve(prow.size());
    for (const Entry& e : prow) {
      if (e.col == best_col) piv = e.val;
      if (e.col == best_col || col_active[e.col]) urow.push_back(e);
    }
    upper_[step] = std::move(urow);

    // Eliminate the pivot column from every remaining active row.
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      SparseRow& row = rows[r];
      auto it = std::lower_bound(
          row.begin(), row.end(), best_col,
          [](const Entry& e, std::size_t c) { return e.col < c; });
      if (it == row.end() || it->col != best_col) continue;
      Complex m = it->val / piv;
      row.erase(it);
      if (m == Complex(0.0, 0.0)) continue;
      step_mult[step].emplace_back(r, m);
      EliminateRow(row, upper_[step], col_active, m, merge_scratch);
    }
  }

  // Re-home the multipliers under the producing step for the solve phase.
  for (std::size_t step = 0; step < n_; ++step) {
    lower_[step].clear();
    for (const auto& [r, m] : step_mult[step]) {
      lower_[step].push_back(Entry{r, m});
    }
  }

  static metrics::Counter& factor_count =
      metrics::GetCounter("linalg.sparse_lu.full_factor");
  static metrics::Histogram& fill_hist =
      metrics::GetHistogram("linalg.sparse_lu.fill_nnz");
  factor_count.Add();
  if (metrics::Enabled()) fill_hist.Observe(FactorNonZeroCount());
}

// ---- Factor program ------------------------------------------------------
//
// CompileProgram turns the elimination under the fixed (row_perm_,
// col_perm_) pivot sequence into a replayable schedule over a flat value
// array.  The structure is derived *symbolically* from the sparsity
// pattern alone — it is the superset of every structure the value-guided
// elimination can produce for this pattern, because the legacy passes drop
// entries on value conditions (explicit zeros in the CSR input, zero
// multipliers, exact cancellations) that a schedule recorded from one
// value assignment would miss for another.  Replaying the superset with
// any values performs the same arithmetic as the legacy pass on those
// values; the only divergences are sign-of-zero / exact-cancellation
// positions, where results differ at most in the bit pattern of a zero.

void SparseLu::CompileProgram() {
  // Pass 1: symbolic elimination over the pattern.  `cur` is each active
  // row's current column set (sorted); `all` accumulates every position a
  // row ever holds (initial pattern + fill), which becomes its slot range.
  std::vector<std::vector<std::size_t>> cur(n_);
  std::vector<std::vector<std::size_t>> all(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    cur[r].assign(pat_col_idx_.begin() + pat_row_ptr_[r],
                  pat_col_idx_.begin() + pat_row_ptr_[r + 1]);
    std::sort(cur[r].begin(), cur[r].end());
    all[r] = cur[r];
  }
  std::vector<std::vector<std::size_t>> step_ucols(n_);
  std::vector<std::vector<std::size_t>> step_targets(n_);
  std::vector<char> row_active(n_, 1);
  std::vector<std::size_t> merged;
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pr = row_perm_[step];
    const std::size_t pc = col_perm_[step];
    row_active[pr] = 0;
    // Invariant: an active row never holds an already-eliminated column
    // (targets erase the pivot column below), so the frozen pivot-row
    // structure is {pc} plus still-active columns — exactly the legacy U
    // row superset.
    step_ucols[step] = cur[pr];
    const std::vector<std::size_t>& ucols = step_ucols[step];
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      std::vector<std::size_t>& rc = cur[r];
      auto it = std::lower_bound(rc.begin(), rc.end(), pc);
      if (it == rc.end() || *it != pc) continue;
      step_targets[step].push_back(r);
      rc.erase(it);  // the entry becomes the multiplier
      // rc = rc union (ucols minus pc): sorted merge.
      merged.clear();
      merged.reserve(rc.size() + ucols.size());
      std::size_t i = 0, j = 0;
      while (i < rc.size() || j < ucols.size()) {
        if (j < ucols.size() && ucols[j] == pc) {
          ++j;
        } else if (j >= ucols.size() ||
                   (i < rc.size() && rc[i] < ucols[j])) {
          merged.push_back(rc[i++]);
        } else if (i >= rc.size() || ucols[j] < rc[i]) {
          merged.push_back(ucols[j++]);
        } else {
          merged.push_back(rc[i]);
          ++i;
          ++j;
        }
      }
      rc.swap(merged);
      // Fold the (possibly grown) structure into the row's slot set.
      merged.clear();
      std::set_union(all[r].begin(), all[r].end(), rc.begin(), rc.end(),
                     std::back_inserter(merged));
      all[r].swap(merged);
    }
  }

  // Assign slots: rows concatenated, column-sorted within each row.
  row_slot_ptr_.assign(n_ + 1, 0);
  for (std::size_t r = 0; r < n_; ++r) {
    row_slot_ptr_[r + 1] = row_slot_ptr_[r] + all[r].size();
  }
  slot_col_.clear();
  slot_col_.reserve(row_slot_ptr_[n_]);
  for (std::size_t r = 0; r < n_; ++r) {
    slot_col_.insert(slot_col_.end(), all[r].begin(), all[r].end());
  }
  slot_val_.assign(slot_col_.size(), Complex(0.0, 0.0));
  csr_slot_.resize(pat_col_idx_.size());
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = pat_row_ptr_[r]; k < pat_row_ptr_[r + 1]; ++k) {
      csr_slot_[k] = SlotOf(r, pat_col_idx_[k]);
    }
  }

  // Pass 2: resolve the recorded structures into slot indices.
  step_pivot_slot_.assign(n_, kNoSlot);
  step_u_ptr_.assign(n_ + 1, 0);
  step_target_ptr_.assign(n_ + 1, 0);
  u_slot_.clear();
  u_col_.clear();
  target_row_.clear();
  target_mult_slot_.clear();
  target_op_ptr_.clear();
  op_dst_.clear();
  op_src_.clear();
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pr = row_perm_[step];
    const std::size_t pc = col_perm_[step];
    step_pivot_slot_[step] = SlotOf(pr, pc);
    for (std::size_t c : step_ucols[step]) {
      if (c == pc) continue;
      u_slot_.push_back(SlotOf(pr, c));
      u_col_.push_back(c);
    }
    step_u_ptr_[step + 1] = u_slot_.size();
    for (std::size_t r : step_targets[step]) {
      target_row_.push_back(r);
      target_mult_slot_.push_back(SlotOf(r, pc));
      target_op_ptr_.push_back(op_dst_.size());
      for (std::size_t u = step_u_ptr_[step]; u < step_u_ptr_[step + 1];
           ++u) {
        op_dst_.push_back(SlotOf(r, u_col_[u]));
        op_src_.push_back(u_slot_[u]);
      }
    }
    step_target_ptr_[step + 1] = target_row_.size();
  }
  target_op_ptr_.push_back(op_dst_.size());
  have_program_ = true;
  flat_valid_ = false;
}

std::size_t SparseLu::SlotOf(std::size_t row, std::size_t col) const {
  const auto begin = slot_col_.begin() + row_slot_ptr_[row];
  const auto end = slot_col_.begin() + row_slot_ptr_[row + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return kNoSlot;
  return static_cast<std::size_t>(it - slot_col_.begin());
}

void SparseLu::LoadLegacyFactor() {
  std::fill(slot_val_.begin(), slot_val_.end(), Complex(0.0, 0.0));
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pr = row_perm_[step];
    for (const Entry& e : upper_[step]) {
      const std::size_t s = SlotOf(pr, e.col);
      if (s == kNoSlot) {
        throw util::NumericError(
            "sparse LU factor entry outside compiled pattern");
      }
      slot_val_[s] = e.val;
    }
    for (const Entry& e : lower_[step]) {
      // lower_ entries store (target row, multiplier) for pivot column
      // col_perm_[step].
      const std::size_t s = SlotOf(e.col, col_perm_[step]);
      if (s == kNoSlot) {
        throw util::NumericError(
            "sparse LU multiplier outside compiled pattern");
      }
      slot_val_[s] = e.val;
    }
  }
  flat_valid_ = true;
}

void SparseLu::EnsureFlatFactor() {
  if (flat_valid_) return;
  if (!have_program_) CompileProgram();
  LoadLegacyFactor();
}

bool SparseLu::ReplayRefactor(const CsrMatrix& a) {
  static metrics::Counter& refactor_count =
      metrics::GetCounter("linalg.sparse_lu.refactor");
  static metrics::Counter& fallback_count =
      metrics::GetCounter("linalg.sparse_lu.refactor_fallback");
  flat_valid_ = false;
  // Load: zero every slot, then scatter the CSR values through the
  // precomputed slot map (CSR positions are unique, so plain stores).
  std::fill(slot_val_.begin(), slot_val_.end(), Complex(0.0, 0.0));
  const std::vector<Complex>& vals = a.Values();
  for (std::size_t k = 0; k < vals.size(); ++k) {
    slot_val_[csr_slot_[k]] = vals[k];
  }
  // Replay: per step one pivot check, then per target one division plus a
  // run of indexed multiply-subtracts.  The value conditions mirror the
  // legacy pass exactly: an absent entry is a zero-valued slot, so a
  // missing pivot fails the same |piv| test and a missing multiplier takes
  // the same m == 0 skip.
  Complex* const sv = slot_val_.data();
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pslot = step_pivot_slot_[step];
    const Complex piv = pslot == kNoSlot ? Complex(0.0, 0.0) : sv[pslot];
    if (std::abs(piv) <= kSingularAbs) {
      fallback_count.Add();
      return false;
    }
    for (std::size_t t = step_target_ptr_[step];
         t < step_target_ptr_[step + 1]; ++t) {
      const std::size_t mslot = target_mult_slot_[t];
      const Complex m = sv[mslot] / piv;
      sv[mslot] = m;
      if (m == Complex(0.0, 0.0)) continue;
      if (std::abs(m) > kRefactorGrowthLimit) {
        fallback_count.Add();
        return false;
      }
      const std::size_t op_end = target_op_ptr_[t + 1];
      for (std::size_t o = target_op_ptr_[t]; o < op_end; ++o) {
        sv[op_dst_[o]] -= m * sv[op_src_[o]];
      }
    }
  }
  refactor_count.Add();
  flat_valid_ = true;
  return true;
}

bool SparseLu::Refactor(const CsrMatrix& a) {
  if (a.Rows() != n_ || a.Cols() != n_) {
    throw util::NumericError("sparse LU refactor dimension mismatch");
  }
  if (!have_program_ || a.RowPointers() != pat_row_ptr_ ||
      a.ColumnIndices() != pat_col_idx_) {
    pat_row_ptr_ = a.RowPointers();
    pat_col_idx_ = a.ColumnIndices();
    CompileProgram();
  }
  return ReplayRefactor(a);
}

Vector SparseLu::Solve(const Vector& b) {
  if (b.size() != n_) {
    throw util::NumericError("sparse LU solve dimension mismatch");
  }
  // Forward elimination replayed on a scratch copy of b.
  Vector& work = work_b_;
  work.data().assign(b.data().begin(), b.data().end());
  Vector& y = work_y_;
  y.Resize(n_);
  if (flat_valid_) {
    // Program path: same per-entry operation sequence as the legacy rows
    // (targets in ascending row order, U entries in ascending column
    // order), reading values from the flat slot array.
    const Complex* const sv = slot_val_.data();
    for (std::size_t step = 0; step < n_; ++step) {
      const Complex yk = work[row_perm_[step]];
      y[step] = yk;
      for (std::size_t t = step_target_ptr_[step];
           t < step_target_ptr_[step + 1]; ++t) {
        work[target_row_[t]] -= sv[target_mult_slot_[t]] * yk;
      }
    }
    Vector x(n_);
    for (std::size_t s = n_; s-- > 0;) {
      Complex acc = y[s];
      for (std::size_t u = step_u_ptr_[s]; u < step_u_ptr_[s + 1]; ++u) {
        acc -= sv[u_slot_[u]] * x[u_col_[u]];
      }
      const std::size_t pslot = step_pivot_slot_[s];
      const Complex piv = pslot == kNoSlot ? Complex(0.0, 0.0) : sv[pslot];
      x[col_perm_[s]] = acc / piv;
    }
    return x;
  }
  for (std::size_t step = 0; step < n_; ++step) {
    Complex yk = work[row_perm_[step]];
    y[step] = yk;
    for (const Entry& e : lower_[step]) work[e.col] -= e.val * yk;
  }
  // Backward substitution over the permuted upper factor.
  Vector x(n_);
  for (std::size_t s = n_; s-- > 0;) {
    Complex acc = y[s];
    Complex piv(0.0, 0.0);
    for (const Entry& e : upper_[s]) {
      if (e.col == col_perm_[s]) {
        piv = e.val;
      } else {
        acc -= e.val * x[e.col];
      }
    }
    x[col_perm_[s]] = acc / piv;
  }
  return x;
}

Vector SparseLu::SolveTranspose(const Vector& c) {
  if (c.size() != n_) {
    throw util::NumericError("sparse LU transpose solve dimension mismatch");
  }
  // The adjoint always runs through the flat program: with A = P^-1 L U Q
  // (P[k][row_perm_[k]] = 1, Q[s][col_perm_[s]] = 1) the system
  // A^T lambda = c becomes U^T L^T (P lambda) = Q c, so the two triangular
  // sweeps of Solve() run in reverse order against the same slot values.
  EnsureFlatFactor();
  if (row_pos_.size() != n_) {
    row_pos_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) row_pos_[row_perm_[k]] = k;
  }
  const Complex* const sv = slot_val_.data();
  // Gather c into step space: work[s] = (Q c)[s].
  Vector& work = work_b_;
  work.Resize(n_);
  for (std::size_t s = 0; s < n_; ++s) work[s] = c[col_perm_[s]];
  // U^T z = Q c.  U is upper triangular in step space (pivot on the
  // diagonal, frozen row entries at later steps), so U^T solves forward:
  // divide by the pivot, then scatter z_s through step s's U entries.
  Vector& z = work_y_;
  z.Resize(n_);
  for (std::size_t s = 0; s < n_; ++s) {
    const std::size_t pslot = step_pivot_slot_[s];
    const Complex piv = pslot == kNoSlot ? Complex(0.0, 0.0) : sv[pslot];
    const Complex zs = work[s] / piv;
    z[s] = zs;
    for (std::size_t u = step_u_ptr_[s]; u < step_u_ptr_[s + 1]; ++u) {
      work[col_pos_[u_col_[u]]] -= sv[u_slot_[u]] * zs;
    }
  }
  // L^T w = z.  L is unit lower triangular in step space (step k's
  // multipliers live in the later steps that eliminate its target rows), so
  // L^T substitutes backward, reusing `work` for w.
  for (std::size_t k = n_; k-- > 0;) {
    Complex acc = z[k];
    for (std::size_t t = step_target_ptr_[k]; t < step_target_ptr_[k + 1];
         ++t) {
      acc -= sv[target_mult_slot_[t]] * work[row_pos_[target_row_[t]]];
    }
    work[k] = acc;
  }
  // lambda = P^-1 w.
  Vector lambda(n_);
  for (std::size_t k = 0; k < n_; ++k) lambda[row_perm_[k]] = work[k];
  return lambda;
}

std::size_t SparseLu::FactorNonZeroCount() const {
  if (flat_valid_) {
    std::size_t nnz = 0;
    for (const Complex& v : slot_val_) {
      if (v != Complex(0.0, 0.0)) ++nnz;
    }
    return nnz;
  }
  std::size_t nnz = 0;
  for (const auto& r : lower_) nnz += r.size();
  for (const auto& r : upper_) nnz += r.size();
  return nnz;
}

Vector SolveSparse(const CsrMatrix& a, const Vector& b, SparseLuOptions options) {
  return SparseLu(a, options).Solve(b);
}

}  // namespace mcdft::linalg
