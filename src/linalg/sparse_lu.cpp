#include "linalg/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::linalg {

namespace {
namespace metrics = util::metrics;

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// One entry of a working row during construction.  The magnitude is
/// computed once, when the value is created or updated, and read by every
/// later pivot search; it never reaches the stored factor.
struct WorkEntry {
  std::size_t col;
  Complex val;
  double mag;
};
}  // namespace

// ---- Factor program ------------------------------------------------------
//
// CompileProgram turns the elimination under the fixed (row_perm_,
// col_perm_) pivot sequence into a replayable schedule over a flat value
// array.  The structure is derived *symbolically* from the sparsity
// pattern alone — it is the superset of every structure the value-guided
// elimination can produce for this pattern, because construction drops
// entries on value conditions (explicit zeros in the CSR input, zero
// multipliers, exact cancellations) that a schedule recorded from one
// value assignment would miss for another.  Replaying the superset with
// any values performs the same arithmetic as construction on those
// values; the only divergences are sign-of-zero / exact-cancellation
// positions, where results differ at most in the bit pattern of a zero.
class FactorProgram {
 public:
  std::size_t n = 0;
  std::size_t nnz = 0;  // entries of the pattern it was compiled for
  // The pivot order the program was compiled for (AdoptProgram's key).
  std::vector<std::size_t> row_perm;
  std::vector<std::size_t> col_perm;
  // Flat storage: one slot per (row, column) position the elimination can
  // ever touch, grouped by original row, column-sorted within a row.
  std::vector<std::size_t> row_slot_ptr;  // n+1
  std::vector<std::size_t> slot_col;
  // Load map: CSR entry k -> slot.  Empty when the map is the identity
  // (no fill: the slots are exactly the CSR entries, in CSR order).
  std::vector<std::size_t> csr_slot;
  std::vector<std::size_t> fill_slots;  // slots no CSR entry loads
  // Per elimination step: the pivot slot, the frozen U entries of the
  // pivot row excluding the pivot itself (for the backward pass), and the
  // target rows with their multiplier slots.  Each target applies the ops
  // (dst -= m * src) listed per step in op_dst/op_src — targets of one
  // step share the src sequence, so ops are stored target-major with a
  // fixed per-target width of (step_u_ptr delta).
  std::vector<std::size_t> step_pivot_slot;  // n (kNoSlot = missing pivot)
  std::vector<std::size_t> step_u_ptr;       // n+1 -> u_slot/u_col
  std::vector<std::size_t> u_slot;
  std::vector<std::size_t> u_col;
  std::vector<std::size_t> step_target_ptr;  // n+1 -> target_row/...
  std::vector<std::size_t> target_row;
  std::vector<std::size_t> target_mult_slot;
  std::vector<std::size_t> target_op_ptr;    // per target -> op_dst/op_src
  std::vector<std::size_t> op_dst;
  std::vector<std::size_t> op_src;

  std::size_t SlotCount() const { return slot_col.size(); }

  /// Slot index of position (row, col); kNoSlot when outside the compiled
  /// structure.
  std::size_t SlotOf(std::size_t row, std::size_t col) const {
    const auto begin = slot_col.begin() + row_slot_ptr[row];
    const auto end = slot_col.begin() + row_slot_ptr[row + 1];
    const auto it = std::lower_bound(begin, end, col);
    if (it == end || *it != col) return kNoSlot;
    return static_cast<std::size_t>(it - slot_col.begin());
  }
};

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
  row_perm_.resize(n_);
  col_perm_.resize(n_);
  col_pos_.assign(n_, 0);
  half_.resize(n_);
  // Remember the pattern for the (lazy) factor-program compilation.
  pat_row_ptr_ = a.RowPointers();
  pat_col_idx_ = a.ColumnIndices();

  // Working rows live in one pool: row r is pool[row_begin[r], +row_size[r])
  // with room for row_cap[r] entries.  A row that outgrows its room moves
  // to the pool's end.  Active rows hold only active columns: every
  // eliminated column is erased from each row that held it.
  const std::vector<std::size_t>& rp = a.RowPointers();
  const std::vector<std::size_t>& ci = a.ColumnIndices();
  const std::vector<Complex>& vals = a.Values();
  std::vector<WorkEntry> pool;
  pool.reserve(vals.size() + vals.size() / 2);
  std::vector<std::size_t> row_begin(n_), row_size(n_), row_cap(n_);
  std::vector<double> row_max(n_, 0.0);  // max magnitude over the row
  const auto refresh_row_max = [&](std::size_t r) {
    double m = 0.0;
    const WorkEntry* row = pool.data() + row_begin[r];
    for (std::size_t i = 0; i < row_size[r]; ++i) m = std::max(m, row[i].mag);
    row_max[r] = m;
  };
  for (std::size_t r = 0; r < n_; ++r) {
    row_begin[r] = pool.size();
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      if (vals[k] != Complex(0.0, 0.0)) {
        pool.push_back(WorkEntry{ci[k], vals[k], Magnitude(vals[k])});
      }
    }
    row_size[r] = row_cap[r] = pool.size() - row_begin[r];
    refresh_row_max(r);
  }
  std::vector<char> row_active(n_, 1);
  std::vector<std::size_t> col_count(n_);
  std::vector<WorkEntry> merged;
  upper_.reserve(vals.size());
  upper_ptr_.assign(n_ + 1, 0);
  lower_ptr_.assign(n_ + 1, 0);

  for (std::size_t step = 0; step < n_; ++step) {
    // Column occupancy among active rows (recomputed per step; cheap at MNA
    // sizes and keeps the invariant trivially correct under fill-in).
    std::fill(col_count.begin(), col_count.end(), 0);
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      const WorkEntry* row = pool.data() + row_begin[r];
      for (std::size_t i = 0; i < row_size[r]; ++i) ++col_count[row[i].col];
    }

    // Threshold-relaxed Markowitz pivot search.
    std::size_t best_row = n_, best_col = n_;
    std::size_t best_markowitz = std::numeric_limits<std::size_t>::max();
    double best_mag = 0.0;
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      const std::size_t active_in_row = row_size[r];
      if (active_in_row == 0 || row_max[r] <= kSingularAbs) continue;
      const double threshold = options.pivot_threshold * row_max[r];
      const WorkEntry* row = pool.data() + row_begin[r];
      for (std::size_t i = 0; i < active_in_row; ++i) {
        const double mag = row[i].mag;
        if (mag < threshold || mag <= kSingularAbs) continue;
        std::size_t mk = (active_in_row - 1) * (col_count[row[i].col] - 1);
        if (mk < best_markowitz || (mk == best_markowitz && mag > best_mag)) {
          best_markowitz = mk;
          best_mag = mag;
          best_row = r;
          best_col = row[i].col;
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
    row_active[best_row] = 0;

    // Freeze the pivot row into U: it holds the pivot and active columns
    // only.
    Complex piv(0.0, 0.0);
    {
      const WorkEntry* prow = pool.data() + row_begin[best_row];
      for (std::size_t i = 0; i < row_size[best_row]; ++i) {
        if (prow[i].col == best_col) piv = prow[i].val;
        upper_.push_back(Entry{prow[i].col, prow[i].val});
      }
    }
    upper_ptr_[step + 1] = upper_.size();
    const DivisorHalf half = MakeDivisorHalf(piv);
    half_[step] = half;
    const std::size_t u_begin = upper_ptr_[step];
    const std::size_t u_end = upper_ptr_[step + 1];

    // Eliminate the pivot column from every remaining active row.
    for (std::size_t r = 0; r < n_; ++r) {
      if (!row_active[r]) continue;
      WorkEntry* row = pool.data() + row_begin[r];
      const std::size_t size = row_size[r];
      WorkEntry* const it = std::lower_bound(
          row, row + size, best_col,
          [](const WorkEntry& e, std::size_t c) { return e.col < c; });
      if (it == row + size || it->col != best_col) continue;
      const Complex m = Divide(it->val, half);
      std::copy(it + 1, row + size, it);  // the entry becomes the multiplier
      --row_size[r];
      if (m == Complex(0.0, 0.0)) {
        refresh_row_max(r);
        continue;
      }
      lower_.push_back(Entry{r, m});
      // row -= m * (pivot row without the pivot column): a sorted merge
      // into `merged`, then back into the row's room.
      merged.clear();
      std::size_t i = 0, j = u_begin;
      const std::size_t rsize = row_size[r];
      while (i < rsize || j < u_end) {
        if (j >= u_end || (i < rsize && row[i].col < upper_[j].col)) {
          merged.push_back(row[i++]);
        } else if (upper_[j].col == best_col) {
          ++j;  // the pivot column itself: no update needed
        } else if (i >= rsize || upper_[j].col < row[i].col) {
          const Complex v = -m * upper_[j].val;
          merged.push_back(WorkEntry{upper_[j].col, v, Magnitude(v)});
          ++j;
        } else {
          const Complex v = row[i].val - m * upper_[j].val;
          if (v != Complex(0.0, 0.0)) {
            merged.push_back(WorkEntry{row[i].col, v, Magnitude(v)});
          }
          ++i;
          ++j;
        }
      }
      if (merged.size() > row_cap[r]) {
        row_begin[r] = pool.size();
        row_cap[r] = merged.size();
        pool.insert(pool.end(), merged.begin(), merged.end());
      } else {
        std::copy(merged.begin(), merged.end(), pool.begin() + row_begin[r]);
      }
      row_size[r] = merged.size();
      refresh_row_max(r);
    }
    lower_ptr_[step + 1] = lower_.size();
  }

  static metrics::Counter& factor_count =
      metrics::GetCounter("linalg.sparse_lu.full_factor");
  static metrics::Histogram& fill_hist =
      metrics::GetHistogram("linalg.sparse_lu.fill_nnz");
  factor_count.Add();
  if (metrics::Enabled()) fill_hist.Observe(FactorNonZeroCount());
}

void SparseLu::CompileProgram() {
  static metrics::Counter& compiled =
      metrics::GetCounter("linalg.sparse_lu.program_compiled");
  compiled.Add();
  auto program = std::make_shared<FactorProgram>();
  FactorProgram& p = *program;
  p.n = n_;
  p.nnz = pat_col_idx_.size();
  p.row_perm = row_perm_;
  p.col_perm = col_perm_;

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
    // structure is {pc} plus still-active columns — exactly the U row
    // superset of construction.
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
  p.row_slot_ptr.assign(n_ + 1, 0);
  for (std::size_t r = 0; r < n_; ++r) {
    p.row_slot_ptr[r + 1] = p.row_slot_ptr[r] + all[r].size();
  }
  p.slot_col.reserve(p.row_slot_ptr[n_]);
  for (std::size_t r = 0; r < n_; ++r) {
    p.slot_col.insert(p.slot_col.end(), all[r].begin(), all[r].end());
  }
  p.csr_slot.resize(pat_col_idx_.size());
  bool identity = p.csr_slot.size() == p.SlotCount();
  std::vector<char> loaded(p.SlotCount(), 0);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = pat_row_ptr_[r]; k < pat_row_ptr_[r + 1]; ++k) {
      const std::size_t s = p.SlotOf(r, pat_col_idx_[k]);
      p.csr_slot[k] = s;
      loaded[s] = 1;
      identity = identity && s == k;
    }
  }
  if (identity) {
    p.csr_slot.clear();
  } else {
    for (std::size_t s = 0; s < loaded.size(); ++s) {
      if (!loaded[s]) p.fill_slots.push_back(s);
    }
  }

  // Pass 2: resolve the recorded structures into slot indices.
  p.step_pivot_slot.assign(n_, kNoSlot);
  p.step_u_ptr.assign(n_ + 1, 0);
  p.step_target_ptr.assign(n_ + 1, 0);
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pr = row_perm_[step];
    const std::size_t pc = col_perm_[step];
    p.step_pivot_slot[step] = p.SlotOf(pr, pc);
    for (std::size_t c : step_ucols[step]) {
      if (c == pc) continue;
      p.u_slot.push_back(p.SlotOf(pr, c));
      p.u_col.push_back(c);
    }
    p.step_u_ptr[step + 1] = p.u_slot.size();
    for (std::size_t r : step_targets[step]) {
      p.target_row.push_back(r);
      p.target_mult_slot.push_back(p.SlotOf(r, pc));
      p.target_op_ptr.push_back(p.op_dst.size());
      for (std::size_t u = p.step_u_ptr[step]; u < p.step_u_ptr[step + 1];
           ++u) {
        p.op_dst.push_back(p.SlotOf(r, p.u_col[u]));
        p.op_src.push_back(p.u_slot[u]);
      }
    }
    p.step_target_ptr[step + 1] = p.target_row.size();
  }
  p.target_op_ptr.push_back(p.op_dst.size());
  program_ = std::move(program);
  slot_val_.assign(p.SlotCount(), Complex(0.0, 0.0));
  flat_valid_ = false;
}

bool SparseLu::AdoptProgram(const std::shared_ptr<const FactorProgram>& program) {
  static metrics::Counter& shared =
      metrics::GetCounter("linalg.sparse_lu.program_shared");
  if (program_ || !program || program->n != n_ ||
      program->nnz != pat_col_idx_.size() || program->row_perm != row_perm_ ||
      program->col_perm != col_perm_) {
    return false;
  }
  program_ = program;
  slot_val_.assign(program_->SlotCount(), Complex(0.0, 0.0));
  flat_valid_ = false;
  shared.Add();
  return true;
}

void SparseLu::LoadConstructionFactor() {
  const FactorProgram& p = *program_;
  std::fill(slot_val_.begin(), slot_val_.end(), Complex(0.0, 0.0));
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pr = row_perm_[step];
    for (std::size_t e = upper_ptr_[step]; e < upper_ptr_[step + 1]; ++e) {
      const std::size_t s = p.SlotOf(pr, upper_[e].col);
      if (s == kNoSlot) {
        throw util::NumericError(
            "sparse LU factor entry outside compiled pattern");
      }
      slot_val_[s] = upper_[e].val;
    }
    for (std::size_t e = lower_ptr_[step]; e < lower_ptr_[step + 1]; ++e) {
      // lower_ entries store (target row, multiplier) for pivot column
      // col_perm_[step].
      const std::size_t s = p.SlotOf(lower_[e].col, col_perm_[step]);
      if (s == kNoSlot) {
        throw util::NumericError(
            "sparse LU multiplier outside compiled pattern");
      }
      slot_val_[s] = lower_[e].val;
    }
  }
  // half_ still holds construction's pivot halves: the pivot slots hold
  // those same values.
  flat_valid_ = true;
}

void SparseLu::CheckValid() const {
  if (!valid_) {
    throw util::NumericError("sparse LU factor invalid after a rejected refactor");
  }
}

void SparseLu::EnsureFlatFactor() {
  if (flat_valid_) return;
  CheckValid();
  if (!program_) CompileProgram();
  LoadConstructionFactor();
}

bool SparseLu::ReplayRefactor(const CsrMatrix& a) {
  static metrics::Counter& refactor_count =
      metrics::GetCounter("linalg.sparse_lu.refactor");
  static metrics::Counter& fallback_count =
      metrics::GetCounter("linalg.sparse_lu.refactor_fallback");
  const FactorProgram& p = *program_;
  flat_valid_ = false;
  valid_ = false;
  // Load: scatter the CSR values through the slot map (CSR positions are
  // unique, so plain stores) and zero the fill slots; with no fill the map
  // is the identity and the load is a copy.
  Complex* const sv = slot_val_.data();
  const std::vector<Complex>& vals = a.Values();
  if (p.csr_slot.empty()) {
    std::copy(vals.begin(), vals.end(), sv);
  } else {
    for (std::size_t s : p.fill_slots) sv[s] = Complex(0.0, 0.0);
    for (std::size_t k = 0; k < vals.size(); ++k) sv[p.csr_slot[k]] = vals[k];
  }
  // Replay: per step one pivot check, then per target one division plus a
  // run of indexed multiply-subtracts.  The value conditions mirror
  // construction exactly: an absent entry is a zero-valued slot, so a
  // missing pivot fails the same |piv| test and a missing multiplier takes
  // the same m == 0 skip.  A pivot in the division fast range is far above
  // kSingularAbs, so only the others take the pivot test.
  const std::size_t* const op_dst = p.op_dst.data();
  const std::size_t* const op_src = p.op_src.data();
  for (std::size_t step = 0; step < n_; ++step) {
    const std::size_t pslot = p.step_pivot_slot[step];
    const Complex piv = pslot == kNoSlot ? Complex(0.0, 0.0) : sv[pslot];
    const DivisorHalf half = MakeDivisorHalf(piv);
    half_[step] = half;
    if (!half.fast && PivotVanished(piv)) {
      fallback_count.Add();
      return false;
    }
    for (std::size_t t = p.step_target_ptr[step];
         t < p.step_target_ptr[step + 1]; ++t) {
      const std::size_t mslot = p.target_mult_slot[t];
      const Complex m = Divide(sv[mslot], half);
      sv[mslot] = m;
      if (m == Complex(0.0, 0.0)) continue;
      if (ExceedsGrowthLimit(m)) {
        fallback_count.Add();
        return false;
      }
      const std::size_t op_end = p.target_op_ptr[t + 1];
      for (std::size_t o = p.target_op_ptr[t]; o < op_end; ++o) {
        sv[op_dst[o]] -= m * sv[op_src[o]];
      }
    }
  }
  refactor_count.Add();
  valid_ = true;
  flat_valid_ = true;
  return true;
}

bool SparseLu::Refactor(const CsrMatrix& a) {
  if (a.Rows() != n_ || a.Cols() != n_ ||
      a.NonZeroCount() != pat_col_idx_.size()) {
    throw util::NumericError("sparse LU refactor pattern mismatch");
  }
  if (!program_) CompileProgram();
  return ReplayRefactor(a);
}

Vector SparseLu::Solve(const Vector& b) {
  Vector x;
  Solve(b, x);
  return x;
}

void SparseLu::Solve(const Vector& b, Vector& x) {
  if (b.size() != n_) {
    throw util::NumericError("sparse LU solve dimension mismatch");
  }
  CheckValid();
  // Forward elimination replayed on a scratch copy of b.
  Vector& work = work_b_;
  work.data().assign(b.data().begin(), b.data().end());
  Vector& y = work_y_;
  y.Resize(n_);
  x.Resize(n_);
  const DivisorHalf* const half = half_.data();
  if (flat_valid_) {
    // Program path: same per-entry operation sequence as the construction
    // rows (targets in ascending row order, U entries in ascending column
    // order), reading values from the flat slot array.
    const FactorProgram& p = *program_;
    const Complex* const sv = slot_val_.data();
    for (std::size_t step = 0; step < n_; ++step) {
      const Complex yk = work[p.row_perm[step]];
      y[step] = yk;
      for (std::size_t t = p.step_target_ptr[step];
           t < p.step_target_ptr[step + 1]; ++t) {
        work[p.target_row[t]] -= sv[p.target_mult_slot[t]] * yk;
      }
    }
    for (std::size_t s = n_; s-- > 0;) {
      Complex acc = y[s];
      for (std::size_t u = p.step_u_ptr[s]; u < p.step_u_ptr[s + 1]; ++u) {
        acc -= sv[p.u_slot[u]] * x[p.u_col[u]];
      }
      x[p.col_perm[s]] = Divide(acc, half[s]);
    }
    return;
  }
  for (std::size_t step = 0; step < n_; ++step) {
    const Complex yk = work[row_perm_[step]];
    y[step] = yk;
    for (std::size_t e = lower_ptr_[step]; e < lower_ptr_[step + 1]; ++e) {
      work[lower_[e].col] -= lower_[e].val * yk;
    }
  }
  // Backward substitution over the permuted upper factor.
  for (std::size_t s = n_; s-- > 0;) {
    Complex acc = y[s];
    const std::size_t pc = col_perm_[s];
    for (std::size_t e = upper_ptr_[s]; e < upper_ptr_[s + 1]; ++e) {
      if (upper_[e].col != pc) acc -= upper_[e].val * x[upper_[e].col];
    }
    x[pc] = Divide(acc, half[s]);
  }
}

bool SparseLu::CopyRealFactor(RealLuFactor& out) const {
  if (program_) {
    throw util::NumericError(
        "sparse LU real copy needs the factor from construction");
  }
  const auto real = [](const Entry& e) { return e.val.imag() == 0.0; };
  if (!std::all_of(upper_.begin(), upper_.end(), real) ||
      !std::all_of(lower_.begin(), lower_.end(), real)) {
    return false;
  }
  out.row_perm_ = row_perm_;
  out.col_perm_ = col_perm_;
  out.row_pos_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) out.row_pos_[row_perm_[k]] = k;
  out.lower_ptr_ = lower_ptr_;
  out.lower_step_.resize(lower_.size());
  out.lower_val_.resize(lower_.size());
  for (std::size_t e = 0; e < lower_.size(); ++e) {
    out.lower_step_[e] = out.row_pos_[lower_[e].col];
    out.lower_val_[e] = lower_[e].val.real();
  }
  // U without the pivots: each step's run loses exactly one entry.
  out.upper_ptr_.resize(n_ + 1);
  out.upper_step_.resize(upper_.size() - n_);
  out.upper_val_.resize(upper_.size() - n_);
  out.pivot_.resize(n_);
  std::size_t u = 0;
  for (std::size_t s = 0; s < n_; ++s) {
    out.upper_ptr_[s] = u;
    for (std::size_t e = upper_ptr_[s]; e < upper_ptr_[s + 1]; ++e) {
      if (upper_[e].col == col_perm_[s]) {
        out.pivot_[s] = upper_[e].val.real();
      } else {
        out.upper_step_[u] = col_pos_[upper_[e].col];
        out.upper_val_[u] = upper_[e].val.real();
        ++u;
      }
    }
  }
  out.upper_ptr_[n_] = u;
  out.work_.resize(n_);
  return true;
}

void RealLuFactor::Solve(const std::vector<double>& b, std::vector<double>& x) {
  const std::size_t n = pivot_.size();
  if (b.size() != n) {
    throw util::NumericError("sparse LU real solve dimension mismatch");
  }
  x.resize(n);
  double* const w = work_.data();
  for (std::size_t k = 0; k < n; ++k) w[k] = b[row_perm_[k]];
  for (std::size_t s = 0; s < n; ++s) {
    const double ys = w[s];
    for (std::size_t e = lower_ptr_[s]; e < lower_ptr_[s + 1]; ++e) {
      w[lower_step_[e]] -= lower_val_[e] * ys;
    }
  }
  // Backward: w[s] turns from y_s into x's step-s value; the U entries of
  // step s read only later steps, which are already solved.
  for (std::size_t s = n; s-- > 0;) {
    double acc = w[s];
    for (std::size_t e = upper_ptr_[s]; e < upper_ptr_[s + 1]; ++e) {
      acc -= upper_val_[e] * w[upper_step_[e]];
    }
    w[s] = acc / pivot_[s];
  }
  for (std::size_t s = 0; s < n; ++s) x[col_perm_[s]] = w[s];
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
  const FactorProgram& p = *program_;
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
    const Complex zs = Divide(work[s], half_[s]);
    z[s] = zs;
    for (std::size_t u = p.step_u_ptr[s]; u < p.step_u_ptr[s + 1]; ++u) {
      work[col_pos_[p.u_col[u]]] -= sv[p.u_slot[u]] * zs;
    }
  }
  // L^T w = z.  L is unit lower triangular in step space (step k's
  // multipliers live in the later steps that eliminate its target rows), so
  // L^T substitutes backward, reusing `work` for w.
  for (std::size_t k = n_; k-- > 0;) {
    Complex acc = z[k];
    for (std::size_t t = p.step_target_ptr[k]; t < p.step_target_ptr[k + 1];
         ++t) {
      acc -= sv[p.target_mult_slot[t]] * work[row_pos_[p.target_row[t]]];
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
  return upper_.size() + lower_.size();
}

Vector SolveSparse(const CsrMatrix& a, const Vector& b, SparseLuOptions options) {
  return SparseLu(a, options).Solve(b);
}

}  // namespace mcdft::linalg
