// Sparse complex matrices: a triplet (COO) builder for MNA stamping and a
// compressed-sparse-row (CSR) form for multiplication and factorization.
//
// MNA stamping naturally produces duplicate (row, col) contributions — one
// per device terminal pair — so the triplet builder sums duplicates when
// compressing.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense.hpp"

namespace mcdft::linalg {

/// A single (row, col, value) contribution.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  Complex value{0.0, 0.0};
};

/// Coordinate-format builder.  Append entries in any order (duplicates
/// allowed and summed); compress to CSR when done.
class TripletMatrix {
 public:
  TripletMatrix() = default;
  TripletMatrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  std::size_t Rows() const noexcept { return rows_; }
  std::size_t Cols() const noexcept { return cols_; }
  std::size_t EntryCount() const noexcept { return entries_.size(); }

  /// Accumulate value at (r, c).  Bounds-checked; throws NumericError.
  void Add(std::size_t r, std::size_t c, Complex v);

  /// Drop all entries, keeping the shape (reuse across frequencies).
  void Clear() { entries_.clear(); }

  /// Set the shape and drop all entries, keeping the allocation (reuse of
  /// one builder across assemblies).
  void Reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    entries_.clear();
  }

  /// Dense copy (small systems, tests).
  Matrix ToDense() const;

  const std::vector<Triplet>& Entries() const { return entries_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Triplet> entries_;
};

/// Compressed-sparse-row matrix with sorted column indices per row and
/// duplicates summed.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Compress a triplet matrix.  Entries with |v| == 0 are kept (an MNA
  /// structural zero can become nonzero at another frequency only if it is
  /// restamped, so zeros here are genuinely informative).
  explicit CsrMatrix(const TripletMatrix& t);

  std::size_t Rows() const noexcept { return rows_; }
  std::size_t Cols() const noexcept { return cols_; }
  std::size_t NonZeroCount() const noexcept { return values_.size(); }

  /// y = A x.
  Vector Multiply(const Vector& x) const;

  /// Value at (r, c); zero when the position is not stored.  O(log nnz_row).
  Complex At(std::size_t r, std::size_t c) const;

  /// Dense copy.
  Matrix ToDense() const;

  /// Induced infinity norm (max row sum of magnitudes).
  double NormInf() const;

  const std::vector<std::size_t>& RowPointers() const { return row_ptr_; }
  const std::vector<std::size_t>& ColumnIndices() const { return col_idx_; }
  const std::vector<Complex>& Values() const { return values_; }

 private:
  friend class CsrAssembly;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;  // size rows_+1
  std::vector<std::size_t> col_idx_;  // size nnz, sorted within each row
  std::vector<Complex> values_;       // size nnz
};

/// Caches the CSR sparsity pattern of a triplet sequence so that repeated
/// assemblies with the *same structure* (identical (row, col) Add()
/// sequence — e.g. an MNA restamp at a new frequency or after a parametric
/// fault) compress in O(nnz) without re-sorting.
///
/// The mapping entry-index -> value-slot is built once; Update() only
/// re-accumulates values.  Use Matches() to detect structural drift (a
/// changed stamp sequence) and rebuild.
class CsrAssembly {
 public:
  /// Build the pattern and compress `t`.
  explicit CsrAssembly(const TripletMatrix& t);

  /// True when `t` has exactly the cached (row, col) entry sequence.
  bool Matches(const TripletMatrix& t) const;

  /// Re-accumulate values from `t` into the cached pattern.  Throws
  /// NumericError when the structure does not match (call Matches first
  /// when the structure may legitimately change).
  void Update(const TripletMatrix& t);

  /// The compressed matrix with the most recently updated values.
  const CsrMatrix& Matrix() const { return csr_; }

  /// Value slot of each entry of the cached triplet sequence.
  const std::vector<std::size_t>& EntrySlots() const { return slot_; }

  /// The compressed matrix's values, for compiled assembly that writes them
  /// in place (spice::AcStampProgram) instead of going through Update().
  std::vector<Complex>& MutableValues() { return csr_.values_; }

 private:
  CsrMatrix csr_;
  std::vector<std::size_t> slot_;        // triplet entry index -> value index
  std::vector<std::size_t> entry_rows_;  // cached entry coordinates
  std::vector<std::size_t> entry_cols_;
};

}  // namespace mcdft::linalg
