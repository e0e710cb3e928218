// Exact elimination of row rewrites against one factored matrix, for a
// whole family of subsets at once.
//
// A family of systems A_S x = b differs from A0 x = b only in a few rows:
// for each index i of m rewritable rows, A_S adds the row delta d_i^T to
// row r_i when i is in S.  With x0 = A0^-1 b, z_i = A0^-1 e_{r_i} and a
// probe row c, the probe value c^T A_S^-1 b is the Schur complement of the
// S-block in the bordered matrix
//
//     B = [ I + D Z    D x0   ]      D = [d_0 .. d_{m-1}]^T
//         [ c^T Z      c^T x0 ]      Z = [z_0 .. z_{m-1}]
//
// (Sherman-Morrison-Woodbury, written as elimination).  SubsetSchurTree
// holds the requested subsets as a trie in ascending index order: the node
// of S = {i1 < ... < ip} is reached from the root (S = {}) by pivoting on
// i1, then i2, ..., and each step is one diagonal pivot on the parent's
// Schur complement.  Subsets that share a prefix share every step of it,
// so the full family of 2^m subsets costs one pivot per node.
//
// Determinism: an entry (a, b) of a node's Schur complement is computed
// from the parent's entries (a, b), (a, i), (i, b) and the pivot (i, i) by
// one fixed expression, so a subset's value depends only on B and its own
// root-to-node path, never on which other subsets share the walk.  The
// pivot guard reads only B's entries on that path.  The library builds
// with -ffp-contract=off, so no build fuses those expressions differently
// in one walk than in another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/dense.hpp"

namespace mcdft::linalg {

/// A sparse row: (column, value) pairs.
using SparseRow = std::vector<std::pair<std::size_t, Complex>>;

/// The probe row c: c^T v = v[plus] - v[minus], where an absent side
/// (kNone, e.g. ground) reads 0 — the arithmetic of
/// spice::MnaSolution::VoltageBetween.
struct ProbeRow {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t plus = kNone;
  std::size_t minus = kNone;

  Complex Apply(const Vector& v) const;
};

/// Write the bordered matrix B (row-major, (m+1) x (m+1), index m = the
/// border) for m row deltas `d`, the columns `z` (z[i] = A0^-1 e_{r_i}),
/// the base solution `x0` and the probe `c`.  Each D entry is a dot
/// product over the delta's entries in their stored order.
void FormBorderedMatrix(const std::vector<SparseRow>& d,
                        const std::vector<Vector>& z, const Vector& x0,
                        const ProbeRow& c, std::vector<Complex>& b);

/// The trie of requested subsets and its elimination walk.
class SubsetSchurTree {
 public:
  /// Pivot guard: a pivot p at the node of S (pivot index i) is accepted
  /// only when |p| > kPivotGuard * max(1, max_{j in S} |B[i][j]|), i.e.
  /// against its own row of B over the subset's path and the identity's
  /// unit.  A smaller pivot means the elimination cancelled (nearly) all of
  /// that row, and the subtree's values would carry the cancellation error;
  /// its subsets must be computed another way.
  static constexpr double kPivotGuard = 1e-8;

  /// Node index of the root (the empty subset).
  static constexpr std::size_t kRoot = 0;

  /// `subsets[s]` lists strictly ascending indices below `index_count`;
  /// duplicates and the empty subset are allowed.  Throws
  /// util::NumericError on malformed input or `index_count` above 63.
  SubsetSchurTree(std::size_t index_count,
                  const std::vector<std::vector<std::size_t>>& subsets);

  std::size_t IndexCount() const { return m_; }
  std::size_t SubsetCount() const { return subset_node_.size(); }
  std::size_t NodeCount() const { return nodes_.size(); }

  /// Node whose value is subset `s`'s probe value.
  std::size_t NodeOf(std::size_t s) const { return subset_node_[s]; }

  /// Per-thread scratch of Walk().
  class Workspace {
   public:
    explicit Workspace(const SubsetSchurTree& tree);

   private:
    friend class SubsetSchurTree;
    std::vector<Complex> levels_;  // one (m+1)^2 block per depth
    std::vector<Complex> row_;     // the pivot row over the pivot
  };

  /// One walk over the bordered matrix `b` (see FormBorderedMatrix).  Sets
  /// value[n] for every node reached; a node whose pivot fails the guard is
  /// flagged in `node_failed` (never cleared) and its subtree is skipped,
  /// leaving those values untouched.  `value` and `node_failed` must have
  /// NodeCount() entries.  Returns the number of pivots taken.
  std::size_t Walk(const std::vector<Complex>& b, Workspace& ws,
                   std::vector<Complex>& value,
                   std::vector<unsigned char>& node_failed) const;

  /// True when a node on subset `s`'s root-to-node path is flagged.
  bool PathFailed(std::size_t s,
                  const std::vector<unsigned char>& node_failed) const;

 private:
  struct Node {
    std::size_t parent = 0;
    std::size_t pivot = 0;        // index eliminated to reach this node
    std::size_t depth = 0;        // subset size
    std::size_t subtree_end = 0;  // first node after this one's subtree
    std::vector<std::size_t> path;    // the subset, ascending
    std::vector<std::size_t> active;  // indices the subtree still pivots
                                      // on, ascending, then the border m
  };

  std::size_t m_ = 0;
  std::vector<Node> nodes_;  // depth-first preorder, children ascending
  std::vector<std::size_t> subset_node_;
};

}  // namespace mcdft::linalg
