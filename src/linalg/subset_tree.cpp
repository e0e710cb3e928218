#include "linalg/subset_tree.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <string>

#include "linalg/complex_div.hpp"

namespace mcdft::linalg {

namespace {

[[gnu::always_inline]] inline double SquaredMagnitude(Complex v) {
  return v.real() * v.real() + v.imag() * v.imag();
}

/// acc + u * v, written out so every walk rounds it the same way.
[[gnu::always_inline]] inline Complex MulAdd(Complex acc, Complex u,
                                             Complex v) {
  const double re = u.real() * v.real() - u.imag() * v.imag();
  const double im = u.real() * v.imag() + u.imag() * v.real();
  return Complex(acc.real() + re, acc.imag() + im);
}

/// acc - u * v.
[[gnu::always_inline]] inline Complex MulSub(Complex acc, Complex u,
                                             Complex v) {
  const double re = u.real() * v.real() - u.imag() * v.imag();
  const double im = u.real() * v.imag() + u.imag() * v.real();
  return Complex(acc.real() - re, acc.imag() - im);
}

Complex Dot(const SparseRow& row, const Vector& v) {
  Complex acc(0.0, 0.0);
  for (const auto& [col, value] : row) acc = MulAdd(acc, value, v[col]);
  return acc;
}

}  // namespace

Complex ProbeRow::Apply(const Vector& v) const {
  const Complex p = plus == kNone ? Complex(0.0, 0.0) : v[plus];
  const Complex m = minus == kNone ? Complex(0.0, 0.0) : v[minus];
  return p - m;
}

void FormBorderedMatrix(const std::vector<SparseRow>& d,
                        const std::vector<Vector>& z, const Vector& x0,
                        const ProbeRow& c, std::vector<Complex>& b) {
  const std::size_t m = d.size();
  if (z.size() != m) {
    throw util::NumericError(
        "bordered matrix: row deltas and columns differ");
  }
  const std::size_t stride = m + 1;
  b.resize(stride * stride);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t col = 0; col < m; ++col) {
      const Complex dz = Dot(d[a], z[col]);
      b[a * stride + col] = a == col ? Complex(1.0, 0.0) + dz : dz;
    }
    b[a * stride + m] = Dot(d[a], x0);
  }
  for (std::size_t col = 0; col < m; ++col) {
    b[m * stride + col] = c.Apply(z[col]);
  }
  b[m * stride + m] = c.Apply(x0);
}

SubsetSchurTree::SubsetSchurTree(
    std::size_t index_count,
    const std::vector<std::vector<std::size_t>>& subsets)
    : m_(index_count) {
  if (m_ > 63) {
    throw util::NumericError("subset tree supports at most 63 indices, got " +
                             std::to_string(m_));
  }
  // need[prefix]: the indices some requested subset still adds below the
  // node of `prefix` (one entry per node, so also the node set).
  std::map<std::uint64_t, std::uint64_t> need;
  std::vector<std::uint64_t> masks;
  masks.reserve(subsets.size());
  for (const std::vector<std::size_t>& subset : subsets) {
    std::uint64_t full = 0;
    for (std::size_t k = 0; k < subset.size(); ++k) {
      if (subset[k] >= m_ || (k > 0 && subset[k] <= subset[k - 1])) {
        throw util::NumericError(
            "subset tree: subsets must list ascending indices below " +
            std::to_string(m_));
      }
      full |= std::uint64_t{1} << subset[k];
    }
    std::uint64_t prefix = 0;
    need[prefix] |= full;
    for (const std::size_t i : subset) {
      prefix |= std::uint64_t{1} << i;
      need[prefix] |= full & ~prefix;
    }
    masks.push_back(full);
  }
  if (need.empty()) need[0] = 0;  // no subsets: the root alone

  // Depth-first preorder, children in ascending pivot order.
  std::map<std::uint64_t, std::size_t> node_of;
  const auto visit = [&](const auto& self, std::uint64_t mask,
                         std::size_t parent, std::size_t pivot,
                         std::size_t depth) -> void {
    const std::size_t n = nodes_.size();
    node_of[mask] = n;
    Node node;
    node.parent = parent;
    node.pivot = pivot;
    node.depth = depth;
    const std::uint64_t below = need.at(mask);
    for (std::size_t j = 0; j < m_; ++j) {
      if ((mask >> j) & 1u) node.path.push_back(j);
      if ((below >> j) & 1u) node.active.push_back(j);
    }
    node.active.push_back(m_);
    nodes_.push_back(std::move(node));
    for (std::size_t j = 0; j < m_; ++j) {
      const std::uint64_t child = mask | (std::uint64_t{1} << j);
      if (((below >> j) & 1u) && need.count(child) != 0) {
        self(self, child, n, j, depth + 1);
      }
    }
    nodes_[n].subtree_end = nodes_.size();
  };
  visit(visit, 0, kRoot, 0, 0);

  subset_node_.reserve(masks.size());
  for (const std::uint64_t mask : masks) {
    subset_node_.push_back(node_of.at(mask));
  }
}

SubsetSchurTree::Workspace::Workspace(const SubsetSchurTree& tree)
    : levels_((tree.m_ + 1) * (tree.m_ + 1) * (tree.m_ + 1)),
      row_(tree.m_ + 1) {}

std::size_t SubsetSchurTree::Walk(
    const std::vector<Complex>& b, Workspace& ws, std::vector<Complex>& value,
    std::vector<unsigned char>& node_failed) const {
  const std::size_t stride = m_ + 1;
  const std::size_t block = stride * stride;
  if (b.size() != block || value.size() != nodes_.size() ||
      node_failed.size() != nodes_.size() ||
      ws.levels_.size() != stride * block) {
    throw util::NumericError(
        "subset tree walk: buffer sizes do not match the tree");
  }
  constexpr double kGuard2 = kPivotGuard * kPivotGuard;
  constexpr double kMax = std::numeric_limits<double>::max();
  const Complex* top = b.data();
  value[kRoot] = top[m_ * stride + m_];
  std::size_t pivots = 0;
  for (std::size_t n = kRoot + 1; n < nodes_.size();) {
    const Node& node = nodes_[n];
    const std::size_t i = node.pivot;
    const Complex* parent =
        node.depth == 1 ? top : ws.levels_.data() + (node.depth - 1) * block;
    const Complex* pivot_row = parent + i * stride;
    const double p2 = SquaredMagnitude(pivot_row[i]);
    double scale2 = 1.0;
    for (const std::size_t j : node.path) {
      scale2 = std::max(scale2, SquaredMagnitude(top[i * stride + j]));
    }
    if (!(p2 > kGuard2 * scale2 && p2 <= kMax)) {
      node_failed[n] = 1;
      n = node.subtree_end;
      continue;
    }
    ++pivots;
    const DivisorHalf half = MakeDivisorHalf(pivot_row[i]);
    Complex* r = ws.row_.data();
    for (const std::size_t col : node.active) {
      r[col] = Divide(pivot_row[col], half);
    }
    Complex* q = ws.levels_.data() + node.depth * block;
    for (const std::size_t row : node.active) {
      const Complex* p_row = parent + row * stride;
      const Complex multiplier = p_row[i];
      Complex* q_row = q + row * stride;
      for (const std::size_t col : node.active) {
        q_row[col] = MulSub(p_row[col], multiplier, r[col]);
      }
    }
    value[n] = q[m_ * stride + m_];
    ++n;
  }
  return pivots;
}

bool SubsetSchurTree::PathFailed(
    std::size_t s, const std::vector<unsigned char>& node_failed) const {
  for (std::size_t n = subset_node_[s]; n != kRoot; n = nodes_[n].parent) {
    if (node_failed[n] != 0) return true;
  }
  return false;
}

}  // namespace mcdft::linalg
