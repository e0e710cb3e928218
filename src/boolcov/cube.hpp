// Cube: a set of positive literals over a fixed variable universe, stored
// as a dynamic bitset.  In the paper's Section 4, variables are either test
// configurations (the xi expression) or opamps (the xi* expression), and a
// cube is a product term such as C1.C2 or OP1.OP3.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace mcdft::boolcov {

/// Product term over `variable_count` positive boolean variables.
class Cube {
 public:
  /// Empty cube (the constant-1 product) over `variable_count` variables.
  explicit Cube(std::size_t variable_count = 0);

  /// Cube with the given variables set.
  Cube(std::size_t variable_count, std::initializer_list<std::size_t> vars);

  std::size_t VariableCount() const { return nvars_; }

  /// Number of literals in the product.
  std::size_t LiteralCount() const;

  bool Test(std::size_t var) const;
  void Set(std::size_t var);
  void Reset(std::size_t var);

  bool Empty() const { return LiteralCount() == 0; }

  /// Set-union of literals (product concatenation: C1.C2 * C2.C3 = C1.C2.C3).
  Cube Union(const Cube& other) const;

  /// Set-intersection of literals.
  Cube Intersect(const Cube& other) const;

  /// True when every literal of this cube is also in `other` — i.e. `other`
  /// is a *larger* product, so this cube absorbs it (x + x.y = x).
  bool SubsetOf(const Cube& other) const;

  /// Indices of set variables, ascending.
  std::vector<std::size_t> Variables() const;

  /// Render as e.g. "C1.C2" using a variable-name callback.
  std::string ToString(
      const std::function<std::string(std::size_t)>& namer) const;

  bool operator==(const Cube& other) const = default;

  /// Strict weak order: fewer literals first, then lexicographic on the
  /// ascending variable lists, i.e. the cube holding the lowest variable
  /// in which the two differ sorts first (deterministic result ordering
  /// for the optimizer).  Allocation-free.
  static bool OrderBySize(const Cube& a, const Cube& b);

  /// Hash for unordered containers.
  struct Hash {
    std::size_t operator()(const Cube& c) const;
  };

 private:
  void CheckVar(std::size_t var) const;
  std::size_t nvars_ = 0;
  std::vector<std::uint64_t> bits_;
};

}  // namespace mcdft::boolcov
