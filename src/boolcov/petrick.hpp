// Petrick's method: expand a product-of-sums covering expression into the
// sum-of-products of its irredundant solutions, with absorption (x + x.y = x)
// applied clause by clause so the intermediate SOP stays minimal.
#pragma once

#include "boolcov/pos.hpp"

namespace mcdft::boolcov {

/// Expansion limits.  The method is worst-case exponential; the limits trip
/// an OptimizationError instead of letting a pathological matrix take the
/// process down (the caller can fall back to setcover.hpp heuristics).
struct PetrickOptions {
  /// Abort as soon as the minimal products of the clauses expanded so far
  /// outnumber this (the raw expansion: its live products).
  std::size_t max_products = 200000;
};

/// All irredundant product terms satisfying the POS expression, sorted by
/// Cube::OrderBySize (fewest literals first, then lexicographic).
///
/// After absorption the result is exactly the set of minimal covers in the
/// subset-order sense: every returned cube satisfies every clause, and no
/// returned cube is a superset of another.  (The paper's expanded xi
/// expression lists *all* product terms before discarding dominated ones;
/// RawExpansion reproduces that intermediate form for the Sec. 4.1 bench.)
std::vector<Cube> PetrickMinimalProducts(const CoverProblem& problem,
                                         const PetrickOptions& options = {});

/// The literal distribution-law expansion without the final absorption,
/// i.e. one product per choice function of the clauses, deduplicated.  Only
/// sensible for small problems (the paper's 8-fault biquad); guarded by the
/// same limit.
std::vector<Cube> PetrickRawExpansion(const CoverProblem& problem,
                                      const PetrickOptions& options = {});

}  // namespace mcdft::boolcov
