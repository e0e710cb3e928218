#include "boolcov/petrick.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_set>

namespace mcdft::boolcov {

namespace {

[[noreturn]] void ThrowProductCap(const PetrickOptions& options) {
  throw util::OptimizationError(
      "Petrick expansion exceeded " + std::to_string(options.max_products) +
      " products; use the set-cover heuristics instead");
}

}  // namespace

// Each clause e is multiplied into the current antichain A of minimal
// products (the minimal covers of the clauses so far).  A term of A that
// hits e passes unchanged, and no other candidate can absorb it: a grown
// term t.v (t in A misses e, v in e) inside it would put t strictly below
// it in A.  For the same reason a grown term t.v can only be absorbed by a
// kept term that contains v (without v it would lie inside t), and grown
// terms never absorb each other (t.v <= t'.v' forces t = t', then v = v').
// So the product is exactly: the kept terms, plus every grown term that no
// kept term containing v is a subset of.  Every term appended is final,
// which lets the cap throw as soon as a clause's minimal set exceeds it.
std::vector<Cube> PetrickMinimalProducts(const CoverProblem& problem,
                                         const PetrickOptions& options) {
  const std::size_t nvars = problem.VariableCount();
  const std::size_t words = (nvars + 63) / 64;
  // The live antichain: `count` terms of `words` limbs each, back to back.
  std::vector<std::uint64_t> live(words, 0);  // the identity product
  std::size_t count = 1;
  std::vector<std::uint64_t> next, clause(words), grown(words);
  std::vector<std::size_t> missed;
  std::vector<std::vector<std::size_t>> kept_with;  // per clause literal
  for (const auto& c : problem.Clauses()) {
    const std::vector<std::size_t> vars = c.literals.Variables();
    std::fill(clause.begin(), clause.end(), 0);
    for (std::size_t v : vars) clause[v / 64] |= std::uint64_t{1} << (v % 64);

    next.clear();
    missed.clear();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t* t = live.data() + i * words;
      bool hits = false;
      for (std::size_t w = 0; w < words && !hits; ++w) {
        hits = (t[w] & clause[w]) != 0;
      }
      if (!hits) {
        missed.push_back(i);
        continue;
      }
      next.insert(next.end(), t, t + words);
      if (++kept > options.max_products) ThrowProductCap(options);
    }

    kept_with.resize(std::max(kept_with.size(), vars.size()));
    for (std::size_t k = 0; k < vars.size(); ++k) {
      kept_with[k].clear();
      const std::size_t w = vars[k] / 64;
      const std::uint64_t bit = std::uint64_t{1} << (vars[k] % 64);
      for (std::size_t h = 0; h < kept; ++h) {
        if (next[h * words + w] & bit) kept_with[k].push_back(h);
      }
    }

    std::size_t total = kept;
    for (std::size_t i : missed) {
      const std::uint64_t* t = live.data() + i * words;
      for (std::size_t k = 0; k < vars.size(); ++k) {
        std::copy(t, t + words, grown.begin());
        grown[vars[k] / 64] |= std::uint64_t{1} << (vars[k] % 64);
        const bool absorbed = std::any_of(
            kept_with[k].begin(), kept_with[k].end(), [&](std::size_t h) {
              const std::uint64_t* kt = next.data() + h * words;
              for (std::size_t w = 0; w < words; ++w) {
                if ((kt[w] & ~grown[w]) != 0) return false;
              }
              return true;
            });
        if (absorbed) continue;
        next.insert(next.end(), grown.begin(), grown.end());
        if (++total > options.max_products) ThrowProductCap(options);
      }
    }
    live.swap(next);
    count = total;
  }

  std::vector<Cube> products;
  products.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Cube term(nvars);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t limb = live[i * words + w]; limb != 0;
           limb &= limb - 1) {
        term.Set(64 * w + static_cast<std::size_t>(std::countr_zero(limb)));
      }
    }
    products.push_back(std::move(term));
  }
  std::sort(products.begin(), products.end(), Cube::OrderBySize);
  return products;
}

std::vector<Cube> PetrickRawExpansion(const CoverProblem& problem,
                                      const PetrickOptions& options) {
  std::vector<Cube> sop{Cube(problem.VariableCount())};  // the identity product
  for (const auto& clause : problem.Clauses()) {
    // Distribute literally: term * (v1 + v2 + ...) = term.v1 + term.v2 + ...,
    // reproducing the paper's intermediate expansion including redundant
    // products.
    std::vector<Cube> next;
    next.reserve(sop.size());
    const auto vars = clause.literals.Variables();
    for (const auto& term : sop) {
      for (std::size_t v : vars) {
        Cube grown = term;
        grown.Set(v);
        next.push_back(grown);
      }
      if (next.size() > options.max_products) ThrowProductCap(options);
    }
    sop = std::move(next);
  }

  // Deduplicate exact repeats (the distribution law creates them when a
  // variable appears in several clauses).
  std::unordered_set<Cube, Cube::Hash> seen;
  std::vector<Cube> unique;
  for (const auto& t : sop) {
    if (seen.insert(t).second) unique.push_back(t);
  }
  std::sort(unique.begin(), unique.end(), Cube::OrderBySize);
  return unique;
}

}  // namespace mcdft::boolcov
