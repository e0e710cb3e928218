#include "boolcov/petrick.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

namespace mcdft::boolcov {
namespace {

std::string Name(std::size_t v) { return "C" + std::to_string(v); }

/// Check that `term` satisfies every clause of `problem`.
bool Satisfies(const Cube& term, const CoverProblem& problem) {
  for (const auto& clause : problem.Clauses()) {
    if (term.Intersect(clause.literals).Empty()) return false;
  }
  return true;
}

TEST(Petrick, PaperReducedExpression) {
  // xi_compl = (C1+C4+C5).(C1+C5) from the paper's Fig. 6; the minimal
  // solutions are C1 and C5 (C4 only appears in dominated products).
  CoverProblem p(7);
  p.AddClause({Cube(7, {1, 4, 5}), "fR3"});
  p.AddClause({Cube(7, {1, 5}), "fC2"});
  auto sop = PetrickMinimalProducts(p);
  ASSERT_EQ(sop.size(), 2u);
  EXPECT_EQ(sop[0].Variables(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(sop[1].Variables(), (std::vector<std::size_t>{5}));
}

TEST(Petrick, PaperRawExpansionContainsAllFiveProducts) {
  // The paper lists xi = C1.C2 + C1.C2.C5 + C1.C2.C4 + C2.C4.C5 + C2.C5
  // before absorption.  Expanding (C2).(C1+C4+C5).(C1+C5) raw must contain
  // those products (after dedup).
  CoverProblem p(7);
  p.AddClause({Cube(7, {2}), "ess"});
  p.AddClause({Cube(7, {1, 4, 5}), "fR3"});
  p.AddClause({Cube(7, {1, 5}), "fC2"});
  auto raw = PetrickRawExpansion(p);
  auto contains = [&](std::initializer_list<std::size_t> vars) {
    Cube c(7);
    for (auto v : vars) c.Set(v);
    return std::find(raw.begin(), raw.end(), c) != raw.end();
  };
  EXPECT_TRUE(contains({1, 2}));
  EXPECT_TRUE(contains({1, 2, 5}));
  EXPECT_TRUE(contains({1, 2, 4}));
  EXPECT_TRUE(contains({2, 4, 5}));
  EXPECT_TRUE(contains({2, 5}));
  EXPECT_EQ(raw.size(), 5u);
}

TEST(Petrick, PaperAbsorbedExpansion) {
  // After absorption only C2.C1 and C2.C5 remain (the paper's two minimal
  // test configuration sets, Sec. 4.2).
  CoverProblem p(7);
  p.AddClause({Cube(7, {2}), "ess"});
  p.AddClause({Cube(7, {1, 4, 5}), "fR3"});
  p.AddClause({Cube(7, {1, 5}), "fC2"});
  auto sop = PetrickMinimalProducts(p);
  ASSERT_EQ(sop.size(), 2u);
  EXPECT_EQ(sop[0].Variables(), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(sop[1].Variables(), (std::vector<std::size_t>{2, 5}));
}

TEST(Petrick, SingleClause) {
  CoverProblem p(3);
  p.AddClause({Cube(3, {0, 2}), "x"});
  auto sop = PetrickMinimalProducts(p);
  ASSERT_EQ(sop.size(), 2u);
  EXPECT_EQ(sop[0].LiteralCount(), 1u);
}

TEST(Petrick, EmptyProblemYieldsIdentity) {
  CoverProblem p(3);
  auto sop = PetrickMinimalProducts(p);
  ASSERT_EQ(sop.size(), 1u);
  EXPECT_TRUE(sop[0].Empty());
}

TEST(Petrick, IdempotentClausesCollapse) {
  // (a+b)(a+b)(a+b) == (a+b).
  CoverProblem p(2);
  for (int i = 0; i < 3; ++i) p.AddClause({Cube(2, {0, 1}), "same"});
  auto sop = PetrickMinimalProducts(p);
  EXPECT_EQ(sop.size(), 2u);
}

TEST(Petrick, ExpansionLimitThrows) {
  // 2^20 products without absorption: must trip the guard.
  CoverProblem p(40);
  for (std::size_t i = 0; i < 20; ++i) {
    p.AddClause({Cube(40, {2 * i, 2 * i + 1}), "c" + std::to_string(i)});
  }
  PetrickOptions tight;
  tight.max_products = 1000;
  EXPECT_THROW(PetrickRawExpansion(p, tight), util::OptimizationError);
}

TEST(Petrick, AbsorbedResultIsIrredundant) {
  CoverProblem p(5);
  p.AddClause({Cube(5, {0, 1}), "a"});
  p.AddClause({Cube(5, {1, 2}), "b"});
  p.AddClause({Cube(5, {3, 4}), "c"});
  auto sop = PetrickMinimalProducts(p);
  for (std::size_t i = 0; i < sop.size(); ++i) {
    EXPECT_TRUE(Satisfies(sop[i], p));
    for (std::size_t j = 0; j < sop.size(); ++j) {
      if (i != j) EXPECT_FALSE(sop[i].SubsetOf(sop[j]));
    }
  }
}

/// Independent oracle: every minimal hitting set of `clauses` (bit masks
/// over `nvars` <= 16 variables), by exhaustive enumeration, sorted by size
/// and then lexicographically on the ascending variable lists.
std::vector<std::vector<std::size_t>> BruteForceMinimalCovers(
    std::size_t nvars, const std::vector<std::uint32_t>& clauses) {
  const auto hits_all = [&](std::uint32_t set) {
    for (std::uint32_t c : clauses) {
      if ((set & c) == 0) return false;
    }
    return true;
  };
  std::vector<std::vector<std::size_t>> minimal;
  for (std::uint32_t set = 0; set < (1u << nvars); ++set) {
    if (!hits_all(set)) continue;
    // Hitting sets are closed upwards, so a set is minimal exactly when
    // dropping any one of its variables loses a clause.
    bool is_minimal = true;
    for (std::size_t v = 0; v < nvars && is_minimal; ++v) {
      if ((set >> v) & 1u) is_minimal = !hits_all(set & ~(1u << v));
    }
    if (!is_minimal) continue;
    std::vector<std::size_t> vars;
    for (std::size_t v = 0; v < nvars; ++v) {
      if ((set >> v) & 1u) vars.push_back(v);
    }
    minimal.push_back(std::move(vars));
  }
  std::sort(minimal.begin(), minimal.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  return minimal;
}

TEST(Petrick, MinimalProductsMatchBruteForce) {
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 240; ++trial) {
    const std::size_t nvars = 1 + rng() % 14;
    const std::size_t nclauses = 1 + rng() % 10;
    const std::uint32_t all = (1u << nvars) - 1;
    std::vector<std::uint32_t> masks;
    CoverProblem p(nvars);
    while (masks.size() < nclauses) {
      std::uint32_t mask = 0;
      const std::uint64_t kind = rng() % 4;
      if (kind == 0 && !masks.empty()) {
        mask = masks[rng() % masks.size()];  // repeated clause
      } else if (kind == 1 && !masks.empty()) {
        // Nested clause: a subset or a superset of an earlier one.
        const std::uint32_t base = masks[rng() % masks.size()];
        const std::uint32_t noise = static_cast<std::uint32_t>(rng()) & all;
        mask = (rng() % 2 == 0) ? (base & noise) : (base | noise);
      } else {
        // Random clause; density varies so both sparse and dense occur.
        const std::uint64_t density = 2 + rng() % 5;
        for (std::size_t v = 0; v < nvars; ++v) {
          if (rng() % density == 0) mask |= 1u << v;
        }
      }
      if (mask == 0) continue;
      masks.push_back(mask);
      Cube lits(nvars);
      for (std::size_t v = 0; v < nvars; ++v) {
        if ((mask >> v) & 1u) lits.Set(v);
      }
      p.AddClause({lits, "c" + std::to_string(masks.size())});
    }
    const auto expected = BruteForceMinimalCovers(nvars, masks);
    const auto sop = PetrickMinimalProducts(p);
    ASSERT_EQ(sop.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < sop.size(); ++i) {
      ASSERT_EQ(sop[i].Variables(), expected[i])
          << "trial " << trial << ", product " << i;
    }
  }
}

TEST(Petrick, MinimalExpansionCapCountsAClausesMinimalSet) {
  // Ten disjoint two-literal clauses: 2^10 = 1024 minimal products, none
  // absorbed, so the last clause's minimal set is the whole answer.
  CoverProblem p(20);
  for (std::size_t i = 0; i < 10; ++i) {
    p.AddClause({Cube(20, {2 * i, 2 * i + 1}), "c" + std::to_string(i)});
  }
  PetrickOptions tight;
  tight.max_products = 1023;
  try {
    PetrickMinimalProducts(p, tight);
    FAIL() << "expected the product cap to trip";
  } catch (const util::OptimizationError& e) {
    EXPECT_STREQ(e.what(),
                 "optimization: Petrick expansion exceeded 1023 products; "
                 "use the set-cover heuristics instead");
  }
  tight.max_products = 1024;
  const auto sop = PetrickMinimalProducts(p, tight);
  ASSERT_EQ(sop.size(), 1024u);
  for (const auto& term : sop) EXPECT_EQ(term.LiteralCount(), 10u);
  EXPECT_EQ(sop.front().Variables(),
            (std::vector<std::size_t>{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}));
  EXPECT_EQ(sop.back().Variables(),
            (std::vector<std::size_t>{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}));
}

class PetrickPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PetrickPropertyTest, AllProductsCoverAndAreMinimal) {
  std::mt19937_64 rng(GetParam());
  const std::size_t nvars = 6;
  const std::size_t nclauses = 5;
  CoverProblem p(nvars);
  for (std::size_t c = 0; c < nclauses; ++c) {
    Cube lits(nvars);
    while (lits.Empty()) {
      for (std::size_t v = 0; v < nvars; ++v) {
        if (rng() % 3 == 0) lits.Set(v);
      }
    }
    p.AddClause({lits, "c" + std::to_string(c)});
  }
  auto sop = PetrickMinimalProducts(p);
  ASSERT_FALSE(sop.empty());
  // Brute force: enumerate all 2^6 subsets; collect the minimal covers.
  std::vector<Cube> minimal;
  for (std::size_t mask = 0; mask < (1u << nvars); ++mask) {
    Cube c(nvars);
    for (std::size_t v = 0; v < nvars; ++v) {
      if (mask & (1u << v)) c.Set(v);
    }
    if (!Satisfies(c, p)) continue;
    bool dominated = false;
    for (std::size_t sub = 0; sub < (1u << nvars); ++sub) {
      if (sub == mask || (sub & mask) != sub) continue;
      Cube s(nvars);
      for (std::size_t v = 0; v < nvars; ++v) {
        if (sub & (1u << v)) s.Set(v);
      }
      if (Satisfies(s, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(c);
  }
  std::sort(minimal.begin(), minimal.end(), Cube::OrderBySize);
  EXPECT_EQ(sop, minimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PetrickPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace mcdft::boolcov
