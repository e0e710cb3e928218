// Unit tests of the Sherman-Morrison-Woodbury low-rank update solver: exact
// agreement with a direct solve of the perturbed system, the rank-0 and
// over-rank edge cases, and the conditioning guard that hands a (nearly)
// singular perturbed system back to the exact path.
#include "linalg/lowrank.hpp"

#include <gtest/gtest.h>

#include <random>

#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/error.hpp"
#include "util/faultpoint.hpp"
#include "util/metrics.hpp"

namespace mcdft::linalg {
namespace {

// The solver under test; the fixture below takes its name for the suite.
using Solver = ::mcdft::linalg::LowRankUpdateSolver;

// Every case solves through the `smw.solve` faultpoint, and an injected
// failure would throw out of Solve(): opt out of any armed
// MCDFT_FAULTPOINTS spec.
class LowRankUpdateSolver : public ::testing::Test {
 protected:
  void SetUp() override { util::faultpoint::DisarmAll(); }
  void TearDown() override { util::faultpoint::DisarmAll(); }
};

Vector RandomVector(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = Complex(u(rng), u(rng));
  return v;
}

/// Random diagonally dominant sparse system (always factorizable).
TripletMatrix RandomSystem(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  TripletMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a.Add(i, i, Complex(4.0 + u(rng), u(rng)));
    a.Add(i, pick(rng), Complex(u(rng), u(rng)));
    a.Add(pick(rng), i, Complex(u(rng), u(rng)));
  }
  return a;
}

/// Accumulate the delta into a dense matrix, for the reference solve of
/// A + Delta.
void AddDelta(Matrix& m, const LowRankPerturbation& delta) {
  for (const LowRankTerm& term : delta.terms) {
    for (const auto& [i, uv] : term.u) {
      for (const auto& [j, wv] : term.w) {
        m.At(i, j) += uv * wv;
      }
    }
  }
}

double MaxRelativeError(const Vector& x, const Vector& y) {
  double scale = x.NormInf();
  if (scale == 0.0) scale = 1.0;
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err = std::max(err, std::abs(x[i] - y[i]) / scale);
  }
  return err;
}

TEST_F(LowRankUpdateSolver, MatchesDirectSolveAcrossRandomRanks) {
  constexpr std::size_t kCases = 50;
  for (std::size_t seed = 0; seed < kCases; ++seed) {
    std::mt19937_64 rng(0x10A11 ^ seed);
    const std::size_t n = 4 + seed % 13;
    const TripletMatrix a = RandomSystem(rng, n);
    const Vector b = RandomVector(rng, n);
    SparseLu lu{CsrMatrix(a)};
    Solver solver;
    solver.Bind(lu, b);

    const std::size_t rank = 1 + seed % Solver::kMaxRank;
    LowRankPerturbation delta;
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (std::size_t t = 0; t < rank; ++t) {
      LowRankTerm term;
      term.u.emplace_back(pick(rng), Complex(u(rng), u(rng)));
      term.u.emplace_back(pick(rng), Complex(u(rng), u(rng)));
      term.w.emplace_back(pick(rng), Complex(u(rng), u(rng)));
      term.w.emplace_back(pick(rng), Complex(u(rng), u(rng)));
      delta.terms.push_back(std::move(term));
    }

    const std::optional<Vector> fast = solver.Solve(delta);
    ASSERT_TRUE(fast.has_value()) << "seed " << seed;
    Matrix dense = a.ToDense();
    AddDelta(dense, delta);
    const Vector exact = SolveDense(dense, b);
    EXPECT_LT(MaxRelativeError(*fast, exact), 1e-10) << "seed " << seed;
  }
}

TEST_F(LowRankUpdateSolver, RankZeroReturnsNominalSolution) {
  std::mt19937_64 rng(42);
  const TripletMatrix a = RandomSystem(rng, 6);
  const Vector b = RandomVector(rng, 6);
  SparseLu lu{CsrMatrix(a)};
  Solver solver;
  solver.Bind(lu, b);
  const std::optional<Vector> x = solver.Solve(LowRankPerturbation{});
  ASSERT_TRUE(x.has_value());
  EXPECT_LT(MaxRelativeError(*x, solver.NominalSolution()), 1e-15);
}

TEST_F(LowRankUpdateSolver, RankAboveCapFallsBack) {
  std::mt19937_64 rng(7);
  const TripletMatrix a = RandomSystem(rng, 8);
  const Vector b = RandomVector(rng, 8);
  SparseLu lu{CsrMatrix(a)};
  Solver solver;
  solver.Bind(lu, b);
  LowRankPerturbation delta;
  for (std::size_t t = 0; t <= Solver::kMaxRank; ++t) {
    LowRankTerm term;
    term.u.emplace_back(t, Complex(1.0, 0.0));
    term.w.emplace_back(t, Complex(1.0, 0.0));
    delta.terms.push_back(std::move(term));
  }
  EXPECT_FALSE(solver.Solve(delta).has_value());
}

TEST_F(LowRankUpdateSolver, SolveBeforeBindThrows) {
  Solver solver;
  EXPECT_THROW(solver.Solve(LowRankPerturbation{}), util::NumericError);
}

TEST_F(LowRankUpdateSolver, SingularUpdateTakesFallbackAndBumpsCounter) {
  // Crafted near-singular case: A = I, Delta = -e0 e0^T zeroes the first
  // pivot of A + Delta exactly, so the SMW capacitance matrix is
  // C = 1 + w^T A^{-1} u = 0.  The conditioning guard must refuse the
  // update (SMW would divide by ~0) and count a fallback.
  util::metrics::ScopedEnable metrics_on;
  TripletMatrix a(2, 2);
  a.Add(0, 0, Complex(1.0, 0.0));
  a.Add(1, 1, Complex(1.0, 0.0));
  Vector b(2);
  b[0] = Complex(1.0, 0.0);
  b[1] = Complex(2.0, 0.0);
  SparseLu lu{CsrMatrix(a)};
  Solver solver;
  solver.Bind(lu, b);

  LowRankPerturbation delta;
  LowRankTerm term;
  term.u.emplace_back(0, Complex(1.0, 0.0));
  term.w.emplace_back(0, Complex(-1.0, 0.0));
  delta.terms.push_back(std::move(term));

  util::metrics::Counter& fallback =
      util::metrics::GetCounter("linalg.smw.fallback");
  const std::uint64_t before = fallback.Value();
  EXPECT_FALSE(solver.Solve(delta).has_value());
  EXPECT_EQ(fallback.Value(), before + 1);
}

}  // namespace
}  // namespace mcdft::linalg
