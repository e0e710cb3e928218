#include "linalg/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "util/error.hpp"
#include "linalg/lu.hpp"

namespace mcdft::linalg {
namespace {

/// Random sparse diagonally-dominant system.
TripletMatrix RandomSparse(std::size_t n, double density, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  TripletMatrix t(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) {
        t.Add(r, c, Complex(3.0 + u(rng), u(rng)));
      } else if (coin(rng) < density) {
        t.Add(r, c, Complex(u(rng), u(rng)) * 0.3);
      }
    }
  }
  return t;
}

TEST(SparseLu, SolvesDiagonalSystem) {
  TripletMatrix t(3, 3);
  t.Add(0, 0, Complex(2, 0));
  t.Add(1, 1, Complex(4, 0));
  t.Add(2, 2, Complex(0, 2));
  Vector b(3);
  b[0] = Complex(2, 0);
  b[1] = Complex(8, 0);
  b[2] = Complex(0, 4);
  Vector x = SolveSparse(CsrMatrix(t), b);
  EXPECT_NEAR(std::abs(x[0] - Complex(1, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(x[1] - Complex(2, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(x[2] - Complex(2, 0)), 0.0, 1e-14);
}

TEST(SparseLu, RequiresSquare) {
  TripletMatrix t(2, 3);
  EXPECT_THROW(SparseLu{CsrMatrix(t)}, util::NumericError);
}

TEST(SparseLu, SingularThrowsCategorizedError) {
  TripletMatrix t(2, 2);
  t.Add(0, 0, Complex(1, 0));
  t.Add(0, 1, Complex(1, 0));
  t.Add(1, 0, Complex(1, 0));
  t.Add(1, 1, Complex(1, 0));
  try {
    SparseLu lu{CsrMatrix(t)};
    FAIL() << "singular factorization did not throw";
  } catch (const util::McdftError& e) {
    EXPECT_EQ(e.Category(), util::ErrorCategory::kSingularSystem);
  }
}

// A rejected refactor leaves no usable factor: solves throw until a later
// Refactor succeeds (the pivot halves of the rejected pass are partial).
TEST(SparseLu, RejectedRefactorInvalidatesUntilNextRefactor) {
  const auto matrix = [](double a) {
    TripletMatrix t(2, 2);
    t.Add(0, 0, Complex(a, 0));
    t.Add(0, 1, Complex(1, 0));
    t.Add(1, 0, Complex(1, 0));
    t.Add(1, 1, Complex(1.5, 0));
    return CsrMatrix(t);
  };
  Vector b(2);
  b[0] = Complex(1, 0);
  b[1] = Complex(2, 0);
  SparseLu lu(matrix(2.0));  // pivots on (0, 0)
  EXPECT_FALSE(lu.Refactor(matrix(1e-8)));  // multiplier 1e8 > 1e6
  EXPECT_THROW(lu.Solve(b), util::NumericError);
  EXPECT_THROW(lu.SolveTranspose(b), util::NumericError);
  ASSERT_TRUE(lu.Refactor(matrix(2.0)));
  const Vector x = lu.Solve(b);
  EXPECT_NEAR(std::abs(x[0] - Complex(-0.25, 0)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(x[1] - Complex(1.5, 0)), 0.0, 1e-14);
}

// A program serves another factor of its pattern only under the same
// pivot order.
TEST(SparseLu, AdoptsOnlyAProgramOfItsPivotOrder) {
  TripletMatrix t(2, 2);
  t.Add(0, 0, Complex(4, 0));
  t.Add(0, 1, Complex(1, 0));
  t.Add(1, 0, Complex(1, 0));
  t.Add(1, 1, Complex(3, 0));
  TripletMatrix u = t;
  u.Add(0, 0, Complex(-3.9, 0));  // (0, 0) = 0.1: pivots elsewhere
  SparseLu first{CsrMatrix(t)};
  first.EnsureFactorProgram();
  SparseLu same{CsrMatrix(t)};
  SparseLu other{CsrMatrix(u)};
  EXPECT_FALSE(other.AdoptProgram(first.Program()));
  EXPECT_FALSE(other.HasFactorProgram());
  ASSERT_TRUE(same.AdoptProgram(first.Program()));
  EXPECT_EQ(same.Program(), first.Program());
  Vector b(2);
  b[0] = Complex(1, 0);
  b[1] = Complex(2, 0);
  ASSERT_TRUE(same.Refactor(CsrMatrix(t)));
  const Vector x = same.Solve(b);
  const Vector y = first.Solve(b);
  EXPECT_EQ(x[0], y[0]);
  EXPECT_EQ(x[1], y[1]);
}

TEST(SparseLu, StructurallySingularThrows) {
  TripletMatrix t(2, 2);
  t.Add(0, 0, Complex(1, 0));  // row/col 1 empty
  EXPECT_THROW(SparseLu{CsrMatrix(t)}, util::McdftError);
}

TEST(SparseLu, PermutedIdentity) {
  TripletMatrix t(3, 3);
  t.Add(0, 2, Complex(1, 0));
  t.Add(1, 0, Complex(1, 0));
  t.Add(2, 1, Complex(1, 0));
  Vector b(3);
  b[0] = Complex(10, 0);
  b[1] = Complex(20, 0);
  b[2] = Complex(30, 0);
  Vector x = SolveSparse(CsrMatrix(t), b);
  EXPECT_NEAR(x[2].real(), 10.0, 1e-14);
  EXPECT_NEAR(x[0].real(), 20.0, 1e-14);
  EXPECT_NEAR(x[1].real(), 30.0, 1e-14);
}

TEST(SparseLu, SolveDimensionMismatchThrows) {
  TripletMatrix t(2, 2);
  t.Add(0, 0, Complex(1, 0));
  t.Add(1, 1, Complex(1, 0));
  SparseLu lu{CsrMatrix(t)};
  Vector b(3);
  EXPECT_THROW(lu.Solve(b), util::NumericError);
}

TEST(SparseLu, FactorNonZeroCountAtLeastMatrixNnz) {
  std::mt19937_64 rng(3);
  TripletMatrix t = RandomSparse(20, 0.15, rng);
  CsrMatrix csr(t);
  SparseLu lu(csr);
  EXPECT_GE(lu.FactorNonZeroCount(), 20u);  // at least the diagonal
}

struct SparseCase {
  std::size_t n;
  double density;
};

class SparseLuPropertyTest : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseLuPropertyTest, MatchesDenseSolver) {
  std::mt19937_64 rng(500 + GetParam().n);
  for (int trial = 0; trial < 3; ++trial) {
    TripletMatrix t = RandomSparse(GetParam().n, GetParam().density, rng);
    CsrMatrix csr(t);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    Vector b(GetParam().n);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = Complex(u(rng), u(rng));
    Vector xs = SolveSparse(csr, b);
    Vector xd = SolveDense(t.ToDense(), b);
    for (std::size_t i = 0; i < b.size(); ++i) {
      EXPECT_NEAR(std::abs(xs[i] - xd[i]), 0.0, 1e-9)
          << "n=" << GetParam().n << " i=" << i;
    }
  }
}

TEST_P(SparseLuPropertyTest, ResidualSmall) {
  std::mt19937_64 rng(900 + GetParam().n);
  TripletMatrix t = RandomSparse(GetParam().n, GetParam().density, rng);
  CsrMatrix csr(t);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Vector b(GetParam().n);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = Complex(u(rng), u(rng));
  Vector x = SolveSparse(csr, b);
  Vector r = csr.Multiply(x);
  r.Axpy(Complex(-1.0, 0.0), b);
  EXPECT_LT(r.Norm2() / (b.Norm2() + 1e-30), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseLuPropertyTest,
    ::testing::Values(SparseCase{4, 0.5}, SparseCase{10, 0.3},
                      SparseCase{25, 0.15}, SparseCase{50, 0.08},
                      SparseCase{100, 0.04}, SparseCase{64, 1.0}));

TEST(SparseLu, PivotThresholdOneIsPartialPivoting) {
  std::mt19937_64 rng(42);
  TripletMatrix t = RandomSparse(30, 0.2, rng);
  CsrMatrix csr(t);
  Vector b(30);
  for (std::size_t i = 0; i < 30; ++i) b[i] = Complex(1.0, 0.0);
  SparseLuOptions strict;
  strict.pivot_threshold = 1.0;
  Vector x1 = SolveSparse(csr, b, strict);
  Vector x2 = SolveDense(t.ToDense(), b);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_NEAR(std::abs(x1[i] - x2[i]), 0.0, 1e-9);
  }
}

/// Random sparse real system whose strong entries sit on a random
/// permutation, so pivots land off the diagonal and the elimination fills
/// in.  `scale` multiplies every entry (to push pivots outside Divide's
/// fast range).
TripletMatrix RandomRealSparse(std::size_t n, double density, double scale,
                               std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  TripletMatrix t(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (c == perm[r]) {
        t.Add(r, c, Complex(scale * (2.0 + u(rng)), 0.0));
      } else if (coin(rng) < density) {
        t.Add(r, c, Complex(scale * u(rng), 0.0));
      }
    }
  }
  return t;
}

TEST(SparseLuRealFactor, MatchesComplexSolveOnRandomRealSystems) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const double scales[] = {1.0, 1e-120, 1e120, 1e-250, 1e250};
  std::size_t systems = 0;
  std::size_t filled = 0;
  RealLuFactor real;  // one object refilled for every system
  std::vector<double> br;
  std::vector<double> xr;
  for (int trial = 0; trial < 250; ++trial) {
    const std::size_t n = 3 + rng() % 38;
    const double density = 0.05 + 0.3 * (u(rng) + 1.0) / 2.0;
    const double scale = scales[trial % 5];
    const TripletMatrix t = RandomRealSparse(n, density, scale, rng);
    const CsrMatrix csr(t);
    SparseLu lu(csr);
    if (lu.FactorNonZeroCount() > csr.NonZeroCount()) ++filled;
    ASSERT_TRUE(lu.CopyRealFactor(real)) << "trial " << trial;
    ++systems;
    for (int rhs = 0; rhs < 3; ++rhs) {
      Vector b(n);
      br.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        br[i] = rhs == 0 && i % 3 == 0 ? 0.0 : u(rng) * scale;
        b[i] = Complex(br[i], 0.0);
      }
      const Vector x = lu.Solve(b);
      real.Solve(br, xr);
      ASSERT_EQ(xr.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        // == ignores the sign of a zero, the one thing that may differ.
        EXPECT_EQ(xr[i], x[i].real()) << "trial " << trial << " i " << i;
        EXPECT_EQ(x[i].imag(), 0.0) << "trial " << trial << " i " << i;
      }
    }
  }
  EXPECT_GE(systems, 200u);
  EXPECT_GE(filled, 100u);  // most systems fill in
}

TEST(SparseLuRealFactor, RefusesANonRealFactor) {
  TripletMatrix t(2, 2);
  t.Add(0, 0, Complex(2.0, 0.0));
  t.Add(0, 1, Complex(1.0, 0.0));
  t.Add(1, 0, Complex(1.0, 0.0));
  t.Add(1, 1, Complex(3.0, 0.0));
  RealLuFactor real;
  EXPECT_TRUE(SparseLu(CsrMatrix(t)).CopyRealFactor(real));
  // One non-real entry: the factor holds a non-real value.
  t.Add(1, 1, Complex(0.0, 1e-300));
  EXPECT_FALSE(SparseLu(CsrMatrix(t)).CopyRealFactor(real));
  // A NaN imaginary part is not exactly 0 either (row 1 pivots first, so
  // the NaN entry becomes a multiplier).
  TripletMatrix nan_part(2, 2);
  nan_part.Add(0, 0, Complex(2.0, 0.0));
  nan_part.Add(0, 1, Complex(1.0, std::nan("")));
  nan_part.Add(1, 1, Complex(3.0, 0.0));
  EXPECT_FALSE(SparseLu(CsrMatrix(nan_part)).CopyRealFactor(real));
}

TEST(SparseLuRealFactor, NeedsTheFactorFromConstruction) {
  TripletMatrix t(2, 2);
  t.Add(0, 0, Complex(2.0, 0.0));
  t.Add(1, 1, Complex(3.0, 0.0));
  SparseLu lu{CsrMatrix(t)};
  lu.EnsureFactorProgram();
  RealLuFactor real;
  EXPECT_THROW(lu.CopyRealFactor(real), util::NumericError);
}

TEST(SparseLuRealFactor, RefusesAnEliminationThatOverflows) {
  // Every entry is finite and real, but the elimination multiplies entries
  // of 1e300 and 1e200: a product overflows, and once an infinity meets a
  // zero imaginary part the factor holds a NaN one.
  TripletMatrix t(4, 4);
  const auto add = [&](std::size_t r, std::size_t c, double v) {
    t.Add(r, c, Complex(v, 0.0));
  };
  add(0, 2, 1e200);
  add(0, 3, 1e200);
  add(1, 2, 1e200);
  add(1, 3, 1.0);
  add(2, 1, 1.0);
  add(2, 2, 1e300);
  add(3, 0, 1.0);
  add(3, 1, 1e300);
  add(3, 3, 1e300);
  SparseLu lu{CsrMatrix(t)};
  RealLuFactor real;
  EXPECT_FALSE(lu.CopyRealFactor(real));
  const Vector x = lu.Solve(Vector(4, Complex(1.0, 0.0)));
  EXPECT_FALSE(std::all_of(x.data().begin(), x.data().end(),
                           [](Complex v) { return std::isfinite(v.real()); }));
}

}  // namespace
}  // namespace mcdft::linalg
