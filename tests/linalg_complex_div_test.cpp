// Contract of linalg::Divide and of SparseLu's hypot-free decisions: the
// same bits and the same answers as the plain std::complex operators, over
// the whole double range.  This file is compiled with -ffp-contract=off,
// like mcdft_linalg, so the kernel is inlined under the same contract.
#include "linalg/complex_div.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "linalg/sparse_lu.hpp"

namespace mcdft::linalg {
namespace {

bool SameBits(Complex x, Complex y) {
  return std::memcmp(&x, &y, sizeof(Complex)) == 0;
}

/// One part of a corpus value.
double RandomPart(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> kind(0, 99);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
  const int k = kind(rng);
  if (k < 8) return sign * 0.0;
  if (k < 18) {
    return sign * static_cast<double>(std::uniform_int_distribution<int>(
                      1, 8)(rng));
  }
  if (k < 48) {  // anywhere in the double range, subnormals included
    const int e = std::uniform_int_distribution<int>(-1074, 1023)(rng);
    return sign * std::ldexp(mantissa(rng), e);
  }
  if (k < 80) {  // around the fast range's edges
    const int e = std::uniform_int_distribution<int>(-420, 420)(rng);
    return sign * std::ldexp(mantissa(rng), e);
  }
  if (k < 90) {  // subnormal
    return sign * std::ldexp(mantissa(rng),
                             std::uniform_int_distribution<int>(-1074, -1023)(
                                 rng));
  }
  if (k < 93) return sign * std::numeric_limits<double>::infinity();
  if (k < 96) return std::numeric_limits<double>::quiet_NaN();
  // Typical MNA magnitudes.
  return sign * std::ldexp(mantissa(rng),
                           std::uniform_int_distribution<int>(-60, 60)(rng));
}

/// A part with a magnitude of about 2^e.
double PartNear(std::mt19937_64& rng, int e) {
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
  return sign * std::ldexp(mantissa(rng), e);
}

struct Tally {
  std::size_t cases = 0;
  std::size_t fast = 0;
  std::size_t mismatches = 0;
};

void Check(Complex n, Complex d, Tally& tally) {
  ++tally.cases;
  if (InDivFastRange(n.real()) && InDivFastRange(n.imag()) &&
      InDivFastRange(d.real()) && InDivFastRange(d.imag()) &&
      d != Complex(0.0, 0.0)) {
    ++tally.fast;
  }
  const Complex expected = n / d;
  const Complex got = Divide(n, d);
  if (!SameBits(expected, got)) {
    if (++tally.mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << "(" << n.real() << ", " << n.imag()
                    << ") / (" << d.real() << ", " << d.imag()
                    << "): std " << expected << ", Divide " << got;
    }
  }
}

TEST(ComplexDiv, MatchesStdComplexDivisionBitwise) {
  std::mt19937_64 rng(0xD1F1DE);
  Tally tally;
  // Mixed corpus: every part drawn independently.
  for (int i = 0; i < 700000; ++i) {
    Check(Complex(RandomPart(rng), RandomPart(rng)),
          Complex(RandomPart(rng), RandomPart(rng)), tally);
  }
  // Circuit-like values: every part a signed zero, a small integer or a
  // magnitude within 2^+-60, so the fast path takes nearly all of them.
  const auto typical = [&rng]() {
    const int k = std::uniform_int_distribution<int>(0, 9)(rng);
    const double sign = (rng() & 1) != 0 ? -1.0 : 1.0;
    if (k == 0) return sign * 0.0;
    if (k == 1) {
      return sign * static_cast<double>(
                        std::uniform_int_distribution<int>(1, 8)(rng));
    }
    return PartNear(rng, std::uniform_int_distribution<int>(-60, 60)(rng));
  };
  for (int i = 0; i < 300000; ++i) {
    Check(Complex(typical(), typical()), Complex(typical(), typical()), tally);
  }
  // Denominators whose larger part is in range and whose smaller part is
  // subnormal or just below the range: a guard on the larger part alone
  // lets these through, and __divdc3 then takes its subnormal-ratio branch.
  for (int i = 0; i < 150000; ++i) {
    const int major = std::uniform_int_distribution<int>(-340, 339)(rng);
    const int minor = std::uniform_int_distribution<int>(-1074, -330)(rng);
    Complex d(PartNear(rng, major), PartNear(rng, minor));
    if ((rng() & 1) != 0) d = Complex(d.imag(), d.real());
    // Half the numerators have a zero part: the small product then decides.
    Complex n(PartNear(rng, std::uniform_int_distribution<int>(-60, 60)(rng)),
              (rng() & 1) != 0 ? 0.0 : RandomPart(rng));
    if ((rng() & 1) != 0) n = Complex(n.imag(), n.real());
    Check(n, d, tally);
  }
  // A zero numerator part makes __divdc3 scale every part by 2^52; with
  // parts a little below 2^-340 a product of the unscaled division
  // underflows where the scaled one does not, e.g. (-2^-400 + 0i) /
  // (2^-400 + 2^300 i) has a real part of -0, not +0.
  Check(Complex(-std::ldexp(1.0, -400), 0.0),
        Complex(std::ldexp(1.0, -400), std::ldexp(1.0, 300)), tally);
  for (int i = 0; i < 150000; ++i) {
    const int lo = std::uniform_int_distribution<int>(-420, -300)(rng);
    const int hi = std::uniform_int_distribution<int>(200, 420)(rng);
    Complex n(PartNear(rng, lo), (rng() & 1) != 0 ? 0.0 : -0.0);
    if ((rng() & 1) != 0) n = Complex(n.imag(), n.real());
    Complex d(PartNear(rng, lo), PartNear(rng, hi));
    if ((rng() & 1) != 0) d = Complex(d.imag(), d.real());
    Check(n, d, tally);
  }
  // One divisor half serving many numerators, as the LU pivots do.
  for (int i = 0; i < 2000; ++i) {
    const Complex d(RandomPart(rng), RandomPart(rng));
    const DivisorHalf half = MakeDivisorHalf(d);
    for (int j = 0; j < 100; ++j) {
      const Complex n(RandomPart(rng), RandomPart(rng));
      ++tally.cases;
      if (!SameBits(n / d, Divide(n, half)) && ++tally.mismatches <= 5) {
        ADD_FAILURE() << std::hexfloat << n << " / " << d << " via a half";
      }
    }
  }
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GE(tally.cases, 1000000u);
  // The fast path must carry a real share of the corpus.
  EXPECT_GT(tally.fast, 300000u) << tally.fast << "/" << tally.cases;
}

TEST(ComplexDiv, FastRangeBoundaries) {
  const double lo = std::ldexp(1.0, -kDivFastExponent);
  const double hi = std::ldexp(1.0, kDivFastExponent);
  EXPECT_TRUE(InDivFastRange(0.0));
  EXPECT_TRUE(InDivFastRange(-0.0));
  EXPECT_TRUE(InDivFastRange(lo));
  EXPECT_TRUE(InDivFastRange(-lo));
  EXPECT_FALSE(InDivFastRange(std::nextafter(lo, 0.0)));
  EXPECT_TRUE(InDivFastRange(std::nextafter(hi, 0.0)));
  EXPECT_FALSE(InDivFastRange(hi));
  EXPECT_FALSE(InDivFastRange(-hi));
  EXPECT_FALSE(InDivFastRange(DBL_TRUE_MIN));
  EXPECT_FALSE(InDivFastRange(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(InDivFastRange(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(MakeDivisorHalf(Complex(0.0, -0.0)).fast);
  EXPECT_TRUE(MakeDivisorHalf(Complex(0.0, 1.0)).fast);
}

/// Magnitudes 1e6 / 1e-300 and a few ulps either side, at several angles.
std::vector<Complex> AroundMagnitude(double limit) {
  std::vector<Complex> out;
  for (double angle : {0.0, 0.5, 0.7853981633974483, 1.0, 1.5707963267948966,
                       2.5, 3.141592653589793, -1.2}) {
    double m = limit;
    for (int i = 0; i < 4; ++i) m = std::nextafter(m, 0.0);
    for (int i = 0; i < 9; ++i) {
      out.emplace_back(m * std::cos(angle), m * std::sin(angle));
      m = std::nextafter(m, std::numeric_limits<double>::infinity());
    }
  }
  for (double m : {limit, std::nextafter(limit, 0.0),
                   std::nextafter(limit, 2.0 * limit)}) {
    out.emplace_back(m, 0.0);
    out.emplace_back(0.0, -m);
    out.emplace_back(m / std::sqrt(2.0), m / std::sqrt(2.0));
  }
  return out;
}

/// Parts near overflow and underflow, zeros, infinities and NaN.
std::vector<Complex> ExtremeParts() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> parts = {0.0,     -0.0,        DBL_TRUE_MIN,
                                     DBL_MIN, 1e-200,      1e-160,
                                     1.0,     1e154,       1e160,
                                     1e200,   DBL_MAX,     -DBL_MAX,
                                     inf,     -inf,        nan};
  std::vector<Complex> out;
  for (double re : parts) {
    for (double im : parts) out.emplace_back(re, im);
  }
  return out;
}

TEST(ComplexMagnitude, MatchesStdAbsBitwise) {
  const auto check = [](Complex z) {
    const double expected = std::abs(z);
    const double got = Magnitude(z);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got))
          << std::hexfloat << "(" << z.real() << ", " << z.imag() << ")";
      return;
    }
    EXPECT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
        << std::hexfloat << "(" << z.real() << ", " << z.imag() << ") -> "
        << expected << " vs " << got;
  };
  // Random parts over the whole range (signed zeros, subnormals, huge
  // values, infinities, NaN), each also paired with +-0.
  std::mt19937_64 rng(77);
  std::size_t one_zero_part = 0;
  for (int i = 0; i < 200000; ++i) {
    const double a = RandomPart(rng);
    const double b = RandomPart(rng);
    check(Complex(a, b));
    check(Complex(b, a));
    for (const double zero : {0.0, -0.0}) {
      check(Complex(a, zero));
      check(Complex(zero, a));
      one_zero_part += 2;
    }
  }
  EXPECT_GT(one_zero_part, 0u);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const double x : {0.0, -0.0, 1.0, -3.5, tiny, -tiny, DBL_MIN, DBL_MAX,
                         -DBL_MAX, inf, -inf, nan}) {
    for (const double y : {0.0, -0.0, 2.0, tiny, DBL_MAX, inf, -inf, nan}) {
      check(Complex(x, y));
      check(Complex(y, x));
    }
  }
}

TEST(SparseLu, PivotTestsMatchStdAbs) {
  std::vector<Complex> cases = AroundMagnitude(SparseLu::kRefactorGrowthLimit);
  for (const Complex& c : AroundMagnitude(SparseLu::kSingularAbs)) {
    cases.push_back(c);
  }
  for (const Complex& c : ExtremeParts()) cases.push_back(c);
  std::mt19937_64 rng(0xAB5);
  std::uniform_real_distribution<double> angle(-3.2, 3.2);
  std::uniform_real_distribution<double> relative(-4e-9, 4e-9);
  for (int i = 0; i < 20000; ++i) {
    const double limit = (i & 1) != 0 ? SparseLu::kRefactorGrowthLimit
                                      : SparseLu::kSingularAbs;
    const double m = limit * (1.0 + relative(rng));
    const double a = angle(rng);
    cases.emplace_back(m * std::cos(a), m * std::sin(a));
  }
  std::size_t growth_true = 0, pivot_true = 0;
  for (const Complex& c : cases) {
    const bool growth = std::abs(c) > SparseLu::kRefactorGrowthLimit;
    const bool vanished = std::abs(c) <= SparseLu::kSingularAbs;
    EXPECT_EQ(SparseLu::ExceedsGrowthLimit(c), growth) << std::hexfloat << c;
    EXPECT_EQ(SparseLu::PivotVanished(c), vanished) << std::hexfloat << c;
    growth_true += growth;
    pivot_true += vanished;
  }
  // Both answers occur, so the cases straddle both limits.
  EXPECT_GT(growth_true, 100u);
  EXPECT_LT(growth_true, cases.size() - 100);
  EXPECT_GT(pivot_true, 100u);
  EXPECT_LT(pivot_true, cases.size() - 100);
}

}  // namespace
}  // namespace mcdft::linalg
