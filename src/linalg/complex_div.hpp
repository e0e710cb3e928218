// Complex division that equals std::complex<double>'s operator/ bit for bit
// on a fast range, without the library call; and the magnitude |z| the same
// way (Magnitude).
//
// `std::complex<double>` `/` compiles to a call of libgcc's __divdc3: Smith's
// method (scale by the larger denominator part) wrapped in range scalings
// and NaN/inf recovery.  The sparse LU divides by the same pivot many times
// per refactorization and solve, so the divisor's half of Smith's method
// (ratio and denominator) is computed once per pivot (DivisorHalf) and every
// division by it is two multiply-adds and two divisions, inlined.
//
// Fast range: every part of numerator and denominator is +-0 or has
// magnitude in [2^-340, 2^340), and the denominator is not zero.  There
// __divdc3 either runs plain Smith's method or scales all four parts by
// 2^52 first (a denominator below 2^-52, or a zero numerator part), and
// every product it forms stays in the normal range (|part * ratio| >=
// 2^-1020), so the exact power-of-two scaling cancels and the result is the
// unscaled Smith's result, zero signs included.  A zero denominator part
// gives ratio +-0, where __divdc3's alternate product order gives the same
// signed zero.  Outside the range the division is the plain `/`.  At
// 2^-400 the claim breaks: (-2^-400 + 0i) / (2^-400 + 2^300 i) has a real
// part of -0 through __divdc3 (its scaled product stays subnormal) but +0
// through unscaled Smith's method.
//
// Callers must build with -ffp-contract=off (mcdft_linalg does): a fused
// multiply-add would round `a * ratio + b` once instead of twice.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/dense.hpp"

namespace mcdft::linalg {

/// Magnitudes in [2^-kDivFastExponent, 2^kDivFastExponent) take the fast
/// path (see the file comment for why 340).
inline constexpr int kDivFastExponent = 340;

/// True when `v` is +-0 or |v| lies in the fast range.  Subnormals,
/// infinities and NaN are outside.
[[gnu::always_inline]] inline bool InDivFastRange(double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v) << 1;  // no sign
  const std::uint64_t biased_exponent = bits >> 53;
  return bits == 0 ||
         biased_exponent - (1023 - kDivFastExponent) <
             static_cast<std::uint64_t>(2 * kDivFastExponent);
}

/// The divisor's half of Smith's method, computed once per divisor.
struct DivisorHalf {
  Complex divisor{0.0, 0.0};
  double ratio = 0.0;       // minor part / major part
  double denom = 0.0;       // minor * ratio + major
  bool imag_major = false;  // |re| < |im|
  bool fast = false;        // divisor in the fast range and not zero
};

[[gnu::always_inline]] inline DivisorHalf MakeDivisorHalf(Complex d) {
  DivisorHalf h;
  h.divisor = d;
  const double c = d.real();
  const double e = d.imag();
  h.fast = InDivFastRange(c) && InDivFastRange(e) && (c != 0.0 || e != 0.0);
  h.imag_major = std::fabs(c) < std::fabs(e);
  if (h.imag_major) {
    h.ratio = c / e;
    h.denom = (c * h.ratio) + e;
  } else {
    h.ratio = e / c;
    h.denom = (e * h.ratio) + c;
  }
  return h;
}

/// The library division, kept out of line so the fast path stays small.
Complex DivideOutOfRange(Complex n, Complex d);

/// n / h.divisor, bit-identical to std::complex's operator/.
[[gnu::always_inline]] inline Complex Divide(Complex n, const DivisorHalf& h) {
  const double a = n.real();
  const double b = n.imag();
  if (!h.fast || !InDivFastRange(a) || !InDivFastRange(b)) [[unlikely]] {
    return DivideOutOfRange(n, h.divisor);
  }
  if (h.imag_major) {
    return Complex(((a * h.ratio) + b) / h.denom,
                   ((b * h.ratio) - a) / h.denom);
  }
  return Complex(((b * h.ratio) + a) / h.denom,
                 (b - (a * h.ratio)) / h.denom);
}

/// n / d for a one-off divisor.
[[gnu::always_inline]] inline Complex Divide(Complex n, Complex d) {
  return Divide(n, MakeDivisorHalf(d));
}

/// |z|, bit-identical to std::abs (NaN where it gives NaN).  std::abs is
/// hypot, and C Annex F makes hypot(x, +-0) = |x| exactly, so a value with
/// a +-0 part (every entry of a real system) skips the library call.
[[gnu::always_inline]] inline double Magnitude(Complex z) {
  if (z.imag() == 0.0) return std::fabs(z.real());
  if (z.real() == 0.0) return std::fabs(z.imag());
  return std::abs(z);
}

}  // namespace mcdft::linalg
