// Frequency-response container and the deviation analysis at the heart of
// the paper's testability metric: the relative deviation |dT/T|(omega)
// between a faulty and the fault-free response.
#pragma once

#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "linalg/complex_div.hpp"
#include "util/error.hpp"

namespace mcdft::spice {

/// Sampled complex frequency response T(j*omega) on a frequency grid (Hz).
struct FrequencyResponse {
  std::vector<double> freqs_hz;
  std::vector<std::complex<double>> values;
  std::string label;

  /// Per-point quarantine mask from the resilient fault simulator: true at
  /// points where every solve attempt (SMW, exact, jittered-pivot, dense)
  /// failed or returned a non-finite value.  Empty means no point is
  /// quarantined (the common case: the mask is only allocated on first
  /// quarantine).  Quarantined points hold the placeholder value (0, 0)
  /// and are excluded from detectability with the documented convention.
  std::vector<bool> quarantined;

  std::size_t PointCount() const { return freqs_hz.size(); }

  /// True when point i is quarantined.
  bool QuarantinedAt(std::size_t i) const {
    return i < quarantined.size() && quarantined[i];
  }

  /// Number of quarantined points (0 when the mask is empty).
  std::size_t QuarantinedCount() const {
    std::size_t n = 0;
    for (bool q : quarantined) n += q ? 1 : 0;
    return n;
  }

  /// Mark point i quarantined, allocating the mask on first use.
  void MarkQuarantined(std::size_t i) {
    if (quarantined.size() < freqs_hz.size()) {
      quarantined.assign(freqs_hz.size(), false);
    }
    quarantined[i] = true;
  }

  /// |T| at point i.
  double MagnitudeAt(std::size_t i) const { return std::abs(values[i]); }

  /// 20*log10|T| at point i (clamped at -400 dB for exact zeros).
  double MagnitudeDbAt(std::size_t i) const;

  /// Phase in degrees at point i.
  double PhaseDegAt(std::size_t i) const;

  /// Index of the grid point with maximum |T| (the passband peak).
  std::size_t PeakIndex() const;

  /// Throws AnalysisError unless sizes are consistent and non-empty.
  void CheckConsistent() const;
};

/// Pointwise relative deviation between a faulty response and a reference:
///   dev_i = |T_faulty_i - T_ref_i| / max(|T_ref_i|, floor)
/// where `floor` = `relative_floor` * max_i |T_ref_i| guards the stopband
/// against division by (near-)zero — a deep-stopband reference would
/// otherwise declare every fault detectable from numerical noise.
/// The two responses must share the same grid.
std::vector<double> RelativeDeviation(const FrequencyResponse& faulty,
                                      const FrequencyResponse& reference,
                                      double relative_floor = 1e-9);

/// Magnitude-only variant: dev_i = ||T_faulty_i| - |T_ref_i|| / denom_i with
/// the same denominator rule as RelativeDeviation.  This is what a
/// magnitude-measuring tester can actually observe — always <= the complex
/// deviation (phase-only deviations are invisible to it).
std::vector<double> MagnitudeDeviation(const FrequencyResponse& faulty,
                                       const FrequencyResponse& reference,
                                       double relative_floor = 1e-9);

/// The per-point denominator max(|T_ref_i|, relative_floor * max_j
/// |T_ref_j|) both deviation variants divide by, exposed so the sensitivity
/// screen can evaluate its first-order |dT/T| estimates with the exact
/// arithmetic the detectability comparison will later apply — the screen's
/// classifications then agree bit-for-bit with the unscreened verdicts.
std::vector<double> DeviationDenominators(const FrequencyResponse& reference,
                                          double relative_floor);

/// The same denominators from the reference magnitudes |T_ref_i|
/// (linalg::Magnitude of each value), for callers that keep them.
std::vector<double> DeviationDenominators(const std::vector<double>& magnitude,
                                          double relative_floor);

/// One point of RelativeDeviation: |faulty - reference| / denom.
inline double PointDeviation(std::complex<double> faulty,
                             std::complex<double> reference, double denom) {
  return linalg::Magnitude(faulty - reference) / denom;
}

/// One point of MagnitudeDeviation, from the reference magnitude:
/// ||faulty| - reference_magnitude| / denom.
inline double PointMagnitudeDeviation(std::complex<double> faulty,
                                      double reference_magnitude,
                                      double denom) {
  return std::fabs(linalg::Magnitude(faulty) - reference_magnitude) / denom;
}

}  // namespace mcdft::spice
