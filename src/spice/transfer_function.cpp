#include "spice/transfer_function.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace mcdft::spice {

double FrequencyResponse::MagnitudeDbAt(std::size_t i) const {
  const double mag = MagnitudeAt(i);
  if (mag <= 0.0) return -400.0;
  return 20.0 * std::log10(mag);
}

double FrequencyResponse::PhaseDegAt(std::size_t i) const {
  return std::arg(values[i]) * 180.0 / std::numbers::pi;
}

std::size_t FrequencyResponse::PeakIndex() const {
  CheckConsistent();
  std::size_t best = 0;
  double best_mag = MagnitudeAt(0);
  for (std::size_t i = 1; i < PointCount(); ++i) {
    const double m = MagnitudeAt(i);
    if (m > best_mag) {
      best_mag = m;
      best = i;
    }
  }
  return best;
}

void FrequencyResponse::CheckConsistent() const {
  if (freqs_hz.empty() || freqs_hz.size() != values.size()) {
    throw util::AnalysisError("inconsistent frequency response '" + label +
                              "': " + std::to_string(freqs_hz.size()) +
                              " freqs vs " + std::to_string(values.size()) +
                              " values");
  }
}

std::vector<double> DeviationDenominators(const FrequencyResponse& reference,
                                          double relative_floor) {
  reference.CheckConsistent();
  std::vector<double> magnitude(reference.PointCount());
  for (std::size_t i = 0; i < magnitude.size(); ++i) {
    magnitude[i] = linalg::Magnitude(reference.values[i]);
  }
  return DeviationDenominators(magnitude, relative_floor);
}

std::vector<double> DeviationDenominators(const std::vector<double>& magnitude,
                                          double relative_floor) {
  double peak = 0.0;
  for (const double m : magnitude) peak = std::max(peak, m);
  const double floor = std::max(relative_floor * peak, 1e-300);
  std::vector<double> denom(magnitude.size());
  for (std::size_t i = 0; i < denom.size(); ++i) {
    denom[i] = std::max(magnitude[i], floor);
  }
  return denom;
}

namespace {

std::vector<double> DeviationImpl(const FrequencyResponse& faulty,
                                  const FrequencyResponse& reference,
                                  double relative_floor, bool magnitude_only) {
  faulty.CheckConsistent();
  reference.CheckConsistent();
  if (faulty.freqs_hz != reference.freqs_hz) {
    throw util::AnalysisError(
        "relative deviation requires identical frequency grids");
  }
  const std::vector<double> denoms =
      DeviationDenominators(reference, relative_floor);

  std::vector<double> dev(reference.PointCount());
  for (std::size_t i = 0; i < dev.size(); ++i) {
    dev[i] = magnitude_only
                 ? PointMagnitudeDeviation(
                       faulty.values[i],
                       linalg::Magnitude(reference.values[i]), denoms[i])
                 : PointDeviation(faulty.values[i], reference.values[i],
                                  denoms[i]);
  }
  return dev;
}

}  // namespace

std::vector<double> RelativeDeviation(const FrequencyResponse& faulty,
                                      const FrequencyResponse& reference,
                                      double relative_floor) {
  return DeviationImpl(faulty, reference, relative_floor, false);
}

std::vector<double> MagnitudeDeviation(const FrequencyResponse& faulty,
                                       const FrequencyResponse& reference,
                                       double relative_floor) {
  return DeviationImpl(faulty, reference, relative_floor, true);
}

}  // namespace mcdft::spice
