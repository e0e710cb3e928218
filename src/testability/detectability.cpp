#include "testability/detectability.hpp"

#include <cmath>
#include <limits>

#include "linalg/complex_div.hpp"

namespace mcdft::testability {

namespace {

/// Narrow a finite double deviation into the float the region stores.
/// Catastrophic (open/short) faults can push deviations past float range;
/// saturating keeps every stored value finite — a checkpointed region must
/// reload to the exact bytes the in-memory campaign holds, and the JSON
/// layer has no representation for Inf.
float SaturateToFloat(double v) {
  constexpr double kMax = std::numeric_limits<float>::max();
  return static_cast<float>(std::min(v, kMax));
}

}  // namespace

ScoringReference::ScoringReference(const spice::FrequencyResponse& nominal,
                                   const DetectionCriteria& criteria)
    : nominal(nominal) {
  if (!(criteria.epsilon > 0.0)) {
    throw util::AnalysisError("detection tolerance epsilon must be positive");
  }
  nominal.CheckConsistent();
  const std::size_t n = nominal.PointCount();
  if (!criteria.envelope.empty() && criteria.envelope.size() != n) {
    throw util::AnalysisError(
        "tolerance envelope size does not match the sweep grid");
  }
  magnitude.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    magnitude[i] = linalg::Magnitude(nominal.values[i]);
  }
  denom = spice::DeviationDenominators(magnitude, criteria.relative_floor);
  threshold.resize(n);
  for (std::size_t i = 0; i < n; ++i) threshold[i] = criteria.ThresholdAt(i);
  // Region weights: log-frequency Lebesgue measure for AC sweeps
  // (Definition 2); uniform per-sample weights for time-domain
  // trajectories, where the measure is the detected fraction of the
  // step-response window.
  if (criteria.time_domain) {
    weight.assign(n, 1.0 / static_cast<double>(n));
  } else {
    weight = ReferenceBand::LogMeasureWeights(nominal.freqs_hz);
  }
}

FaultDetectability AnalyzeFault(const faults::Fault& fault,
                                const spice::FrequencyResponse& nominal,
                                const spice::FrequencyResponse& faulty,
                                const DetectionCriteria& criteria) {
  return AnalyzeFault(fault, ScoringReference(nominal, criteria), faulty);
}

FaultDetectability AnalyzeFault(const faults::Fault& fault,
                                const ScoringReference& reference,
                                const spice::FrequencyResponse& faulty) {
  const spice::FrequencyResponse& nominal = reference.nominal;
  faulty.CheckConsistent();
  if (faulty.freqs_hz != nominal.freqs_hz) {
    throw util::AnalysisError(
        "relative deviation requires identical frequency grids");
  }
  const std::size_t n = nominal.PointCount();
  FaultDetectability out{fault};
  out.region.mask.resize(n, false);
  out.region.magnitude_mask.resize(n, false);
  out.region.deviation.resize(n, 0.0f);
  out.region.magnitude_deviation.resize(n, 0.0f);

  double measure = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dev = spice::PointDeviation(
        faulty.values[i], nominal.values[i], reference.denom[i]);
    const double mag_dev = spice::PointMagnitudeDeviation(
        faulty.values[i], reference.magnitude[i], reference.denom[i]);
    // Quarantined-point convention (see FaultDetectability): the point is
    // counted undetected and contributes no deviation.  A non-finite
    // deviation that slipped past the solve-boundary checks is handled the
    // same way — the comparison layer never propagates NaN/Inf.
    if (nominal.QuarantinedAt(i) || faulty.QuarantinedAt(i) ||
        !std::isfinite(dev) || !std::isfinite(mag_dev)) {
      ++out.quarantined_points;
      continue;
    }
    out.region.deviation[i] = SaturateToFloat(dev);
    out.region.magnitude_deviation[i] = SaturateToFloat(mag_dev);
    const double threshold = reference.threshold[i];
    if (dev > threshold) {
      out.region.mask[i] = true;
      measure += reference.weight[i];
    }
    if (mag_dev > threshold) {
      out.region.magnitude_mask[i] = true;
    }
    if (dev > out.peak_deviation) {
      out.peak_deviation = dev;
      out.peak_frequency_hz = nominal.freqs_hz[i];
    }
  }
  out.detectable = measure > 0.0;
  out.omega_detectability = std::min(measure, 1.0);

  // Contiguous mask runs -> frequency intervals.
  for (std::size_t i = 0; i < out.region.mask.size();) {
    if (!out.region.mask[i]) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < out.region.mask.size() && out.region.mask[j + 1]) ++j;
    out.region.intervals.emplace_back(nominal.freqs_hz[i], nominal.freqs_hz[j]);
    i = j + 1;
  }
  out.region.measure = out.omega_detectability;
  return out;
}

std::vector<FaultDetectability> AnalyzeFaultList(
    const faults::FaultSimulator& simulator,
    const std::vector<faults::Fault>& faults,
    const DetectionCriteria& criteria) {
  const spice::FrequencyResponse nominal = simulator.SimulateNominal();
  std::vector<FaultDetectability> out;
  out.reserve(faults.size());
  for (const auto& f : faults) {
    out.push_back(AnalyzeFault(f, nominal, simulator.SimulateFault(f), criteria));
  }
  return out;
}

}  // namespace mcdft::testability
