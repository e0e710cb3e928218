// Fault detectability (Definition 1) and omega-detectability (Definition 2).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "faults/simulator.hpp"
#include "testability/reference_band.hpp"

namespace mcdft::testability {

/// Detection tolerance settings.
struct DetectionCriteria {
  /// Relative tolerance epsilon of Definition 1 (0.10 = 10 % in the paper),
  /// absorbing measurement accuracy.  When `envelope` is set, process
  /// fluctuations are modelled explicitly and epsilon only needs to cover
  /// the tester accuracy (0.05 is a sensible value then).
  double epsilon = 0.10;

  /// Stopband guard for the relative deviation (see
  /// spice::RelativeDeviation): reference magnitudes below
  /// `relative_floor * max|T|` are clamped before dividing.  The default
  /// models a tester with ~12 dB of usable range below the passband level;
  /// 1e-9 recovers the pure pointwise |dT/T| reading of Definition 1.
  double relative_floor = 0.25;

  /// Optional per-frequency process-tolerance envelope (see
  /// testability/tolerance.hpp).  When non-empty (size must equal the
  /// sweep's point count), the detection threshold at grid point i is
  /// `epsilon + envelope[i]` instead of plain `epsilon`.
  std::vector<double> envelope;

  /// Time-domain mode: the responses are step-response trajectories
  /// (`freqs_hz` carries the time grid).  The region measure uses uniform
  /// per-sample weights — time is already linear, so the log-frequency
  /// Lebesgue weights of Definition 2 would skew toward early samples —
  /// and the resulting measure is the *envelope-deviation* detectability:
  /// the fraction of the step-response window where |dv/v| exceeds the
  /// threshold.  `peak_frequency_hz` then carries the peak *time* (s).
  bool time_domain = false;

  /// Threshold at grid point i.
  double ThresholdAt(std::size_t i) const {
    return epsilon + (envelope.empty() ? 0.0 : envelope[i]);
  }
};

/// The frequency region where a fault is detectable.
struct DetectabilityRegion {
  /// Per-grid-point mask: complex deviation exceeds the threshold.
  std::vector<bool> mask;

  /// Per-grid-point mask for *magnitude-only* measurement (what a
  /// magnitude tester observes; subset of `mask` pointwise).  Used by the
  /// test-plan generator.
  std::vector<bool> magnitude_mask;

  /// Quantitative deviations per grid point (float to keep campaigns
  /// small): the complex relative deviation and its magnitude-only
  /// counterpart.  The test-plan generator uses them to prefer measurement
  /// points with *margin* over the detection threshold, so the plan stays
  /// robust under process spread.
  std::vector<float> deviation;
  std::vector<float> magnitude_deviation;

  /// Maximal contiguous sub-bands [f_lo, f_hi] of the region (Hz).
  std::vector<std::pair<double, double>> intervals;

  /// Lebesgue measure of the region in log-frequency, normalized by the
  /// reference region: the omega-detectability of Definition 2, in [0, 1].
  double measure = 0.0;
};

/// Complete testability verdict for one fault.
struct FaultDetectability {
  explicit FaultDetectability(faults::Fault f) : fault(std::move(f)) {}

  faults::Fault fault;

  /// Definition 1: exists omega with |dT/T| > epsilon.
  bool detectable = false;

  /// Definition 2 in [0, 1] (0 when not detectable).
  double omega_detectability = 0.0;

  /// Peak relative deviation over the band and the frequency where it
  /// occurs (diagnostic for test-stimulus selection).
  double peak_deviation = 0.0;
  double peak_frequency_hz = 0.0;

  /// Grid points excluded from the verdict because the resilient simulator
  /// quarantined them (every solve attempt failed there, in either the
  /// nominal or the faulty response).  Convention: a quarantined point
  /// counts as *undetected* at that omega — deviation forced to 0, masks
  /// false, measure weight forfeited — so quarantine can only lower, never
  /// raise, detectability and coverage claims stay conservative.
  std::size_t quarantined_points = 0;

  DetectabilityRegion region;
};

/// The nominal half of every fault comparison in one configuration row,
/// computed once per row instead of once per fault.  Keeps `nominal` by
/// reference: the response must outlive it.
struct ScoringReference {
  /// Built from `nominal` and `criteria`; throws AnalysisError on a
  /// non-positive epsilon, an inconsistent nominal response or a tolerance
  /// envelope whose size differs from the grid's.
  ScoringReference(const spice::FrequencyResponse& nominal,
                   const DetectionCriteria& criteria);

  const spice::FrequencyResponse& nominal;
  std::vector<double> magnitude;  ///< |T_nom(i)|
  std::vector<double> denom;      ///< spice::DeviationDenominators' rule
  std::vector<double> threshold;  ///< criteria.ThresholdAt(i)
  /// Region measure weight of each point: log-frequency (Definition 2), or
  /// uniform for time-domain trajectories.
  std::vector<double> weight;
};

/// Evaluate Definition 1 + Definition 2 for a faulty response against the
/// nominal one.  Both must share the reference band's grid.
FaultDetectability AnalyzeFault(const faults::Fault& fault,
                                const spice::FrequencyResponse& nominal,
                                const spice::FrequencyResponse& faulty,
                                const DetectionCriteria& criteria = {});

/// AnalyzeFault against a reference built once for the row: the same
/// verdict, bit for bit.
FaultDetectability AnalyzeFault(const faults::Fault& fault,
                                const ScoringReference& reference,
                                const spice::FrequencyResponse& faulty);

/// Run a whole fault list through AnalyzeFault using a FaultSimulator.
std::vector<FaultDetectability> AnalyzeFaultList(
    const faults::FaultSimulator& simulator,
    const std::vector<faults::Fault>& faults,
    const DetectionCriteria& criteria = {});

}  // namespace mcdft::testability
