// AC (small-signal frequency) analysis: sweep specification, probes, and
// the analyzer driving MNA solves across the sweep.
#pragma once

#include <string>
#include <vector>

#include "spice/mna.hpp"
#include "spice/transfer_function.hpp"

namespace mcdft::spice {

/// Frequency sweep specification, mirroring SPICE `.AC DEC/LIN` cards plus
/// an explicit point list.
class SweepSpec {
 public:
  /// Logarithmic sweep: `points_per_decade` points per decade from
  /// `f_start` to `f_stop` (both inclusive endpoints).
  static SweepSpec Decade(double f_start, double f_stop,
                          std::size_t points_per_decade);

  /// Linear sweep with `points` total points, inclusive endpoints.
  static SweepSpec Linear(double f_start, double f_stop, std::size_t points);

  /// Explicit list of frequencies (Hz), must be non-empty and ascending.
  static SweepSpec List(std::vector<double> frequencies_hz);

  /// Materialize the grid (Hz).  Throws AnalysisError on an empty or
  /// ill-ordered specification.
  const std::vector<double>& Frequencies() const { return freqs_; }

  std::size_t PointCount() const { return freqs_.size(); }
  double FStart() const { return freqs_.front(); }
  double FStop() const { return freqs_.back(); }

 private:
  explicit SweepSpec(std::vector<double> freqs);
  std::vector<double> freqs_;
};

/// What to measure: differential node voltage V(plus) - V(minus).
struct Probe {
  NodeId plus = kGround;
  NodeId minus = kGround;
  std::string label = "v(out)";
};

/// Runs an AC sweep of a netlist, producing the complex frequency response
/// at a probe.  The excitation is whatever AC sources the netlist contains
/// (for a transfer function, drive with a single AC 1V source).
///
/// The analyzer keeps an MnaSolveCache: the MNA sparsity pattern is
/// invariant across frequencies (and across value-only fault injection on
/// the underlying netlist), so each sweep stamps the netlist once into a
/// compiled AcStampProgram, and after the sweep's first full factorization
/// every remaining point is a program replay plus a numeric-only
/// refactorization.  The program and the cached pivot ordering are dropped
/// at each sweep boundary, which makes a sweep's results depend only on
/// (netlist values, sweep) — reusing one analyzer across many faults or
/// Monte-Carlo samples yields bit-identical results to fresh analyzers.
class AcAnalyzer {
 public:
  explicit AcAnalyzer(const Netlist& netlist, MnaOptions options = {});

  /// Response at the probe over the sweep.
  FrequencyResponse Run(const SweepSpec& sweep, const Probe& probe) const;

  /// Responses at several probes in one pass over the sweep (one MNA solve
  /// per frequency regardless of probe count).
  std::vector<FrequencyResponse> RunMulti(const SweepSpec& sweep,
                                          const std::vector<Probe>& probes) const;

  /// Solve-cache diagnostics (tests/benches): numeric-only refactors vs
  /// full factorizations performed so far.
  std::size_t RefactorCount() const { return cache_.RefactorCount(); }
  std::size_t FullFactorCount() const { return cache_.FullFactorCount(); }

 private:
  MnaSystem system_;
  mutable MnaSolveCache cache_;
};

}  // namespace mcdft::spice
