#include "spice/ac_analysis.hpp"

#include <cmath>

namespace mcdft::spice {

SweepSpec::SweepSpec(std::vector<double> freqs) : freqs_(std::move(freqs)) {
  if (freqs_.empty()) throw util::AnalysisError("empty frequency sweep");
  for (std::size_t i = 0; i < freqs_.size(); ++i) {
    if (!(freqs_[i] > 0.0) || !std::isfinite(freqs_[i])) {
      throw util::AnalysisError("sweep frequency must be positive and finite");
    }
    if (i > 0 && freqs_[i] <= freqs_[i - 1]) {
      throw util::AnalysisError("sweep frequencies must be strictly ascending");
    }
  }
}

SweepSpec SweepSpec::Decade(double f_start, double f_stop,
                            std::size_t points_per_decade) {
  if (!(f_start > 0.0) || !(f_stop > f_start)) {
    throw util::AnalysisError("decade sweep requires 0 < f_start < f_stop");
  }
  if (points_per_decade == 0) {
    throw util::AnalysisError("decade sweep requires at least 1 point/decade");
  }
  const double decades = std::log10(f_stop / f_start);
  const std::size_t total =
      static_cast<std::size_t>(std::ceil(decades * points_per_decade)) + 1;
  std::vector<double> f(total);
  for (std::size_t i = 0; i < total; ++i) {
    const double frac = static_cast<double>(i) / (total - 1);
    f[i] = f_start * std::pow(10.0, frac * decades);
  }
  f.back() = f_stop;  // kill rounding drift at the endpoint
  return SweepSpec(std::move(f));
}

SweepSpec SweepSpec::Linear(double f_start, double f_stop, std::size_t points) {
  if (!(f_start > 0.0) || !(f_stop > f_start)) {
    throw util::AnalysisError("linear sweep requires 0 < f_start < f_stop");
  }
  if (points < 2) throw util::AnalysisError("linear sweep requires >= 2 points");
  std::vector<double> f(points);
  for (std::size_t i = 0; i < points; ++i) {
    f[i] = f_start + (f_stop - f_start) * static_cast<double>(i) /
                         static_cast<double>(points - 1);
  }
  return SweepSpec(std::move(f));
}

SweepSpec SweepSpec::List(std::vector<double> frequencies_hz) {
  return SweepSpec(std::move(frequencies_hz));
}

AcAnalyzer::AcAnalyzer(const Netlist& netlist, MnaOptions options)
    : system_(netlist), cache_(options.shared_factor_cache) {}

FrequencyResponse AcAnalyzer::Run(const SweepSpec& sweep,
                                  const Probe& probe) const {
  return RunMulti(sweep, {probe}).front();
}

std::vector<FrequencyResponse> AcAnalyzer::RunMulti(
    const SweepSpec& sweep, const std::vector<Probe>& probes) const {
  if (probes.empty()) throw util::AnalysisError("no probes given");
  std::vector<FrequencyResponse> out(probes.size());
  for (std::size_t p = 0; p < probes.size(); ++p) {
    out[p].freqs_hz = sweep.Frequencies();
    out[p].values.reserve(sweep.PointCount());
    out[p].label = probes[p].label;
  }
  // Each sweep records its stamps and chooses its pivot ordering afresh at
  // its first point, so a sweep's numbers never depend on what this
  // analyzer solved before it.
  cache_.BeginSweep();
  for (double f : sweep.Frequencies()) {
    const MnaSolution& sol = cache_.SolveAcHz(system_, f);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      out[p].values.push_back(
          sol.VoltageBetween(probes[p].plus, probes[p].minus));
    }
  }
  return out;
}

}  // namespace mcdft::spice
