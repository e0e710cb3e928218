#include "spice/transient_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace mcdft::spice {

std::vector<double> TransientSpec::Times() const {
  if (steps == 0 || !(t_end_s > 0.0) || !std::isfinite(t_end_s)) {
    throw util::AnalysisError(
        "transient spec needs a positive finite window and >= 1 step");
  }
  const double h = StepSize();
  std::vector<double> times(steps);
  for (std::size_t k = 0; k < steps; ++k) {
    times[k] = static_cast<double>(k + 1) * h;
  }
  return times;
}

TransientStepper::TransientStepper(const MnaSystem& sys, const Netlist& netlist,
                                   const TransientSpec& spec) {
  const double h = spec.StepSize();
  if (!(h > 0.0) || !std::isfinite(h)) {
    throw util::AnalysisError("transient step size must be positive");
  }
  linalg::Vector rhs;
  sys.Assemble(AnalysisKind::kTransient, 2.0 / h, a_, rhs);
  const auto real = [](const linalg::Complex& v) { return v.imag() == 0.0; };
  if (!std::all_of(a_.Entries().begin(), a_.Entries().end(),
                   [&](const linalg::Triplet& t) { return real(t.value); }) ||
      !std::all_of(rhs.data().begin(), rhs.data().end(), real)) {
    throw util::AnalysisError("transient system is not real");
  }
  base_rhs_.resize(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) base_rhs_[i] = rhs[i].real();

  const auto row_of = [](NodeId node) {
    return node == kGround ? kNoRow : node - 1;
  };
  for (std::size_t i = 0; i < netlist.ElementCount(); ++i) {
    const Element* el = netlist.Elements()[i].get();
    if (el->Kind() != ElementKind::kCapacitor &&
        el->Kind() != ElementKind::kInductor) {
      continue;
    }
    const double value = el->Value();
    if (el->Kind() == ElementKind::kCapacitor) {
      caps_.push_back(CapState{row_of(el->Nodes()[0]), row_of(el->Nodes()[1]),
                               2.0 * value / h, 0.0});
    } else {
      inductors_.push_back(IndState{row_of(el->Nodes()[0]),
                                    row_of(el->Nodes()[1]),
                                    sys.BranchUnknown(i, 0), 2.0 * value / h,
                                    0.0});
    }
  }
}

const std::vector<double>& TransientStepper::NextRhs() {
  rhs_ = base_rhs_;
  for (const CapState& c : caps_) {
    // Companion current I_eq flows *into* the + node (i = G_eq v - I_eq).
    if (c.p_row != kNoRow) rhs_[c.p_row] += c.ieq;
    if (c.m_row != kNoRow) rhs_[c.m_row] -= c.ieq;
  }
  for (const IndState& l : inductors_) {
    // Branch equation: V_a - V_b - R_eq I = -w_n.
    rhs_[l.branch_row] += -l.w;
  }
  return rhs_;
}

void TransientStepper::Advance(const std::vector<double>& x) {
  const auto voltage = [&](std::size_t row) {
    return row == kNoRow ? 0.0 : x[row];
  };
  for (CapState& c : caps_) {
    const double v = voltage(c.p_row) - voltage(c.m_row);
    c.ieq = 2.0 * c.geq * v - c.ieq;
  }
  for (IndState& l : inductors_) {
    const double i = x[l.branch_row];
    l.w = 2.0 * l.req * i - l.w;
  }
}

}  // namespace mcdft::spice
