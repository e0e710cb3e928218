// Fault injection: apply a fault to a netlist in place and restore it.
#pragma once

#include <optional>

#include "faults/fault.hpp"
#include "spice/elements.hpp"

namespace mcdft::faults {

/// In-place injector (no netlist clone per fault): it remembers the
/// original value of the target element, applies the fault, and restores
/// on Revert() (or destruction).  Injections on different
/// elements stack (multiple-fault analysis); the paper's single-fault
/// assumption is one injection at a time.
class ScopedFaultInjection {
 public:
  /// Apply `fault` to `netlist` (kept by reference; must outlive this).
  ScopedFaultInjection(spice::Netlist& netlist, const Fault& fault);

  /// Same, with the target element already resolved — the hot-path variant
  /// for loops that inject one fault at every sweep point (skips the name
  /// lookup).  `element` must be `fault`'s device and outlive this.
  ScopedFaultInjection(spice::Element& element, const Fault& fault);

  /// Restore the original value (idempotent).
  void Revert();

  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  spice::Element* element_;
  double original_value_ = 0.0;
  std::optional<spice::OpampModel> original_model_;  // opamp faults only
  bool active_ = false;
};

}  // namespace mcdft::faults
