#include "faults/injector.hpp"

#include "spice/elements.hpp"

namespace mcdft::faults {

ScopedFaultInjection::ScopedFaultInjection(spice::Netlist& netlist,
                                           const Fault& fault)
    : ScopedFaultInjection(netlist.GetElement(fault.Device()), fault) {}

ScopedFaultInjection::ScopedFaultInjection(spice::Element& element,
                                           const Fault& fault)
    : element_(&element) {
  if (fault.IsOpampFault()) {
    original_model_ = static_cast<const spice::Opamp&>(element).Model();
  } else {
    original_value_ = element.Value();
  }
  fault.ApplyTo(element);
  active_ = true;
}

void ScopedFaultInjection::Revert() {
  if (!active_) return;
  if (original_model_) {
    static_cast<spice::Opamp&>(*element_).SetModel(*original_model_);
  } else {
    element_->SetValue(original_value_);
  }
  active_ = false;
}

ScopedFaultInjection::~ScopedFaultInjection() { Revert(); }

}  // namespace mcdft::faults
