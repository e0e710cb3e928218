#include "core/dft_transform.hpp"

#include <algorithm>

namespace mcdft::core {

AnalogBlock AnalogBlock::Clone() const {
  return AnalogBlock{netlist.Clone(), name, input_node, output_node, opamps};
}

namespace {

spice::Opamp& GetOpamp(spice::Netlist& netlist, const std::string& name) {
  spice::Element& e = netlist.GetElement(name);
  if (e.Kind() != spice::ElementKind::kOpamp) {
    throw util::NetlistError("element '" + name + "' is a " +
                             std::string(spice::ElementKindName(e.Kind())) +
                             ", not an opamp");
  }
  return static_cast<spice::Opamp&>(e);
}

}  // namespace

DftCircuit DftCircuit::Transform(const AnalogBlock& block,
                                 std::vector<std::string> configurable) {
  if (block.opamps.empty()) {
    throw util::NetlistError("analog block '" + block.name +
                             "' declares no opamps");
  }
  DftCircuit dft;
  dft.netlist_ = block.netlist.Clone();
  dft.name_ = block.name + " (DFT)";
  dft.input_node_ = block.input_node;
  dft.output_node_ = block.output_node;
  dft.chain_ = block.opamps;

  if (configurable.empty()) {
    configurable = block.opamps;  // brute-force: replace every opamp
  }
  // Keep chain order and verify subset-ness.
  for (const auto& name : configurable) {
    if (std::find(block.opamps.begin(), block.opamps.end(), name) ==
        block.opamps.end()) {
      throw util::NetlistError("configurable opamp '" + name +
                               "' is not in the block's opamp chain");
    }
  }
  for (const auto& name : block.opamps) {
    if (std::find(configurable.begin(), configurable.end(), name) !=
        configurable.end()) {
      dft.configurable_.push_back(name);
    }
  }

  // Wire the In_test chain: opamp k taps the output of opamp k-1 in the
  // *full* chain (the primary input for k = 0), per Fig. 4.  Keeping the
  // tap on the physical predecessor regardless of which opamps are made
  // configurable means a partial-DFT circuit behaves identically to the
  // full-DFT circuit in every configuration they share — which is what
  // lets Sec. 4.3 reuse the Table 2 rows as Table 4 without re-simulating.
  spice::NodeId prev_tap = dft.netlist_.FindNode(block.input_node);
  for (const auto& name : block.opamps) {
    spice::Opamp& op = GetOpamp(dft.netlist_, name);
    const bool is_configurable =
        std::find(dft.configurable_.begin(), dft.configurable_.end(), name) !=
        dft.configurable_.end();
    if (is_configurable) op.MakeConfigurable(prev_tap);
    prev_tap = op.Out();
  }
  return dft;
}

void DftCircuit::CheckConfiguration(const ConfigVector& cv) const {
  if (cv.BitCount() != configurable_.size()) {
    throw util::OptimizationError(
        "configuration vector has " + std::to_string(cv.BitCount()) +
        " bits but the circuit has " + std::to_string(configurable_.size()) +
        " configurable opamps");
  }
}

void DftCircuit::ApplyConfiguration(const ConfigVector& cv) {
  CheckConfiguration(cv);
  for (std::size_t k = 0; k < configurable_.size(); ++k) {
    GetOpamp(netlist_, configurable_[k])
        .SetMode(cv.SelectionOf(k) ? spice::OpampMode::kFollower
                                   : spice::OpampMode::kNormal);
  }
}

ConfigVector DftCircuit::CurrentConfiguration() const {
  ConfigVector cv(configurable_.size());
  for (std::size_t k = 0; k < configurable_.size(); ++k) {
    const auto& op = static_cast<const spice::Opamp&>(
        netlist_.GetElement(configurable_[k]));
    cv.SetSelection(k, op.Mode() == spice::OpampMode::kFollower);
  }
  return cv;
}

DftCircuit DftCircuit::Clone() const {
  DftCircuit copy;
  copy.netlist_ = netlist_.Clone();
  copy.name_ = name_;
  copy.input_node_ = input_node_;
  copy.output_node_ = output_node_;
  copy.chain_ = chain_;
  copy.configurable_ = configurable_;
  return copy;
}

AnalogBlock MakeBlockFromDeck(const spice::ParsedDeck& deck) {
  AnalogBlock block;
  block.netlist = deck.netlist.Clone();
  block.name = deck.netlist.Title();
  for (const auto& e : deck.netlist.Elements()) {
    if (e->Kind() == spice::ElementKind::kOpamp) {
      block.opamps.push_back(e->Name());
    }
    if (block.input_node.empty() &&
        e->Kind() == spice::ElementKind::kVoltageSource) {
      block.input_node = deck.netlist.NodeName(e->Nodes()[0]);
    }
  }
  if (block.opamps.empty()) {
    throw util::NetlistError("deck '" + block.name + "' has no opamps");
  }
  if (block.input_node.empty()) {
    throw util::NetlistError("deck '" + block.name +
                             "' has no voltage source to use as the input");
  }
  if (deck.probes.empty()) {
    throw util::NetlistError("deck '" + block.name +
                             "' has no .probe card to use as the output");
  }
  block.output_node = deck.netlist.NodeName(deck.probes.front().plus);
  return block;
}

ScopedConfiguration::ScopedConfiguration(DftCircuit& circuit,
                                         const ConfigVector& cv)
    : circuit_(circuit) {
  circuit_.ApplyConfiguration(cv);
}

ScopedConfiguration::~ScopedConfiguration() {
  ConfigVector c0(circuit_.ConfigurableOpamps().size());
  circuit_.ApplyConfiguration(c0);
}

}  // namespace mcdft::core
