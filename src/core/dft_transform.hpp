// The multi-configuration DFT transformation (paper Sec. 3.1, Fig. 4):
// replace (all or some) opamps by configurable opamps and wire the In_test
// chain from primary input towards the primary output.
#pragma once

#include <string>
#include <vector>

#include "core/configuration.hpp"
#include "spice/elements.hpp"
#include "spice/netlist.hpp"
#include "spice/parser.hpp"

namespace mcdft::core {

/// A functional analog block before DFT insertion: the netlist (driven by
/// an AC source), its primary input/output nodes, and its opamps in chain
/// order (the signal-path order used to wire In_test inputs).
struct AnalogBlock {
  spice::Netlist netlist;
  std::string name;
  std::string input_node;
  std::string output_node;
  std::vector<std::string> opamps;  ///< chain order, e.g. {"OP1","OP2","OP3"}

  /// Deep copy.
  AnalogBlock Clone() const;
};

/// A DFT-modified circuit: the netlist with configurable opamps (all in
/// normal mode after the transform) plus the bookkeeping needed to emulate
/// configurations.
class DftCircuit {
 public:
  /// Apply the multi-configuration DFT to `block`.
  ///
  /// `configurable` selects which opamps are replaced by configurable ones
  /// (empty = all of them, the brute-force application; a strict subset is
  /// the paper's *partial DFT*, Sec. 4.3).  Each configurable opamp's
  /// In_test taps the output of the immediately preceding opamp in the full
  /// chain (the primary input for the first), reproducing Fig. 4 / Fig. 7;
  /// this makes shared configurations of full and partial DFT circuits
  /// electrically identical.
  ///
  /// Throws NetlistError when an opamp name is unknown, not an Opamp
  /// element, or `configurable` is not a subset of `block.opamps`.
  static DftCircuit Transform(const AnalogBlock& block,
                              std::vector<std::string> configurable = {});

  /// The DFT-modified netlist (configurable opamps in their current modes).
  const spice::Netlist& Circuit() const { return netlist_; }

  const std::string& Name() const { return name_; }
  const std::string& InputNode() const { return input_node_; }
  const std::string& OutputNode() const { return output_node_; }

  /// All opamps in chain order.
  const std::vector<std::string>& Chain() const { return chain_; }

  /// Configurable opamps in chain order (the configuration-vector bits).
  const std::vector<std::string>& ConfigurableOpamps() const {
    return configurable_;
  }

  /// Configuration space over the configurable opamps.
  ConfigurationSpace Space() const { return ConfigurationSpace(configurable_); }

  /// Switch the circuit into a configuration (mutates opamp modes).
  /// Throws OptimizationError when CheckConfiguration does.
  void ApplyConfiguration(const ConfigVector& cv);

  /// Throw OptimizationError, naming both widths, unless `cv` has one bit
  /// per configurable opamp.
  void CheckConfiguration(const ConfigVector& cv) const;

  /// Current configuration.
  ConfigVector CurrentConfiguration() const;

  /// Deep copy.
  DftCircuit Clone() const;

 private:
  DftCircuit() = default;

  spice::Netlist netlist_;
  std::string name_;
  std::string input_node_;
  std::string output_node_;
  std::vector<std::string> chain_;
  std::vector<std::string> configurable_;
};

/// Build an AnalogBlock from a parsed SPICE deck: the opamp chain is the
/// card order of the deck's opamps, the primary input is the positive node
/// of the first voltage source, and the primary output is the first
/// probe's positive node.  Throws NetlistError when the deck has no
/// opamps, no voltage source, or no probe.
AnalogBlock MakeBlockFromDeck(const spice::ParsedDeck& deck);

/// RAII configuration switch: applies `cv` on construction and restores
/// the functional configuration C_0 on destruction.  Used by the campaign
/// driver so a thrown analysis never leaves the circuit reconfigured.
class ScopedConfiguration {
 public:
  ScopedConfiguration(DftCircuit& circuit, const ConfigVector& cv);
  ~ScopedConfiguration();

  ScopedConfiguration(const ScopedConfiguration&) = delete;
  ScopedConfiguration& operator=(const ScopedConfiguration&) = delete;

 private:
  DftCircuit& circuit_;
};

}  // namespace mcdft::core
