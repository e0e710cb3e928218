// Circuit element hierarchy and their MNA stamps.
//
// Every element knows how to stamp itself into the Modified Nodal Analysis
// system through the StampContext interface.  Elements that introduce a
// branch current unknown (sources, inductors, opamp outputs) declare it via
// BranchCount().
#pragma once

#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "spice/netlist.hpp"

namespace mcdft::spice {

using Complex = std::complex<double>;

/// Which analysis the stamp is being produced for.
enum class AnalysisKind {
  kDc,  ///< operating point: s = 0, independent sources use their DC value
  kAc,  ///< small-signal sweep: s = j*omega, sources use AC magnitude/phase
  /// Trapezoidal transient companion assembly: the `omega` slot carries the
  /// real stiffness 2/h, so S() = 2/h and the existing C and L stamps
  /// produce exactly the trapezoidal companion conductances (G_eq = 2C/h,
  /// R_eq = 2L/h).  Per-step history currents are injected into the RHS by
  /// the transient engine, not by the stamps.  Independent sources stamp
  /// their constant post-step value (step excitation from a zero state).
  kTransient,
};

/// Element type tag (useful for filtering, e.g. "all passive components"
/// when building fault lists).
enum class ElementKind {
  kResistor,
  kCapacitor,
  kInductor,
  kVoltageSource,
  kCurrentSource,
  kVcvs,
  kVccs,
  kCcvs,
  kCccs,
  kOpamp,
};

/// Short human-readable name of an element kind ("resistor", "opamp", ...).
std::string_view ElementKindName(ElementKind kind);

struct OpampModel;  // below

/// How an opamp stamp entry uses the open-loop gain a = A(s).
enum class GainTerm {
  kGain,         ///< a
  kNegGain,      ///< -a
  kOnePlusGain,  ///< 1 + a
};

/// Interface through which elements write their MNA contributions.
///
/// Rows/columns are addressed by circuit NodeId (ground contributions are
/// dropped automatically) and by element-local branch index (0-based,
/// < BranchCount() of the element currently being stamped).
///
/// Values that depend on the complex frequency go through the `...S` and
/// `...Gain` entry points rather than a precomputed Complex, so that a
/// compiled AC sweep (spice/mna.hpp AcStampProgram) can record how each
/// entry varies with s and re-evaluate only that part per point.  Their
/// default implementations compute the value and forward it to the plain
/// entry points.
class StampContext {
 public:
  virtual ~StampContext() = default;

  /// Analysis being assembled.
  virtual AnalysisKind Kind() const = 0;

  /// Complex frequency s = j*omega (0 for DC).
  virtual Complex S() const = 0;

  /// Classic two-terminal admittance stamp between nodes a and b.
  virtual void AddAdmittance(NodeId a, NodeId b, Complex y) = 0;

  /// A(node_row, node_col) += v.
  virtual void AddNodeNode(NodeId row, NodeId col, Complex v) = 0;

  /// A(node_row, branch_col) += v for local branch `branch` of the element
  /// currently being stamped.
  virtual void AddNodeBranch(NodeId row, std::size_t branch, Complex v) = 0;

  /// A(branch_row, node_col) += v.
  virtual void AddBranchNode(std::size_t branch, NodeId col, Complex v) = 0;

  /// A(branch_row, branch_col) += v (both local to the current element).
  virtual void AddBranchBranch(std::size_t row, std::size_t col, Complex v) = 0;

  /// A(branch_row, foreign_branch_col) += v where the column belongs to
  /// branch `k` of the element named `other` (controlled-source coupling).
  /// Throws AnalysisError when no such element/branch exists in the system.
  virtual void AddBranchForeignBranchByName(std::size_t row,
                                            const std::string& other,
                                            std::size_t k, Complex v) = 0;

  /// A(node_row, foreign_branch_col) += v (same addressing as above).
  virtual void AddNodeForeignBranchByName(NodeId row, const std::string& other,
                                          std::size_t k, Complex v) = 0;

  /// rhs(node_row) += v.
  virtual void AddNodeRhs(NodeId row, Complex v) = 0;

  /// rhs(branch_row) += v.
  virtual void AddBranchRhs(std::size_t branch, Complex v) = 0;

  /// Admittance S() * c between nodes a and b (capacitor).
  virtual void AddAdmittanceS(NodeId a, NodeId b, double c);

  /// A(branch_row, branch_col) += S() * c (inductor branch impedance).
  virtual void AddBranchBranchS(std::size_t row, std::size_t col, double c);

  /// A(branch_row, node_col) += term(a), where a is `model`'s open-loop gain
  /// for this assembly: A(S()), or the memoryless A(0) in transient
  /// assembly (the opamp's pole carries no companion state, so evaluating
  /// the gain at the real stiffness 2/h would silently mismodel it).
  virtual void AddBranchNodeGain(std::size_t branch, NodeId col,
                                 const OpampModel& model, GainTerm term);
};

/// The value of gain term `term` for gain `a`.
Complex GainTermValue(GainTerm term, Complex a);

/// Abstract circuit element.
class Element {
 public:
  Element(std::string name, std::vector<NodeId> nodes);
  virtual ~Element() = default;

  /// Canonical (upper-case) unique name.
  const std::string& Name() const { return name_; }

  /// Element type tag.
  virtual ElementKind Kind() const = 0;

  /// Terminal nodes (meaning is kind-specific; see each subclass).
  const std::vector<NodeId>& Nodes() const { return nodes_; }

  /// Number of branch-current unknowns this element adds to the MNA system.
  virtual std::size_t BranchCount() const { return 0; }

  /// Write this element's contribution into the system being assembled.
  virtual void Stamp(StampContext& ctx) const = 0;

  /// Polymorphic deep copy.
  virtual std::unique_ptr<Element> Clone() const = 0;

  /// True when the element has a single scalar principal value that fault
  /// models can deviate (R, L, C, source values, controlled-source gains).
  virtual bool HasValue() const { return false; }

  /// Principal value; throws NetlistError when HasValue() is false.
  virtual double Value() const;

  /// Set principal value; throws NetlistError when HasValue() is false.
  virtual void SetValue(double value);

  /// Parameter portion of the SPICE card (everything after the node list).
  virtual std::string ParamString() const = 0;

 protected:
  /// Mutable node access for subclass-internal rewiring (configurable
  /// opamp test input, fault injector shorts).
  std::vector<NodeId>& MutableNodes() { return nodes_; }

 private:
  std::string name_;
  std::vector<NodeId> nodes_;
};

// ---------------------------------------------------------------------
// Passive two-terminal elements
// ---------------------------------------------------------------------

/// Linear resistor between nodes (a, b).
class Resistor final : public Element {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);
  ElementKind Kind() const override { return ElementKind::kResistor; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return ohms_; }
  void SetValue(double value) override;
  std::string ParamString() const override;

 private:
  double ohms_;
};

/// Linear capacitor between nodes (a, b).  Open at DC.
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);
  ElementKind Kind() const override { return ElementKind::kCapacitor; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return farads_; }
  void SetValue(double value) override;
  std::string ParamString() const override;

 private:
  double farads_;
};

/// Linear inductor between nodes (a, b), formulated with a branch current
/// so the DC (short) limit is exact.
class Inductor final : public Element {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double henries);
  ElementKind Kind() const override { return ElementKind::kInductor; }
  std::size_t BranchCount() const override { return 1; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return henries_; }
  void SetValue(double value) override;
  std::string ParamString() const override;

 private:
  double henries_;
};

// ---------------------------------------------------------------------
// Independent sources
// ---------------------------------------------------------------------

/// Independent voltage source (plus, minus) with DC value and AC phasor.
/// Its branch current is available for CCVS/CCCS control.
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, NodeId plus, NodeId minus, double dc,
                double ac_mag, double ac_phase_deg);
  ElementKind Kind() const override { return ElementKind::kVoltageSource; }
  std::size_t BranchCount() const override { return 1; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  /// Principal value is the AC magnitude when nonzero, else the DC value.
  double Value() const override { return ac_mag_ != 0.0 ? ac_mag_ : dc_; }
  void SetValue(double value) override;
  std::string ParamString() const override;

  double Dc() const { return dc_; }
  double AcMagnitude() const { return ac_mag_; }
  double AcPhaseDeg() const { return ac_phase_deg_; }
  /// AC excitation as a phasor.
  Complex AcPhasor() const;

 private:
  double dc_;
  double ac_mag_;
  double ac_phase_deg_;
};

/// Independent current source flowing from `plus` through the source to
/// `minus` (SPICE convention: positive value pulls current out of `plus`).
class CurrentSource final : public Element {
 public:
  CurrentSource(std::string name, NodeId plus, NodeId minus, double dc,
                double ac_mag, double ac_phase_deg);
  ElementKind Kind() const override { return ElementKind::kCurrentSource; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return ac_mag_ != 0.0 ? ac_mag_ : dc_; }
  void SetValue(double value) override;
  std::string ParamString() const override;

 private:
  double dc_;
  double ac_mag_;
  double ac_phase_deg_;
};

// ---------------------------------------------------------------------
// Controlled sources
// ---------------------------------------------------------------------

/// VCVS: V(p, m) = gain * V(cp, cm).  Nodes: [p, m, cp, cm].
class Vcvs final : public Element {
 public:
  Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm, double gain);
  ElementKind Kind() const override { return ElementKind::kVcvs; }
  std::size_t BranchCount() const override { return 1; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return gain_; }
  void SetValue(double value) override { gain_ = value; }
  std::string ParamString() const override;

 private:
  double gain_;
};

/// VCCS: I(p -> m) = gm * V(cp, cm).  Nodes: [p, m, cp, cm].
class Vccs final : public Element {
 public:
  Vccs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm, double gm);
  ElementKind Kind() const override { return ElementKind::kVccs; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return gm_; }
  void SetValue(double value) override { gm_ = value; }
  std::string ParamString() const override;

 private:
  double gm_;
};

/// CCVS: V(p, m) = transres * I(control source).  Nodes: [p, m].
class Ccvs final : public Element {
 public:
  Ccvs(std::string name, NodeId p, NodeId m, std::string control_vsource,
       double transres);
  ElementKind Kind() const override { return ElementKind::kCcvs; }
  std::size_t BranchCount() const override { return 1; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return transres_; }
  void SetValue(double value) override { transres_ = value; }
  std::string ParamString() const override;
  /// Name of the voltage source whose branch current controls this element.
  const std::string& ControlSource() const { return control_; }

 private:
  std::string control_;
  double transres_;
};

/// CCCS: I(p -> m) = gain * I(control source).  Nodes: [p, m].
class Cccs final : public Element {
 public:
  Cccs(std::string name, NodeId p, NodeId m, std::string control_vsource,
       double gain);
  ElementKind Kind() const override { return ElementKind::kCccs; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  bool HasValue() const override { return true; }
  double Value() const override { return gain_; }
  void SetValue(double value) override { gain_ = value; }
  std::string ParamString() const override;
  const std::string& ControlSource() const { return control_; }

 private:
  std::string control_;
  double gain_;
};

// ---------------------------------------------------------------------
// Behavioural (configurable) opamp
// ---------------------------------------------------------------------

/// Opamp small-signal model selection.
enum class OpampModelKind {
  kIdeal,       ///< nullor: V+ = V-, output is an ideal controlled source
  kFiniteGain,  ///< V_out = A0 (V+ - V-)
  kSinglePole,  ///< V_out = A0/(1 + s/wp) (V+ - V-), wp = 2*pi*gbw/A0
};

/// Opamp model parameters.
struct OpampModel {
  OpampModelKind kind = OpampModelKind::kFiniteGain;
  double a0 = 1e6;    ///< DC open-loop gain (kFiniteGain, kSinglePole)
  double gbw = 1e6;   ///< gain-bandwidth product in Hz (kSinglePole only)

  /// Open-loop gain A(s) at complex frequency s.
  Complex Gain(Complex s) const;
};

/// Operating mode of a configurable opamp (paper Fig. 3).
enum class OpampMode {
  kNormal,    ///< classical opamp behaviour
  kFollower,  ///< output follows the In_test input (sel = 1)
};

/// Behavioural opamp with the multi-configuration DFT hooks.
///
/// Nodes: [in+, in-, out, in_test].  A plain (non-configurable) opamp has
/// in_test = ground and is permanently in normal mode.  The DFT transform
/// (core/dft_transform.hpp) marks opamps configurable and wires the
/// In_test chain; core/configuration.hpp then flips modes per
/// configuration vector.
class Opamp final : public Element {
 public:
  Opamp(std::string name, NodeId in_plus, NodeId in_minus, NodeId out,
        OpampModel model = {}, NodeId in_test = kGround);
  ElementKind Kind() const override { return ElementKind::kOpamp; }
  std::size_t BranchCount() const override { return 1; }
  void Stamp(StampContext& ctx) const override;
  std::unique_ptr<Element> Clone() const override;
  std::string ParamString() const override;

  NodeId InPlus() const { return Nodes()[0]; }
  NodeId InMinus() const { return Nodes()[1]; }
  NodeId Out() const { return Nodes()[2]; }
  NodeId InTest() const { return Nodes()[3]; }

  const OpampModel& Model() const { return model_; }
  void SetModel(const OpampModel& model) { model_ = model; }

  /// Whether this opamp was replaced by a configurable implementation.
  bool IsConfigurable() const { return configurable_; }
  /// Mark as configurable and wire its In_test input.
  void MakeConfigurable(NodeId in_test);

  OpampMode Mode() const { return mode_; }
  /// Switch mode.  Throws NetlistError when asked to enter follower mode on
  /// a non-configurable opamp (no In_test wiring exists in silicon).
  void SetMode(OpampMode mode);

 private:
  OpampModel model_;
  bool configurable_ = false;
  OpampMode mode_ = OpampMode::kNormal;
};

}  // namespace mcdft::spice
