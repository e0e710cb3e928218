#include "spice/elements.hpp"

#include <cmath>
#include <numbers>

#include "util/strings.hpp"

namespace mcdft::spice {

std::string_view ElementKindName(ElementKind kind) {
  switch (kind) {
    case ElementKind::kResistor: return "resistor";
    case ElementKind::kCapacitor: return "capacitor";
    case ElementKind::kInductor: return "inductor";
    case ElementKind::kVoltageSource: return "voltage source";
    case ElementKind::kCurrentSource: return "current source";
    case ElementKind::kVcvs: return "vcvs";
    case ElementKind::kVccs: return "vccs";
    case ElementKind::kCcvs: return "ccvs";
    case ElementKind::kCccs: return "cccs";
    case ElementKind::kOpamp: return "opamp";
  }
  return "unknown";
}

void StampContext::AddAdmittanceS(NodeId a, NodeId b, double c) {
  AddAdmittance(a, b, S() * c);
}

void StampContext::AddBranchBranchS(std::size_t row, std::size_t col,
                                    double c) {
  AddBranchBranch(row, col, S() * c);
}

void StampContext::AddBranchNodeGain(std::size_t branch, NodeId col,
                                     const OpampModel& model, GainTerm term) {
  const Complex a = model.Gain(
      Kind() == AnalysisKind::kTransient ? Complex(0.0, 0.0) : S());
  AddBranchNode(branch, col, GainTermValue(term, a));
}

Complex GainTermValue(GainTerm term, Complex a) {
  switch (term) {
    case GainTerm::kGain: return a;
    case GainTerm::kNegGain: return -a;
    case GainTerm::kOnePlusGain: return Complex(1.0, 0.0) + a;
  }
  return a;
}

Element::Element(std::string name, std::vector<NodeId> nodes)
    : name_(util::ToUpper(name)), nodes_(std::move(nodes)) {}

double Element::Value() const {
  throw util::NetlistError("element " + name_ + " has no principal value");
}

void Element::SetValue(double) {
  throw util::NetlistError("element " + name_ + " has no principal value");
}

namespace {

void CheckPositive(const std::string& name, double v, const char* what) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    throw util::NetlistError(name + ": " + what + " must be positive and finite, got " +
                             std::to_string(v));
  }
}

}  // namespace

// --- Resistor ---------------------------------------------------------

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Element(std::move(name), {a, b}), ohms_(ohms) {
  CheckPositive(Name(), ohms, "resistance");
}

void Resistor::Stamp(StampContext& ctx) const {
  ctx.AddAdmittance(Nodes()[0], Nodes()[1], Complex(1.0 / ohms_, 0.0));
}

std::unique_ptr<Element> Resistor::Clone() const {
  return std::make_unique<Resistor>(*this);
}

void Resistor::SetValue(double value) {
  CheckPositive(Name(), value, "resistance");
  ohms_ = value;
}

std::string Resistor::ParamString() const {
  return util::FormatEngineering(ohms_);
}

// --- Capacitor --------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Element(std::move(name), {a, b}), farads_(farads) {
  CheckPositive(Name(), farads, "capacitance");
}

void Capacitor::Stamp(StampContext& ctx) const {
  // Open at DC (s = 0 gives a zero stamp; skip for sparsity).
  if (ctx.Kind() == AnalysisKind::kDc) return;
  ctx.AddAdmittanceS(Nodes()[0], Nodes()[1], farads_);
}

std::unique_ptr<Element> Capacitor::Clone() const {
  return std::make_unique<Capacitor>(*this);
}

void Capacitor::SetValue(double value) {
  CheckPositive(Name(), value, "capacitance");
  farads_ = value;
}

std::string Capacitor::ParamString() const {
  return util::FormatEngineering(farads_);
}

// --- Inductor ---------------------------------------------------------

Inductor::Inductor(std::string name, NodeId a, NodeId b, double henries)
    : Element(std::move(name), {a, b}), henries_(henries) {
  CheckPositive(Name(), henries, "inductance");
}

void Inductor::Stamp(StampContext& ctx) const {
  // Branch equation: V_a - V_b - s L I = 0; KCL gets +I at a, -I at b.
  const NodeId a = Nodes()[0];
  const NodeId b = Nodes()[1];
  ctx.AddNodeBranch(a, 0, Complex(1.0, 0.0));
  ctx.AddNodeBranch(b, 0, Complex(-1.0, 0.0));
  ctx.AddBranchNode(0, a, Complex(1.0, 0.0));
  ctx.AddBranchNode(0, b, Complex(-1.0, 0.0));
  ctx.AddBranchBranchS(0, 0, -henries_);
}

std::unique_ptr<Element> Inductor::Clone() const {
  return std::make_unique<Inductor>(*this);
}

void Inductor::SetValue(double value) {
  CheckPositive(Name(), value, "inductance");
  henries_ = value;
}

std::string Inductor::ParamString() const {
  return util::FormatEngineering(henries_);
}

// --- VoltageSource ----------------------------------------------------

VoltageSource::VoltageSource(std::string name, NodeId plus, NodeId minus,
                             double dc, double ac_mag, double ac_phase_deg)
    : Element(std::move(name), {plus, minus}),
      dc_(dc),
      ac_mag_(ac_mag),
      ac_phase_deg_(ac_phase_deg) {}

Complex VoltageSource::AcPhasor() const {
  const double rad = ac_phase_deg_ * std::numbers::pi / 180.0;
  return Complex(ac_mag_ * std::cos(rad), ac_mag_ * std::sin(rad));
}

void VoltageSource::Stamp(StampContext& ctx) const {
  const NodeId p = Nodes()[0];
  const NodeId m = Nodes()[1];
  ctx.AddNodeBranch(p, 0, Complex(1.0, 0.0));
  ctx.AddNodeBranch(m, 0, Complex(-1.0, 0.0));
  ctx.AddBranchNode(0, p, Complex(1.0, 0.0));
  ctx.AddBranchNode(0, m, Complex(-1.0, 0.0));
  // Excitation per analysis: DC value at the operating point, the AC
  // phasor for small-signal sweeps, and the principal value as a constant
  // step height (applied at t = 0+ against a zero initial state) for
  // transient assembly.
  switch (ctx.Kind()) {
    case AnalysisKind::kDc:
      ctx.AddBranchRhs(0, Complex(dc_, 0.0));
      break;
    case AnalysisKind::kAc:
      ctx.AddBranchRhs(0, AcPhasor());
      break;
    case AnalysisKind::kTransient:
      ctx.AddBranchRhs(0, Complex(Value(), 0.0));
      break;
  }
}

std::unique_ptr<Element> VoltageSource::Clone() const {
  return std::make_unique<VoltageSource>(*this);
}

void VoltageSource::SetValue(double value) {
  if (ac_mag_ != 0.0) {
    ac_mag_ = value;
  } else {
    dc_ = value;
  }
}

std::string VoltageSource::ParamString() const {
  std::string s = "DC " + util::FormatEngineering(dc_);
  if (ac_mag_ != 0.0) {
    s += " AC " + util::FormatEngineering(ac_mag_);
    if (ac_phase_deg_ != 0.0) s += " " + util::FormatTrimmed(ac_phase_deg_, 3);
  }
  return s;
}

// --- CurrentSource ----------------------------------------------------

CurrentSource::CurrentSource(std::string name, NodeId plus, NodeId minus,
                             double dc, double ac_mag, double ac_phase_deg)
    : Element(std::move(name), {plus, minus}),
      dc_(dc),
      ac_mag_(ac_mag),
      ac_phase_deg_(ac_phase_deg) {}

void CurrentSource::Stamp(StampContext& ctx) const {
  Complex i;
  if (ctx.Kind() == AnalysisKind::kDc) {
    i = Complex(dc_, 0.0);
  } else if (ctx.Kind() == AnalysisKind::kTransient) {
    // Constant step excitation at the principal value (see VoltageSource).
    i = Complex(Value(), 0.0);
  } else {
    const double rad = ac_phase_deg_ * std::numbers::pi / 180.0;
    i = Complex(ac_mag_ * std::cos(rad), ac_mag_ * std::sin(rad));
  }
  // SPICE convention: current flows from plus, through the source, to minus.
  ctx.AddNodeRhs(Nodes()[0], -i);
  ctx.AddNodeRhs(Nodes()[1], i);
}

std::unique_ptr<Element> CurrentSource::Clone() const {
  return std::make_unique<CurrentSource>(*this);
}

void CurrentSource::SetValue(double value) {
  if (ac_mag_ != 0.0) {
    ac_mag_ = value;
  } else {
    dc_ = value;
  }
}

std::string CurrentSource::ParamString() const {
  std::string s = "DC " + util::FormatEngineering(dc_);
  if (ac_mag_ != 0.0) {
    s += " AC " + util::FormatEngineering(ac_mag_);
    if (ac_phase_deg_ != 0.0) s += " " + util::FormatTrimmed(ac_phase_deg_, 3);
  }
  return s;
}

// --- Vcvs --------------------------------------------------------------

Vcvs::Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
           double gain)
    : Element(std::move(name), {p, m, cp, cm}), gain_(gain) {}

void Vcvs::Stamp(StampContext& ctx) const {
  const NodeId p = Nodes()[0], m = Nodes()[1], cp = Nodes()[2], cm = Nodes()[3];
  ctx.AddNodeBranch(p, 0, Complex(1.0, 0.0));
  ctx.AddNodeBranch(m, 0, Complex(-1.0, 0.0));
  // Branch equation: V_p - V_m - gain*(V_cp - V_cm) = 0.
  ctx.AddBranchNode(0, p, Complex(1.0, 0.0));
  ctx.AddBranchNode(0, m, Complex(-1.0, 0.0));
  ctx.AddBranchNode(0, cp, Complex(-gain_, 0.0));
  ctx.AddBranchNode(0, cm, Complex(gain_, 0.0));
}

std::unique_ptr<Element> Vcvs::Clone() const {
  return std::make_unique<Vcvs>(*this);
}

std::string Vcvs::ParamString() const { return util::FormatEngineering(gain_); }

// --- Vccs --------------------------------------------------------------

Vccs::Vccs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm,
           double gm)
    : Element(std::move(name), {p, m, cp, cm}), gm_(gm) {}

void Vccs::Stamp(StampContext& ctx) const {
  const NodeId p = Nodes()[0], m = Nodes()[1], cp = Nodes()[2], cm = Nodes()[3];
  const Complex g(gm_, 0.0);
  ctx.AddNodeNode(p, cp, g);
  ctx.AddNodeNode(p, cm, -g);
  ctx.AddNodeNode(m, cp, -g);
  ctx.AddNodeNode(m, cm, g);
}

std::unique_ptr<Element> Vccs::Clone() const {
  return std::make_unique<Vccs>(*this);
}

std::string Vccs::ParamString() const { return util::FormatEngineering(gm_); }

// --- Ccvs --------------------------------------------------------------

Ccvs::Ccvs(std::string name, NodeId p, NodeId m, std::string control_vsource,
           double transres)
    : Element(std::move(name), {p, m}),
      control_(util::ToUpper(control_vsource)),
      transres_(transres) {}

void Ccvs::Stamp(StampContext& ctx) const {
  // This element needs the controlling source's branch; the MNA system
  // resolves it by name at assembly time (see MnaStampContext).
  const NodeId p = Nodes()[0], m = Nodes()[1];
  ctx.AddNodeBranch(p, 0, Complex(1.0, 0.0));
  ctx.AddNodeBranch(m, 0, Complex(-1.0, 0.0));
  ctx.AddBranchNode(0, p, Complex(1.0, 0.0));
  ctx.AddBranchNode(0, m, Complex(-1.0, 0.0));
  ctx.AddBranchForeignBranchByName(0, control_, 0, Complex(-transres_, 0.0));
}

std::unique_ptr<Element> Ccvs::Clone() const {
  return std::make_unique<Ccvs>(*this);
}

std::string Ccvs::ParamString() const {
  return control_ + " " + util::FormatEngineering(transres_);
}

// --- Cccs --------------------------------------------------------------

Cccs::Cccs(std::string name, NodeId p, NodeId m, std::string control_vsource,
           double gain)
    : Element(std::move(name), {p, m}),
      control_(util::ToUpper(control_vsource)),
      gain_(gain) {}

void Cccs::Stamp(StampContext& ctx) const {
  ctx.AddNodeForeignBranchByName(Nodes()[0], control_, 0, Complex(gain_, 0.0));
  ctx.AddNodeForeignBranchByName(Nodes()[1], control_, 0, Complex(-gain_, 0.0));
}

std::unique_ptr<Element> Cccs::Clone() const {
  return std::make_unique<Cccs>(*this);
}

std::string Cccs::ParamString() const {
  return control_ + " " + util::FormatEngineering(gain_);
}

// --- Opamp --------------------------------------------------------------

Complex OpampModel::Gain(Complex s) const {
  switch (kind) {
    case OpampModelKind::kIdeal:
      return Complex(0.0, 0.0);  // not used: ideal opamp stamps a nullor
    case OpampModelKind::kFiniteGain:
      return Complex(a0, 0.0);
    case OpampModelKind::kSinglePole: {
      const double wp = 2.0 * std::numbers::pi * gbw / a0;
      return Complex(a0, 0.0) / (Complex(1.0, 0.0) + s / wp);
    }
  }
  return Complex(a0, 0.0);
}

Opamp::Opamp(std::string name, NodeId in_plus, NodeId in_minus, NodeId out,
             OpampModel model, NodeId in_test)
    : Element(std::move(name), {in_plus, in_minus, out, in_test}),
      model_(model) {}

void Opamp::MakeConfigurable(NodeId in_test) {
  configurable_ = true;
  MutableNodes()[3] = in_test;
}

void Opamp::SetMode(OpampMode mode) {
  if (mode == OpampMode::kFollower && !configurable_) {
    throw util::NetlistError("opamp " + Name() +
                             " is not configurable: cannot enter follower mode");
  }
  mode_ = mode;
}

void Opamp::Stamp(StampContext& ctx) const {
  const NodeId p = InPlus(), n = InMinus(), out = Out(), t = InTest();
  // Output behaves as a controlled voltage source: branch current into out.
  ctx.AddNodeBranch(out, 0, Complex(1.0, 0.0));

  if (model_.kind == OpampModelKind::kIdeal) {
    if (mode_ == OpampMode::kNormal) {
      // Nullor: enforce V+ = V-.
      ctx.AddBranchNode(0, p, Complex(1.0, 0.0));
      ctx.AddBranchNode(0, n, Complex(-1.0, 0.0));
    } else {
      // Ideal follower: V_out = V_test.
      ctx.AddBranchNode(0, out, Complex(1.0, 0.0));
      ctx.AddBranchNode(0, t, Complex(-1.0, 0.0));
    }
    return;
  }

  // Transient assembly uses the memoryless DC open-loop gain (see
  // StampContext::AddBranchNodeGain): exact for kIdeal/kFiniteGain and a
  // documented quasi-static approximation for kSinglePole.
  if (mode_ == OpampMode::kNormal) {
    // V_out - A(s) (V+ - V-) = 0.
    ctx.AddBranchNode(0, out, Complex(1.0, 0.0));
    ctx.AddBranchNodeGain(0, p, model_, GainTerm::kNegGain);
    ctx.AddBranchNodeGain(0, n, model_, GainTerm::kGain);
  } else {
    // Follower emulation: the amplifier is rewired as a unity buffer of the
    // In_test node: V_out - A(s) (V_test - V_out) = 0  =>  V_out ~= V_test.
    ctx.AddBranchNodeGain(0, out, model_, GainTerm::kOnePlusGain);
    ctx.AddBranchNodeGain(0, t, model_, GainTerm::kNegGain);
  }
}

std::unique_ptr<Element> Opamp::Clone() const {
  return std::make_unique<Opamp>(*this);
}

std::string Opamp::ParamString() const {
  std::string s;
  switch (model_.kind) {
    case OpampModelKind::kIdeal: s = "MODEL=IDEAL"; break;
    case OpampModelKind::kFiniteGain:
      s = "A0=" + util::FormatEngineering(model_.a0);
      break;
    case OpampModelKind::kSinglePole:
      s = "A0=" + util::FormatEngineering(model_.a0) +
          " GBW=" + util::FormatEngineering(model_.gbw);
      break;
  }
  if (configurable_) {
    s += " CONFIGURABLE";
    s += mode_ == OpampMode::kFollower ? " MODE=FOLLOWER" : " MODE=NORMAL";
  }
  return s;
}

}  // namespace mcdft::spice
