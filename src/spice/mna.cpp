#include "spice/mna.hpp"

#include "spice/factor_cache.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

namespace mcdft::spice {

namespace metrics = util::metrics;

MnaSolution::MnaSolution(linalg::Vector x,
                         const std::vector<std::size_t>* branch_base,
                         std::size_t node_unknowns)
    : x_(std::move(x)), branch_base_(branch_base), node_unknowns_(node_unknowns) {}

Complex MnaSolution::VoltageAt(NodeId node) const {
  if (node == kGround) return Complex(0.0, 0.0);
  const std::size_t idx = node - 1;
  if (idx >= node_unknowns_) {
    throw util::AnalysisError("node id " + std::to_string(node) +
                              " outside solved system");
  }
  return x_[idx];
}

Complex MnaSolution::VoltageBetween(NodeId plus, NodeId minus) const {
  return VoltageAt(plus) - VoltageAt(minus);
}

Complex MnaSolution::BranchCurrent(std::size_t element_idx, std::size_t k) const {
  if (element_idx + 1 >= branch_base_->size()) {
    throw util::AnalysisError("element index " + std::to_string(element_idx) +
                              " outside solved system");
  }
  const std::size_t base = (*branch_base_)[element_idx];
  const std::size_t next = (*branch_base_)[element_idx + 1];
  if (base + k >= next) {
    throw util::AnalysisError("element has no branch " + std::to_string(k));
  }
  return x_[base + k];
}

namespace {

/// StampContext implementation writing into a triplet matrix + RHS.
class MnaStampContext final : public StampContext {
 public:
  MnaStampContext(const MnaSystem& sys, const Netlist& netlist,
                  AnalysisKind kind, Complex s, linalg::TripletMatrix& a,
                  linalg::Vector& rhs)
      : sys_(sys), netlist_(netlist), kind_(kind), s_(s), a_(a), rhs_(rhs) {}

  void SetCurrentElement(std::size_t element_idx) { current_ = element_idx; }

  AnalysisKind Kind() const override { return kind_; }
  Complex S() const override { return s_; }

  void AddAdmittance(NodeId a, NodeId b, Complex y) override {
    AddNodeNode(a, a, y);
    AddNodeNode(b, b, y);
    AddNodeNode(a, b, -y);
    AddNodeNode(b, a, -y);
  }

  void AddNodeNode(NodeId row, NodeId col, Complex v) override {
    if (row == kGround || col == kGround) return;
    a_.Add(row - 1, col - 1, v);
  }

  void AddNodeBranch(NodeId row, std::size_t branch, Complex v) override {
    if (row == kGround) return;
    a_.Add(row - 1, BranchUnknown(current_, branch), v);
  }

  void AddBranchNode(std::size_t branch, NodeId col, Complex v) override {
    if (col == kGround) return;
    a_.Add(BranchUnknown(current_, branch), col - 1, v);
  }

  void AddBranchBranch(std::size_t row, std::size_t col, Complex v) override {
    a_.Add(BranchUnknown(current_, row), BranchUnknown(current_, col), v);
  }

  void AddBranchForeignBranchByName(std::size_t row, const std::string& other,
                                    std::size_t k, Complex v) override {
    a_.Add(BranchUnknown(current_, row), ForeignBranch(other, k), v);
  }

  void AddNodeForeignBranchByName(NodeId row, const std::string& other,
                                  std::size_t k, Complex v) override {
    if (row == kGround) return;
    a_.Add(row - 1, ForeignBranch(other, k), v);
  }

  void AddNodeRhs(NodeId row, Complex v) override {
    if (row == kGround) return;
    rhs_[row - 1] += v;
  }

  void AddBranchRhs(std::size_t branch, Complex v) override {
    rhs_[BranchUnknown(current_, branch)] += v;
  }

 private:
  std::size_t BranchUnknown(std::size_t element_idx, std::size_t k) const {
    return sys_.BranchUnknown(element_idx, k);
  }

  std::size_t ForeignBranch(const std::string& name, std::size_t k) const {
    const std::size_t idx = sys_.ElementIndexOf(name);
    return BranchUnknown(idx, k);
  }

  const MnaSystem& sys_;
  const Netlist& netlist_;
  AnalysisKind kind_;
  Complex s_;
  linalg::TripletMatrix& a_;
  linalg::Vector& rhs_;
  std::size_t current_ = 0;
};

/// StampContext that records one element's weighted contributions as loose
/// (index, value) lists instead of writing into an assembled system — the
/// recorder behind MnaSystem::StampElement.  Uses the same unknown
/// addressing as MnaStampContext (node i -> unknown i-1, ground dropped,
/// branches via MnaSystem::BranchUnknown).
class DeltaStampContext final : public StampContext {
 public:
  DeltaStampContext(const MnaSystem& sys, std::size_t element_idx,
                    AnalysisKind kind, Complex s, Complex weight,
                    std::vector<linalg::Triplet>& entries,
                    std::vector<std::pair<std::size_t, Complex>>& rhs_entries)
      : sys_(sys),
        current_(element_idx),
        kind_(kind),
        s_(s),
        weight_(weight),
        entries_(entries),
        rhs_(rhs_entries) {}

  AnalysisKind Kind() const override { return kind_; }
  Complex S() const override { return s_; }

  void AddAdmittance(NodeId a, NodeId b, Complex y) override {
    AddNodeNode(a, a, y);
    AddNodeNode(b, b, y);
    AddNodeNode(a, b, -y);
    AddNodeNode(b, a, -y);
  }

  void AddNodeNode(NodeId row, NodeId col, Complex v) override {
    if (row == kGround || col == kGround) return;
    Push(row - 1, col - 1, v);
  }

  void AddNodeBranch(NodeId row, std::size_t branch, Complex v) override {
    if (row == kGround) return;
    Push(row - 1, sys_.BranchUnknown(current_, branch), v);
  }

  void AddBranchNode(std::size_t branch, NodeId col, Complex v) override {
    if (col == kGround) return;
    Push(sys_.BranchUnknown(current_, branch), col - 1, v);
  }

  void AddBranchBranch(std::size_t row, std::size_t col, Complex v) override {
    Push(sys_.BranchUnknown(current_, row), sys_.BranchUnknown(current_, col),
         v);
  }

  void AddBranchForeignBranchByName(std::size_t row, const std::string& other,
                                    std::size_t k, Complex v) override {
    Push(sys_.BranchUnknown(current_, row), ForeignBranch(other, k), v);
  }

  void AddNodeForeignBranchByName(NodeId row, const std::string& other,
                                  std::size_t k, Complex v) override {
    if (row == kGround) return;
    Push(row - 1, ForeignBranch(other, k), v);
  }

  void AddNodeRhs(NodeId row, Complex v) override {
    if (row == kGround) return;
    rhs_.emplace_back(row - 1, weight_ * v);
  }

  void AddBranchRhs(std::size_t branch, Complex v) override {
    rhs_.emplace_back(sys_.BranchUnknown(current_, branch), weight_ * v);
  }

 private:
  void Push(std::size_t row, std::size_t col, Complex v) {
    entries_.push_back(linalg::Triplet{row, col, weight_ * v});
  }

  std::size_t ForeignBranch(const std::string& name, std::size_t k) const {
    return sys_.BranchUnknown(sys_.ElementIndexOf(name), k);
  }

  const MnaSystem& sys_;
  std::size_t current_;
  AnalysisKind kind_;
  Complex s_;
  Complex weight_;
  std::vector<linalg::Triplet>& entries_;
  std::vector<std::pair<std::size_t, Complex>>& rhs_;
};

}  // namespace

bool SensitivityScreenEnabled(const MnaOptions& options) {
  return options.sensitivity_screen;
}

MnaSystem::MnaSystem(const Netlist& netlist) : netlist_(netlist) {
  netlist.ValidateOrThrow();
  node_unknowns_ = netlist.NodeCount() - 1;
  branch_base_.resize(netlist.ElementCount() + 1);
  std::size_t next = node_unknowns_;
  for (std::size_t i = 0; i < netlist.ElementCount(); ++i) {
    branch_base_[i] = next;
    next += netlist.Elements()[i]->BranchCount();
  }
  branch_base_[netlist.ElementCount()] = next;
  unknown_count_ = next;
}

namespace {

/// Complex frequency for an assembly: s = 0 at DC, j*omega for AC, and the
/// real trapezoidal stiffness 2/h (carried in the omega slot) for transient
/// companion assembly.
Complex ComplexFrequency(AnalysisKind kind, double omega) {
  switch (kind) {
    case AnalysisKind::kDc: return Complex(0.0, 0.0);
    case AnalysisKind::kAc: return Complex(0.0, omega);
    case AnalysisKind::kTransient: return Complex(omega, 0.0);
  }
  return Complex(0.0, 0.0);
}

/// Stamp every element of `netlist` into `ctx`, in element order.
template <typename Context>
void StampElements(const Netlist& netlist, Context& ctx) {
  for (std::size_t i = 0; i < netlist.ElementCount(); ++i) {
    ctx.SetCurrentElement(i);
    netlist.Elements()[i]->Stamp(ctx);
  }
}

}  // namespace

void MnaSystem::Assemble(AnalysisKind kind, double omega,
                         linalg::TripletMatrix& a, linalg::Vector& rhs) const {
  const Complex s = ComplexFrequency(kind, omega);
  a.Reset(unknown_count_, unknown_count_);
  rhs.Resize(unknown_count_);
  rhs.SetZero();
  MnaStampContext ctx(*this, netlist_, kind, s, a, rhs);
  StampElements(netlist_, ctx);
}

void MnaSystem::StampElement(
    std::size_t element_idx, AnalysisKind kind, double omega, Complex weight,
    std::vector<linalg::Triplet>& entries,
    std::vector<std::pair<std::size_t, Complex>>& rhs_entries) const {
  if (element_idx >= netlist_.ElementCount()) {
    throw util::AnalysisError("element index " + std::to_string(element_idx) +
                              " outside MNA system");
  }
  const Complex s = ComplexFrequency(kind, omega);
  DeltaStampContext ctx(*this, element_idx, kind, s, weight, entries,
                        rhs_entries);
  netlist_.Elements()[element_idx]->Stamp(ctx);
}

MnaSolution MnaSystem::Solve(AnalysisKind kind, double omega) const {
  static metrics::Counter& solve_count = metrics::GetCounter("spice.mna.solve");
  solve_count.Add();
  linalg::TripletMatrix a;
  linalg::Vector rhs;
  Assemble(kind, omega, a, rhs);
  linalg::Vector x = UseDenseLu(unknown_count_)
                         ? linalg::SolveDense(a.ToDense(), rhs)
                         : linalg::SolveSparse(linalg::CsrMatrix(a), rhs);
  return MnaSolution(std::move(x), &branch_base_, node_unknowns_);
}

MnaSolution MnaSystem::SolveAcHz(double hz) const {
  return Solve(AnalysisKind::kAc, 2.0 * std::numbers::pi * hz);
}

MnaSolution MnaSystem::SolveDc() const { return Solve(AnalysisKind::kDc, 0.0); }

std::size_t MnaSystem::ElementIndexOf(const std::string& name) const {
  const std::string key = util::ToUpper(name);
  for (std::size_t i = 0; i < netlist_.ElementCount(); ++i) {
    if (netlist_.Elements()[i]->Name() == key) return i;
  }
  throw util::AnalysisError("element '" + name + "' not found in MNA system");
}

/// Records an AC assembly for AcStampProgram: forwards every call to the
/// plain MNA context (so the triplets and RHS are exactly Assemble's) and
/// tags each triplet the call appended with how its value depends on s.
class AcStampProgram::Recorder final : public StampContext {
 public:
  Recorder(const MnaSystem& sys, Complex s, linalg::TripletMatrix& a,
           linalg::Vector& rhs, AcStampProgram& program)
      : sys_(sys),
        inner_(sys, sys.Circuit(), AnalysisKind::kAc, s, a, rhs),
        s_(s),
        a_(a),
        program_(program) {}

  void SetCurrentElement(std::size_t element_idx) {
    inner_.SetCurrentElement(element_idx);
    current_ = element_idx;
  }

  AnalysisKind Kind() const override { return AnalysisKind::kAc; }

  Complex S() const override {
    throw util::AnalysisError(
        "element '" + sys_.Circuit().Elements()[current_]->Name() +
        "' reads s directly; compiled AC stamps need AddAdmittanceS, "
        "AddBranchBranchS or AddBranchNodeGain");
  }

  void AddAdmittance(NodeId a, NodeId b, Complex y) override {
    inner_.AddAdmittance(a, b, y);
    Tag(Term{});
  }
  void AddNodeNode(NodeId row, NodeId col, Complex v) override {
    inner_.AddNodeNode(row, col, v);
    Tag(Term{});
  }
  void AddNodeBranch(NodeId row, std::size_t branch, Complex v) override {
    inner_.AddNodeBranch(row, branch, v);
    Tag(Term{});
  }
  void AddBranchNode(std::size_t branch, NodeId col, Complex v) override {
    inner_.AddBranchNode(branch, col, v);
    Tag(Term{});
  }
  void AddBranchBranch(std::size_t row, std::size_t col, Complex v) override {
    inner_.AddBranchBranch(row, col, v);
    Tag(Term{});
  }
  void AddBranchForeignBranchByName(std::size_t row, const std::string& other,
                                    std::size_t k, Complex v) override {
    inner_.AddBranchForeignBranchByName(row, other, k, v);
    Tag(Term{});
  }
  void AddNodeForeignBranchByName(NodeId row, const std::string& other,
                                  std::size_t k, Complex v) override {
    inner_.AddNodeForeignBranchByName(row, other, k, v);
    Tag(Term{});
  }
  // The RHS takes only constants; Record() keeps the assembled vector.
  void AddNodeRhs(NodeId row, Complex v) override { inner_.AddNodeRhs(row, v); }
  void AddBranchRhs(std::size_t branch, Complex v) override {
    inner_.AddBranchRhs(branch, v);
  }

  // The s-aware entry points: the values and entry sequence of the
  // StampContext defaults, tagged with their s-dependence.
  void AddAdmittanceS(NodeId a, NodeId b, double c) override {
    const Complex y = s_ * c;
    inner_.AddNodeNode(a, a, y);
    inner_.AddNodeNode(b, b, y);
    Tag(Term{TermKind::kS, GainTerm::kGain, 0, 0, c});
    inner_.AddNodeNode(a, b, -y);
    inner_.AddNodeNode(b, a, -y);
    Tag(Term{TermKind::kNegS, GainTerm::kGain, 0, 0, c});
  }

  void AddBranchBranchS(std::size_t row, std::size_t col, double c) override {
    inner_.AddBranchBranch(row, col, s_ * c);
    Tag(Term{TermKind::kS, GainTerm::kGain, 0, 0, c});
  }

  void AddBranchNodeGain(std::size_t branch, NodeId col,
                         const OpampModel& model, GainTerm term) override {
    inner_.AddBranchNode(branch, col, GainTermValue(term, model.Gain(s_)));
    // Ideal and finite-gain models have an s-independent gain.
    if (model.kind != OpampModelKind::kSinglePole) {
      Tag(Term{});
      return;
    }
    // One gain register per opamp: its terms share one evaluation.
    if (gain_owner_ != current_) {
      program_.gains_.push_back(model);
      gain_owner_ = current_;
    }
    Tag(Term{TermKind::kGain, term,
             static_cast<std::uint32_t>(program_.gains_.size() - 1), 0, 0.0});
  }

 private:
  /// Tag every triplet appended since the last tag with `term`.
  void Tag(Term term) {
    std::vector<Term>& recorded = program_.recorded_;
    while (recorded.size() < a_.EntryCount()) {
      term.value = a_.Entries()[recorded.size()].value;
      recorded.push_back(term);
    }
  }

  const MnaSystem& sys_;
  MnaStampContext inner_;
  Complex s_;
  const linalg::TripletMatrix& a_;
  AcStampProgram& program_;
  std::size_t current_ = 0;
  std::size_t gain_owner_ = static_cast<std::size_t>(-1);
};

void AcStampProgram::Record(const MnaSystem& sys, double omega,
                            linalg::TripletMatrix& a, linalg::Vector& rhs) {
  const std::size_t n = sys.UnknownCount();
  a.Reset(n, n);
  rhs.Resize(n);
  rhs.SetZero();
  recorded_.clear();
  gains_.clear();
  Recorder recorder(sys, Complex(0.0, omega), a, rhs, *this);
  StampElements(sys.Circuit(), recorder);
  rhs_ = rhs;
}

void AcStampProgram::Bind(const linalg::CsrAssembly& pattern) {
  const std::vector<std::size_t>& slots = pattern.EntrySlots();
  if (slots.size() != recorded_.size()) {
    throw util::AnalysisError(
        "stamp program bound to a pattern of a different stamp sequence");
  }
  // A slot's constants up to its first s-dependent term sum here once, in
  // stamp order; everything after stays in the per-point tail.
  base_.assign(pattern.Matrix().NonZeroCount(), Complex(0.0, 0.0));
  std::vector<bool> leading(base_.size(), true);
  tail_.clear();
  for (std::size_t i = 0; i < recorded_.size(); ++i) {
    const std::size_t slot = slots[i];
    if (recorded_[i].kind == TermKind::kConstant && leading[slot]) {
      base_[slot] += recorded_[i].value;
      continue;
    }
    leading[slot] = false;
    tail_.push_back(recorded_[i]);
    tail_.back().slot = slot;
  }
  gain_values_.resize(gains_.size());
}

void AcStampProgram::Evaluate(double omega, linalg::CsrAssembly& pattern,
                              linalg::Vector& rhs) {
  const Complex s(0.0, omega);
  for (std::size_t k = 0; k < gains_.size(); ++k) {
    gain_values_[k] = gains_[k].Gain(s);
  }
  std::vector<Complex>& values = pattern.MutableValues();
  if (values.size() != base_.size()) {
    throw util::AnalysisError("stamp program evaluated into an unbound pattern");
  }
  std::copy(base_.begin(), base_.end(), values.begin());
  for (const Term& t : tail_) {
    Complex& v = values[t.slot];
    switch (t.kind) {
      case TermKind::kConstant: v += t.value; break;
      case TermKind::kS: v += s * t.c; break;
      case TermKind::kNegS: v += -(s * t.c); break;
      case TermKind::kGain:
        v += GainTermValue(t.gain, gain_values_[t.reg]);
        break;
    }
  }
  rhs.data() = rhs_.data();
}

void MnaSolveCache::KeepProgram() {
  if (lu_program_kept_ || !lu_->Program()) return;
  lu_program_kept_ = true;
  if (programs_.size() < kMaxPrograms) {
    programs_.push_back(lu_->Program());
    return;
  }
  programs_[next_program_] = lu_->Program();
  next_program_ = (next_program_ + 1) % kMaxPrograms;
}

const MnaSolution& MnaSolveCache::SolveAcHz(const MnaSystem& sys, double hz) {
  static metrics::Counter& solve_count = metrics::GetCounter("spice.mna.solve");
  static metrics::Counter& program_records =
      metrics::GetCounter("spice.mna.program_records");
  static metrics::Counter& pattern_rebuild =
      metrics::GetCounter("spice.mna.pattern_rebuild");
  static metrics::Counter& refactor_hit =
      metrics::GetCounter("spice.mna.refactor_hit");
  static metrics::Counter& full_factor =
      metrics::GetCounter("spice.mna.full_factor");

  solve_count.Add();
  const double omega = 2.0 * std::numbers::pi * hz;

  // The sweep's first point records the stamp program and checks the
  // pattern once.  Every point, the first included, takes its values from
  // the program, so a freshly built pattern and a reused one hold the same
  // bits; then a numeric-only refactorization under the stored pivot
  // ordering.
  if (!recorded_) {
    program_records.Add();
    program_.Record(sys, omega, a_, rhs_);
    if (!pattern_ || !pattern_->Matches(a_)) {
      pattern_rebuild.Add();
      pattern_.emplace(a_);  // structure changed (or first solve)
      lu_.reset();
      programs_.clear();
      next_program_ = 0;
    }
    program_.Bind(*pattern_);
    recorded_ = true;
  }
  program_.Evaluate(omega, *pattern_, rhs_);
  const linalg::CsrMatrix& m = pattern_->Matrix();
  bool refactored = false;
  if (lu_) {
    refactored = lu_->Refactor(m);
    KeepProgram();  // the first Refactor compiles, accepted or not
  }
  if (refactored) {
    refactor_hit.Add();
    ++refactor_count_;
  } else {
    // Full factorization: the cross-request shared-cache hook point.  A
    // published snapshot of the identical system (copied pre-program,
    // immediately after construction) is a byte-exact stand-in for
    // constructing here, so a hit cannot change results.
    std::shared_ptr<const linalg::SparseLu> snapshot;
    if (shared_ != nullptr &&
        (snapshot = shared_->Acquire(SharedFactorCache::KeyOf(m)))) {
      lu_.emplace(*snapshot);
    } else {
      lu_.emplace(m);
      if (shared_ != nullptr) {
        shared_->Publish(SharedFactorCache::KeyOf(m), *lu_);
      }
    }
    // A repeated pivot order adopts its stored program.
    lu_program_kept_ = false;
    for (const auto& stored : programs_) {
      if (lu_->AdoptProgram(stored)) {
        lu_program_kept_ = true;
        break;
      }
    }
    full_factor.Add();
    ++full_factor_count_;
  }
  linalg::Vector x = std::move(solution_.x_);
  lu_->Solve(rhs_, x);
  solution_ = sys.WrapSolution(std::move(x));
  return solution_;
}

void MnaSolveCache::SolveAgain(const linalg::Vector& rhs, linalg::Vector& x) {
  static metrics::Counter& extra_solves =
      metrics::GetCounter("spice.mna.extra_solve");
  if (!lu_) {
    throw util::AnalysisError("MnaSolveCache::SolveAgain before any solve");
  }
  extra_solves.Add();
  lu_->Solve(rhs, x);
}

std::size_t MnaSystem::BranchUnknown(std::size_t element_idx,
                                     std::size_t k) const {
  const std::size_t base = branch_base_[element_idx];
  const std::size_t next = branch_base_[element_idx + 1];
  if (base + k >= next) {
    throw util::AnalysisError(
        "element '" + netlist_.Elements()[element_idx]->Name() +
        "' used branch " + std::to_string(k) + " but declared only " +
        std::to_string(next - base));
  }
  return base + k;
}

}  // namespace mcdft::spice
