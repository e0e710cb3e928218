#include "faults/simulator.hpp"

#include <cmath>
#include <optional>

#include "linalg/lowrank.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace mcdft::faults {

namespace metrics = util::metrics;

namespace {

bool Finite(linalg::Complex v) {
  return std::isfinite(v.real()) && std::isfinite(v.imag());
}

/// Probe voltage V(plus) - V(minus) from a raw unknown vector.
linalg::Complex ProbeValue(const spice::Probe& probe, const linalg::Vector& x) {
  const auto at = [&](spice::NodeId node) {
    return node == spice::kGround ? linalg::Complex(0.0, 0.0) : x[node - 1];
  };
  return at(probe.plus) - at(probe.minus);
}

metrics::Counter& RetryCounter() {
  static metrics::Counter& c = metrics::GetCounter("faults.sim.retries");
  return c;
}

metrics::Counter& QuarantineCounter() {
  static metrics::Counter& c = metrics::GetCounter("faults.sim.quarantined");
  return c;
}

/// The reference sweep of `netlist`: every point assembled generically and
/// factored afresh by MnaSystem::Solve.
spice::FrequencyResponse ReferenceSweep(const spice::Netlist& netlist,
                                        const spice::SweepSpec& sweep,
                                        const spice::Probe& probe,
                                        std::string label) {
  util::trace::Span span("faults.sim.sweep");
  const spice::MnaSystem sys(netlist);
  spice::FrequencyResponse r;
  r.freqs_hz = sweep.Frequencies();
  r.values.reserve(r.freqs_hz.size());
  r.label = std::move(label);
  for (const double f : r.freqs_hz) {
    r.values.push_back(
        sys.SolveAcHz(f).VoltageBetween(probe.plus, probe.minus));
  }
  return r;
}

}  // namespace

FaultSimulator::FaultSimulator(const spice::Netlist& netlist,
                               spice::SweepSpec sweep, spice::Probe probe,
                               spice::MnaOptions options)
    : work_(netlist.Clone()),
      sweep_(std::move(sweep)),
      probe_(std::move(probe)),
      options_(options) {
  work_.ValidateOrThrow();
}

spice::FrequencyResponse FaultSimulator::SimulateNominal() const {
  static metrics::Counter& nominal_sweeps =
      metrics::GetCounter("faults.sim.nominal_sweeps");
  nominal_sweeps.Add();
  return ReferenceSweep(work_, sweep_, probe_, "nominal");
}

spice::FrequencyResponse FaultSimulator::SimulateFault(const Fault& fault) const {
  static metrics::Counter& fault_sweeps =
      metrics::GetCounter("faults.sim.fault_sweeps");
  fault_sweeps.Add();
  ScopedFaultInjection injection(work_, fault);
  return ReferenceSweep(work_, sweep_, probe_, fault.Label());
}

namespace {

/// Per-point screening context of the sensitivity screen: the deviation
/// denominator and detection threshold at one sweep point.  Null = no
/// screening at this point.
struct ScreenPoint {
  double denom;
  double threshold;
};

/// Per-thread-block state of a frequency-major sweep.  Fault injection
/// mutates the netlist, so each block owns a private clone (and its own MNA
/// structures): blocks never share mutable state.
///
/// Determinism: every block derives its pivot ordering from the sweep's
/// *first* frequency (a full Markowitz factorization of the nominal system
/// at freqs[0]) and reaches any other point by numeric-only refactorization
/// under that fixed ordering.  The value computed at a frequency is thus a
/// pure function of (netlist values, frequency) — independent of how points
/// are split across blocks, threads or shards.  A point whose values reject
/// the anchored ordering gets its own fresh full factorization (again a
/// pure function of that point), and the anchor ordering stays in force for
/// subsequent points.  The retry ladder keeps the same contract: every
/// escalation decision depends only on the cell's own inputs (an exception
/// or a non-finite value from a deterministic solve), never on timing, so
/// quarantine verdicts are identical at any thread or shard count.
class FreqMajorBlock {
 public:
  /// Fault j of [fault_begin, fault_end) reads its stamp deltas from
  /// `shared` when that covers it, from `local` otherwise.
  FreqMajorBlock(const spice::Netlist& base, double omega0,
                 const std::vector<Fault>& faults, std::size_t fault_begin,
                 std::size_t fault_end, const FaultDeltaTable* shared,
                 const FaultDeltaTable& local)
      : local_(base.Clone()), sys_(local_) {
    // Resolve each fault's target once: the per-point loop then skips the
    // name lookup (hash + case fold) on every (fault, frequency) pair.
    targets_.reserve(fault_end - fault_begin);
    for (std::size_t j = fault_begin; j < fault_end; ++j) {
      const std::string& device = faults[j].Device();
      const FaultDeltaTable* deltas =
          shared != nullptr && shared->Covers(j) ? shared : &local;
      targets_.push_back(Target{sys_.ElementIndexOf(device),
                                &local_.GetElement(device), deltas, j});
    }
    // The block's one Stamp pass: record the nominal stamp program at the
    // anchor point; every other point replays it (SolveNominal).
    program_.Record(sys_, omega0, a_, rhs_);
    pattern_.emplace(a_);
    program_.Bind(*pattern_);
    try {
      ref_lu_.emplace(pattern_->Matrix());
    } catch (const util::Error&) {
      // Anchor factorization failed: leave ref_lu_ empty — every point then
      // runs its own full factorization through the ladder.  The decision
      // depends only on (netlist values, freqs[0]), so every block across
      // every thread/shard partition makes it identically.
      RetryCounter().Add();
    }
  }

  /// Solve the nominal system at `omega` (t == 0 reuses the anchor
  /// assembly) and bind the SMW solver; returns the probe value, or
  /// nullopt when the whole retry ladder failed (quarantine the point).
  std::optional<linalg::Complex> SolveNominal(std::size_t t, double omega,
                                              const spice::Probe& probe) {
    if (t != 0) program_.Evaluate(omega, *pattern_, rhs_);
    point_lu_.reset();
    smw_bound_ = false;
    bound_lu_ = nullptr;
    lambda_valid_ = false;

    // Stage 1: anchored sparse factorization (the normal path).
    try {
      linalg::SparseLu* lu = nullptr;
      if (ref_lu_) {
        lu = &*ref_lu_;
        if (t != 0 && !ref_lu_->Refactor(pattern_->Matrix())) lu = nullptr;
      }
      if (lu == nullptr) {
        point_lu_.emplace(pattern_->Matrix());
        lu = &*point_lu_;
      }
      smw_.Bind(*lu, rhs_);
      const linalg::Complex v = ProbeValue(probe, smw_.NominalSolution());
      if (Finite(v)) {
        smw_bound_ = true;
        bound_lu_ = lu;
        return v;
      }
    } catch (const util::Error&) {
    }
    RetryCounter().Add();

    // Stage 2: jittered pivot ordering — a fresh factorization under pure
    // partial pivoting (threshold 1.0) instead of the sparsity-favoring
    // Markowitz ordering.
    try {
      point_lu_.emplace(pattern_->Matrix(), linalg::SparseLuOptions{1.0});
      smw_.Bind(*point_lu_, rhs_);
      const linalg::Complex v = ProbeValue(probe, smw_.NominalSolution());
      if (Finite(v)) {
        smw_bound_ = true;
        bound_lu_ = &*point_lu_;
        return v;
      }
    } catch (const util::Error&) {
    }
    RetryCounter().Add();

    // Stage 3: dense fallback.  SMW cannot bind a dense factorization, so
    // every fault at this point takes the exact ladder directly.  The dense
    // matrix sums duplicates in stamp order: the program's CSR values do,
    // while the anchor's were compressed from its triplets (sorted order).
    try {
      const linalg::Complex v = ProbeValue(
          probe, linalg::SolveDense(t == 0 ? a_.ToDense()
                                           : pattern_->Matrix().ToDense(),
                                    rhs_));
      if (Finite(v)) return v;
    } catch (const util::Error&) {
    }
    return std::nullopt;
  }

  /// Solve the bound point `t` with fault `slot` of the block's range
  /// injected: the sensitivity screen first (when `sp` is set), then an SMW
  /// rank-update when the stamp delta allows it, the exact ladder
  /// otherwise.  Returns the probe value, or nullopt when quarantined.
  std::optional<linalg::Complex> SolveFault(const Fault& fault,
                                            std::size_t slot, std::size_t t,
                                            double omega,
                                            const spice::Probe& probe,
                                            const ScreenPoint* sp) {
    const Target& target = targets_[slot];

    // Stage 0: SMW rank-update against the bound nominal factorization.  A
    // declined update (rank cap, RHS delta, conditioning guard) is the
    // normal exact fallback, not a retry; a *thrown* failure — the delta's
    // computation included — or a non-finite value counts as one and
    // escalates.
    if (smw_bound_) {
      bool smw_failed = false;
      switch (target.deltas->Read(target.fault, t, delta_)) {
        case FaultDeltaTable::Outcome::kThrew:
          smw_failed = true;
          break;
        case FaultDeltaTable::Outcome::kNotExpressible:
          break;
        case FaultDeltaTable::Outcome::kDelta:
          try {
            if (const std::optional<linalg::Complex> screened =
                    TryScreen(fault, delta_, probe, sp)) {
              return screened;
            }
            std::optional<linalg::Vector> x = smw_.Solve(delta_);
            if (x) {
              const linalg::Complex v = ProbeValue(probe, *x);
              if (Finite(v)) return v;
              smw_failed = true;
            }
          } catch (const util::Error&) {
            smw_failed = true;
          }
          break;
      }
      if (smw_failed) RetryCounter().Add();
    }

    return SolveFaultExact(fault, slot, omega, probe);
  }

 private:
  /// A fault's pre-resolved injection target and the table holding its
  /// stamp deltas.
  struct Target {
    std::size_t index;              // MNA element index
    spice::Element* element;        // element inside local_
    const FaultDeltaTable* deltas;  // covers `fault`
    std::size_t fault;              // index into the fault list
  };

  /// Solve fault `slot` at the bound point exactly — everything after the
  /// SMW stage of SolveFault().  Returns the probe value, or nullopt when
  /// the ladder is exhausted (quarantine).
  std::optional<linalg::Complex> SolveFaultExact(const Fault& fault,
                                                 std::size_t slot,
                                                 double omega,
                                                 const spice::Probe& probe) {
    static metrics::Counter& exact_fallback =
        metrics::GetCounter("faults.sim.exact_fallback");
    const Target& target = targets_[slot];
    exact_fallback.Add();

    std::optional<ScopedFaultInjection> injection;
    try {
      injection.emplace(*target.element, fault);
      sys_.Assemble(spice::AnalysisKind::kAc, omega, a_, rhs_);
    } catch (const util::Error&) {
      // The faulty value itself is unrepresentable (e.g. scales past the
      // floating-point range) or the faulty stamp cannot assemble: there
      // is no alternative factorization to try — quarantine the cell.
      RetryCounter().Add();
      return std::nullopt;
    }
    // A fault that changes the stamp structure (opamp model promotion) is
    // solved outside the cached pattern.
    const bool same_structure = pattern_->Matches(a_);
    if (same_structure) pattern_->Update(a_);

    // Stage 1: exact sparse factorization, default Markowitz ordering.
    try {
      linalg::Vector x =
          same_structure
              ? linalg::SparseLu(pattern_->Matrix()).Solve(rhs_)
              : linalg::SolveSparse(linalg::CsrMatrix(a_), rhs_);
      const linalg::Complex v = ProbeValue(probe, x);
      if (Finite(v)) return v;
    } catch (const util::Error&) {
    }
    RetryCounter().Add();

    // Stage 2: jittered pivot ordering (pure partial pivoting).
    try {
      const linalg::SparseLuOptions jitter{1.0};
      linalg::Vector x =
          same_structure
              ? linalg::SparseLu(pattern_->Matrix(), jitter).Solve(rhs_)
              : linalg::SolveSparse(linalg::CsrMatrix(a_), rhs_, jitter);
      const linalg::Complex v = ProbeValue(probe, x);
      if (Finite(v)) return v;
    } catch (const util::Error&) {
    }
    RetryCounter().Add();

    // Stage 3: dense factorization of the faulty system.
    try {
      linalg::Vector x = linalg::SolveDense(a_.ToDense(), rhs_);
      const linalg::Complex v = ProbeValue(probe, x);
      if (Finite(v)) return v;
    } catch (const util::Error&) {
    }
    return std::nullopt;
  }

  /// Screen one parametric fault cell against the sensitivity estimate:
  /// returns the synthetic faulty value when the verdict is decided (skip
  /// the solve), nullopt when the cell must solve exactly.  The adjoint
  /// lambda is computed lazily, once per bound point, and only when some
  /// screenable cell actually reaches this gate.
  std::optional<linalg::Complex> TryScreen(
      const Fault& fault, const linalg::LowRankPerturbation& delta,
      const spice::Probe& probe, const ScreenPoint* sp) {
    if (sp == nullptr || !smw_bound_ || bound_lu_ == nullptr ||
        !ScreenableFault(fault)) {
      return std::nullopt;
    }
    EnsureAdjoint(probe);
    const linalg::Vector& x0 = smw_.NominalSolution();
    const ScreenDecision decision =
        ScreenCell(ProbeValue(probe, x0),
                   FirstOrderProbeDelta(delta, lambda_, x0), sp->denom,
                   sp->threshold, kScreenMargin);
    if (!decision.skip) return std::nullopt;
    return decision.synthetic;
  }

  /// One adjoint transpose solve per bound point: A^T lambda = p with p
  /// the probe indicator (+1 at plus, -1 at minus, ground rows absent).
  void EnsureAdjoint(const spice::Probe& probe) {
    static metrics::Counter& adjoint_solves =
        metrics::GetCounter("faults.screen.adjoint_solves");
    if (lambda_valid_) return;
    adjoint_rhs_.data().assign(rhs_.size(), linalg::Complex(0.0, 0.0));
    if (probe.plus != spice::kGround) {
      adjoint_rhs_[probe.plus - 1] += linalg::Complex(1.0, 0.0);
    }
    if (probe.minus != spice::kGround) {
      adjoint_rhs_[probe.minus - 1] -= linalg::Complex(1.0, 0.0);
    }
    lambda_ = bound_lu_->SolveTranspose(adjoint_rhs_);
    adjoint_solves.Add();
    lambda_valid_ = true;
  }

  spice::Netlist local_;
  spice::MnaSystem sys_;
  std::vector<Target> targets_;
  spice::AcStampProgram program_;  // nominal stamps, recorded at omega0
  linalg::TripletMatrix a_;
  linalg::Vector rhs_;
  std::optional<linalg::CsrAssembly> pattern_;
  std::optional<linalg::SparseLu> ref_lu_;    // anchor-ordering factorization
  std::optional<linalg::SparseLu> point_lu_;  // per-point ordering fallback
  linalg::LowRankUpdateSolver smw_;
  linalg::LowRankPerturbation delta_;  // the current cell's, from a table
  bool smw_bound_ = false;  // SMW holds a valid nominal at this point
  // Sensitivity-screen state of the bound point (see TryScreen).
  linalg::SparseLu* bound_lu_ = nullptr;  // factorization behind smw_
  linalg::Vector adjoint_rhs_;            // probe indicator p
  linalg::Vector lambda_;                 // A^T lambda = p at this point
  bool lambda_valid_ = false;
};

}  // namespace

std::vector<spice::FrequencyResponse> FaultSimulator::SimulateRange(
    const std::vector<Fault>& faults, std::size_t fault_begin,
    std::size_t fault_end, std::size_t threads,
    const SensitivityScreenSpec* screen, const FaultDeltaTable* deltas) const {
  static metrics::Counter& nominal_sweeps =
      metrics::GetCounter("faults.sim.nominal_sweeps");
  static metrics::Counter& fault_sweeps =
      metrics::GetCounter("faults.sim.fault_sweeps");
  static metrics::Counter& unit_deltas =
      metrics::GetCounter("faults.sim.unit_deltas");
  if (fault_end > faults.size() || fault_begin > fault_end) {
    throw util::AnalysisError("fault range out of bounds");
  }
  const std::size_t count = fault_end - fault_begin;
  nominal_sweeps.Add();
  fault_sweeps.Add(count);
  util::trace::Span span("faults.sim.freq_major");

  const std::vector<double>& freqs = sweep_.Frequencies();
  const std::size_t points = freqs.size();

  // The range's stamp deltas: the shared table's, and before the sweep the
  // entries it does not cover, computed on this netlist.  Computing an
  // entry ahead of its cell is unobservable — Compute touches no counter
  // or faultpoint, and the armed smw.solve faultpoint digests the delta's
  // bytes, not when they were made.
  if (deltas != nullptr) deltas->CheckBuiltFor(faults, freqs);
  std::vector<bool> missing(faults.size(), false);
  bool any_missing = false;
  for (std::size_t j = fault_begin; j < fault_end; ++j) {
    if (deltas == nullptr || !deltas->Covers(j)) {
      missing[j] = true;
      any_missing = true;
    }
  }
  FaultDeltaTable local;
  if (any_missing) {
    local = FaultDeltaTable(work_, freqs, faults, missing);
    unit_deltas.Add(local.EntryCount());
  }

  std::vector<spice::FrequencyResponse> out(1 + count);
  out[0].label = "nominal";
  for (std::size_t j = 0; j < count; ++j) {
    out[1 + j].label = faults[fault_begin + j].Label();
  }
  for (auto& r : out) {
    r.freqs_hz = freqs;
    r.values.resize(points);
  }

  // Quarantine scratch masks: one byte per (slot, point).  vector<bool>
  // bit-packs, so adjacent frequency blocks would race on shared words —
  // bytes keep the parallel writes disjoint.  Folded into the responses'
  // masks after the join.
  std::vector<std::vector<unsigned char>> qmask(
      1 + count, std::vector<unsigned char>(points, 0));

  // Effective screen gate: a spec from the campaign, the option gate, and
  // a threshold grid matching this sweep.  When active, a pass-1
  // nominal-only sweep prices the deviation denominators the classifier
  // divides by — the denominator couples every point through the sweep's
  // peak |T|, so it cannot be computed inside the per-point loop.  The
  // pass-1 values are the exact bytes pass 2 recomputes for the nominal
  // slot (same blocks, same ladder, same quarantine convention: a
  // quarantined point stores 0 and contributes nothing to the peak).
  const bool screening = screen != nullptr &&
                         spice::SensitivityScreenEnabled(options_) &&
                         screen->threshold.size() == points;
  std::vector<double> denoms;
  if (screening) {
    spice::FrequencyResponse reference;
    reference.freqs_hz = freqs;
    reference.values.assign(points, linalg::Complex(0.0, 0.0));
    util::ParallelForRange(
        threads, points, [&](std::size_t begin, std::size_t end) {
          FreqMajorBlock block(work_, SweepOmega(freqs, 0), faults,
                               fault_begin, fault_begin,  // nominal only
                               deltas, local);
          for (std::size_t t = begin; t < end; ++t) {
            const std::optional<linalg::Complex> nominal =
                block.SolveNominal(t, SweepOmega(freqs, t), probe_);
            if (nominal) reference.values[t] = *nominal;
          }
        });
    denoms = spice::DeviationDenominators(reference, screen->relative_floor);
  }

  util::ParallelForRange(
      threads, points, [&](std::size_t begin, std::size_t end) {
        FreqMajorBlock block(work_, SweepOmega(freqs, 0), faults,
                             fault_begin, fault_end, deltas, local);
        for (std::size_t t = begin; t < end; ++t) {
          const double omega = SweepOmega(freqs, t);
          const std::optional<linalg::Complex> nominal =
              block.SolveNominal(t, omega, probe_);
          if (!nominal) {
            // Nominal quarantined: every fault cell at this omega is
            // quarantined with it (there is no reference to compare
            // against).
            for (std::size_t s = 0; s <= count; ++s) {
              qmask[s][t] = 1;
              out[s].values[t] = linalg::Complex(0.0, 0.0);
            }
            continue;
          }
          out[0].values[t] = *nominal;
          const ScreenPoint sp =
              screening ? ScreenPoint{denoms[t], screen->threshold[t]}
                        : ScreenPoint{};
          for (std::size_t j = 0; j < count; ++j) {
            const std::optional<linalg::Complex> v =
                block.SolveFault(faults[fault_begin + j], j, t, omega, probe_,
                                 screening ? &sp : nullptr);
            if (v) {
              out[1 + j].values[t] = *v;
            } else {
              qmask[1 + j][t] = 1;
              out[1 + j].values[t] = linalg::Complex(0.0, 0.0);
            }
          }
        }
      });

  std::size_t quarantined = 0;
  for (std::size_t s = 0; s < qmask.size(); ++s) {
    for (std::size_t t = 0; t < points; ++t) {
      if (qmask[s][t]) {
        out[s].MarkQuarantined(t);
        ++quarantined;
      }
    }
  }
  if (quarantined > 0) QuarantineCounter().Add(quarantined);
  return out;
}

namespace {

/// Per-thread-block state of a fault-major transient campaign.  Each block
/// owns a private netlist clone (fault injection mutates element values)
/// and the real factor and solution storage every trajectory it marches
/// reuses.
///
/// Determinism: a trajectory is marched start-to-finish inside one block,
/// and every solve/escalation decision is a pure function of (netlist
/// values, fault, spec) — blocks share nothing mutable, so values and
/// quarantine verdicts are identical at any thread or shard partition.
class TransientBlock {
 public:
  TransientBlock(const spice::Netlist& base, const spice::TransientSpec& spec)
      : local_(base.Clone()), sys_(local_), spec_(spec) {}

  /// March one trajectory into `values` (sized spec.steps) and return its
  /// first bad step index (spec.steps == clean).  With `fault` null this is
  /// the nominal trajectory; otherwise `fault` is injected for the
  /// stepper's construction, which captures the faulty values and matrix.
  /// Factorization ladder: Markowitz sparse, then jittered pivot, then
  /// dense, each factored once.  A sparse factor is copied into real
  /// arrays and every step solves in double; the system is real, so the
  /// values are the real parts of the complex solve (see
  /// linalg::SparseLu::CopyRealFactor).
  std::size_t March(const spice::Probe& probe,
                    std::vector<linalg::Complex>& values,
                    const Fault* fault = nullptr) {
    TrajectoryCounter().Add();
    spice::Element* element =
        fault != nullptr ? &local_.GetElement(fault->Device()) : nullptr;
    std::optional<spice::TransientStepper> stepper;
    try {
      std::optional<ScopedFaultInjection> injection;
      if (fault != nullptr) injection.emplace(*element, *fault);
      stepper.emplace(sys_, local_, spec_);
    } catch (const util::Error&) {
      // The faulty value is unrepresentable or the system cannot assemble
      // (or is not real): nothing to factor — quarantine the whole
      // trajectory.
      RetryCounter().Add();
      return 0;
    }

    // A factorization that fails where the first step would have solved is
    // counted as that step failing: bad from step 0, one retry.
    const auto bad_from_start = [] {
      StepCounter().Add();
      RetryCounter().Add();
      return std::size_t{0};
    };
    std::optional<linalg::LuFactorization> dense;  // set: the dense stage
    try {
      linalg::SparseLu lu(linalg::CsrMatrix(stepper->Matrix()));
      if (!lu.CopyRealFactor(factor_)) return bad_from_start();
    } catch (const util::Error&) {
      RetryCounter().Add();
      try {
        linalg::SparseLu lu(linalg::CsrMatrix(stepper->Matrix()),
                            linalg::SparseLuOptions{1.0});
        if (!lu.CopyRealFactor(factor_)) return bad_from_start();
      } catch (const util::Error&) {
        RetryCounter().Add();
        linalg::Matrix a;
        try {
          a = stepper->Matrix().ToDense();
        } catch (const util::Error&) {
          return 0;
        }
        try {
          dense.emplace(a);
        } catch (const util::Error&) {
          return bad_from_start();
        }
      }
    }
    // Per step: solve, probe, advance.  The first step that probes a
    // non-finite value is the trajectory's first bad step.
    const auto at = [&](spice::NodeId node) {
      return node == spice::kGround ? 0.0 : x_[node - 1];
    };
    for (std::size_t k = 0; k < spec_.steps; ++k) {
      StepCounter().Add();
      const std::vector<double>& b = stepper->NextRhs();
      if (dense) {
        SolveDenseStep(*dense, b);
      } else {
        factor_.Solve(b, x_);
      }
      const double v = at(probe.plus) - at(probe.minus);
      if (!std::isfinite(v)) {
        RetryCounter().Add();
        return k;
      }
      values[k] = linalg::Complex(v, 0.0);
      stepper->Advance(x_);
    }
    return spec_.steps;
  }

 private:
  static metrics::Counter& TrajectoryCounter() {
    static metrics::Counter& c = metrics::GetCounter("transient.trajectories");
    return c;
  }
  static metrics::Counter& StepCounter() {
    static metrics::Counter& c = metrics::GetCounter("transient.steps");
    return c;
  }

  /// One step on the dense factor: the complex solve of the real RHS, whose
  /// real parts become x_.
  void SolveDenseStep(const linalg::LuFactorization& lu,
                      const std::vector<double>& b) {
    dense_x_.Resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      dense_x_[i] = linalg::Complex(b[i], 0.0);
    }
    lu.SolveInPlace(dense_x_);
    x_.resize(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) x_[i] = dense_x_[i].real();
  }

  spice::Netlist local_;
  spice::MnaSystem sys_;
  spice::TransientSpec spec_;
  linalg::RealLuFactor factor_;  // the current trajectory's sparse factor
  std::vector<double> x_;        // the current step's solution
  linalg::Vector dense_x_;       // the dense stage's complex solution
};

}  // namespace

std::vector<spice::FrequencyResponse> FaultSimulator::SimulateTransientRange(
    const std::vector<Fault>& faults, std::size_t fault_begin,
    std::size_t fault_end, std::size_t threads,
    const spice::TransientSpec& spec) const {
  static metrics::Counter& quarantined_points =
      metrics::GetCounter("transient.quarantined_points");
  if (fault_end > faults.size() || fault_begin > fault_end) {
    throw util::AnalysisError("fault range out of bounds");
  }
  const std::size_t count = fault_end - fault_begin;
  const std::vector<double> times = spec.Times();  // validates the spec
  const std::size_t points = spec.steps;
  util::trace::Span span("faults.sim.transient");

  std::vector<spice::FrequencyResponse> out(1 + count);
  out[0].label = "nominal";
  for (std::size_t j = 0; j < count; ++j) {
    out[1 + j].label = faults[fault_begin + j].Label();
  }
  for (auto& r : out) {
    r.freqs_hz = times;
    r.values.assign(points, linalg::Complex(0.0, 0.0));
  }

  // Nominal trajectory: the march's no-fault case (serial; a trajectory
  // has no parallel axis).
  TransientBlock nominal_block(work_, spec);
  const std::size_t nominal_good = nominal_block.March(probe_, out[0].values);

  // Per-slot first-bad-step indices; slot j is written by exactly one
  // worker block, so no synchronization is needed.
  std::vector<std::size_t> first_bad(count, points);
  util::ParallelForRange(
      threads, count, [&](std::size_t begin, std::size_t end) {
        TransientBlock block(work_, spec);
        for (std::size_t j = begin; j < end; ++j) {
          first_bad[j] = block.March(probe_, out[1 + j].values,
                                    &faults[fault_begin + j]);
        }
      });

  // Fold quarantines: a slot is bad from its own first failure, and every
  // slot is bad wherever the nominal reference is bad.
  std::size_t quarantined = 0;
  const auto fold = [&](spice::FrequencyResponse& r, std::size_t from) {
    for (std::size_t t = from; t < points; ++t) {
      r.values[t] = linalg::Complex(0.0, 0.0);
      r.MarkQuarantined(t);
      ++quarantined;
    }
  };
  fold(out[0], nominal_good);
  for (std::size_t j = 0; j < count; ++j) {
    fold(out[1 + j], std::min(first_bad[j], nominal_good));
  }
  if (quarantined > 0) {
    quarantined_points.Add(quarantined);
    QuarantineCounter().Add(quarantined);
  }
  return out;
}

}  // namespace mcdft::faults
