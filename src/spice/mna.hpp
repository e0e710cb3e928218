// Modified Nodal Analysis assembly and solution.
//
// Unknown ordering: the N-1 non-ground node voltages first (node id i maps
// to unknown i-1), then one slot per element branch current in element
// insertion order.  MnaSystem::Solve factors the assembled system A x = b
// afresh (dense LU up to kDenseLuMaxUnknowns, sparse Markowitz LU above);
// MnaSolveCache is the sweep path, always sparse with a reused ordering.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "spice/elements.hpp"

namespace mcdft::spice {

class SharedFactorCache;  // spice/factor_cache.hpp

/// MNA engine options.  The solver path itself is fixed: see
/// MnaSystem::Solve and MnaSolveCache.
struct MnaOptions {
  /// When true, AC fault campaigns run an adjoint sensitivity screen ahead
  /// of the frequency-major fault loop: one SparseLu::SolveTranspose per
  /// (config, omega) yields first-order |dT/T| estimates for every
  /// parametric fault at once, and cells whose estimate clears the
  /// detection threshold by faults::kScreenMargin (either way) skip the
  /// SMW/exact solve entirely — the detectability verdict is already
  /// decided.  Borderline cells, catastrophic faults, rank-declined stamps
  /// and RHS-touching faults always take the exact path.  Meant to leave
  /// every verdict bit-identical to the unscreened run; leapfrog is a known
  /// exception (DESIGN.md §12).  `mcdft analyze --no-screen` disables it.
  bool sensitivity_screen = true;
  /// Optional cross-request shared factorization cache (owned by the
  /// campaign service; see spice/factor_cache.hpp).  When set, a full
  /// factorization in MnaSolveCache first looks up a published snapshot of
  /// the identical system and publishes its own on a miss.  A hit is a
  /// byte-exact stand-in for construction, so results are bit-identical
  /// with or without the cache.  Deliberately excluded from the campaign
  /// content hash — like threads, it cannot change results.
  SharedFactorCache* shared_factor_cache = nullptr;
};

/// Gate of the adjoint sensitivity screen: `options.sensitivity_screen`.
/// Only AC sweeps on the frequency-major fault path screen; the gate folds
/// into the campaign content hash exactly when set.
bool SensitivityScreenEnabled(const MnaOptions& options);

/// The one dense-or-sparse size rule of one-off solves (MnaSystem::Solve,
/// the DC operating point): dense LU up to kDenseLuMaxUnknowns unknowns,
/// sparse Markowitz LU above.  Every bundled circuit is dense.
inline constexpr std::size_t kDenseLuMaxUnknowns = 64;
inline bool UseDenseLu(std::size_t unknowns) {
  return unknowns <= kDenseLuMaxUnknowns;
}

/// Solution of one MNA solve: node voltages + branch currents with
/// convenient accessors.
class MnaSolution {
 public:
  MnaSolution(linalg::Vector x, const std::vector<std::size_t>* branch_base,
              std::size_t node_unknowns);

  /// Complex node voltage (ground returns 0).
  Complex VoltageAt(NodeId node) const;

  /// Differential voltage V(plus) - V(minus).
  Complex VoltageBetween(NodeId plus, NodeId minus) const;

  /// Branch current `k` of the element with system element index `idx`
  /// (see MnaSystem::ElementIndexOf).
  Complex BranchCurrent(std::size_t element_idx, std::size_t k = 0) const;

  /// Raw unknown vector.
  const linalg::Vector& Raw() const { return x_; }

 private:
  friend class MnaSolveCache;  // solves into x_'s storage point after point

  linalg::Vector x_;
  const std::vector<std::size_t>* branch_base_;  // owned by the MnaSystem
  std::size_t node_unknowns_;
};

/// Assembles and solves the MNA system of a netlist.
///
/// The system object captures the netlist's *structure* (unknown indexing)
/// at construction; element parameter values are read at each Assemble/
/// Solve call, so fault injection that only changes values can reuse the
/// same MnaSystem.  Structural edits (adding/removing elements or nodes)
/// require a new MnaSystem.
class MnaSystem {
 public:
  /// Index the unknowns of `netlist`.  The netlist must outlive this object.
  explicit MnaSystem(const Netlist& netlist);

  /// Total number of unknowns (node voltages + branch currents).
  std::size_t UnknownCount() const { return unknown_count_; }

  /// Number of node-voltage unknowns (= NodeCount()-1).
  std::size_t NodeUnknownCount() const { return node_unknowns_; }

  /// Assemble the complex system for the given analysis at angular
  /// frequency `omega` (rad/s; ignored for DC).
  void Assemble(AnalysisKind kind, double omega, linalg::TripletMatrix& a,
                linalg::Vector& rhs) const;

  /// Stamp a single element at (kind, omega), scaled by `weight`, appending
  /// its matrix contributions to `entries` and its RHS contributions to
  /// `rhs_entries` (both in system unknown coordinates, duplicates kept).
  /// Recording one element with weight -1 at nominal values and +1 with a
  /// fault injected yields exactly that fault's stamp delta — the input of
  /// the low-rank fault-solve path.
  void StampElement(std::size_t element_idx, AnalysisKind kind, double omega,
                    Complex weight, std::vector<linalg::Triplet>& entries,
                    std::vector<std::pair<std::size_t, Complex>>& rhs_entries)
      const;

  /// Assemble and solve at angular frequency `omega` with a fresh
  /// factorization (UseDenseLu).  It shares nothing with MnaSolveCache's
  /// compiled, refactored sweep path: the reference the fast paths are
  /// tested against.
  MnaSolution Solve(AnalysisKind kind, double omega) const;

  /// AC solve at frequency `hz`.
  MnaSolution SolveAcHz(double hz) const;

  /// DC operating point.
  MnaSolution SolveDc() const;

  /// System element index for a named element (used with BranchCurrent).
  /// Name matching is case-insensitive.
  std::size_t ElementIndexOf(const std::string& name) const;

  /// Unknown index of branch `k` of element `element_idx`.  Throws
  /// AnalysisError when the element declared fewer branches.
  std::size_t BranchUnknown(std::size_t element_idx, std::size_t k) const;

  const Netlist& Circuit() const { return netlist_; }

  /// Wrap a raw unknown vector produced by an external solve of this
  /// system's equations (used by MnaSolveCache).
  MnaSolution WrapSolution(linalg::Vector x) const {
    return MnaSolution(std::move(x), &branch_base_, node_unknowns_);
  }

 private:
  const Netlist& netlist_;
  std::size_t node_unknowns_ = 0;
  std::size_t unknown_count_ = 0;
  std::vector<std::size_t> branch_base_;  // per element: first branch unknown
};

/// A netlist's AC stamps, recorded once per sweep and replayed per point.
///
/// Record() calls every element's Stamp once, at the sweep's first angular
/// frequency, and writes the same triplets and RHS as MnaSystem::Assemble
/// (it is the program's front end).  Per triplet it keeps how the value
/// depends on s: a constant, an s·c term (C, L), or a term of a per-point
/// element value that is not affine in s (the single-pole opamp gain,
/// evaluated once per opamp per point).  Bind() folds those onto a CSR
/// pattern's value slots; Evaluate() then writes the CSR values and the RHS
/// at any frequency in one flat loop: no virtual Stamp call, no triplet
/// vector, no pattern compare.
///
/// Bit contract: each contribution is computed by the expression the
/// element's Stamp uses and summed into its slot in stamp order, starting
/// from Complex(0, 0) (a slot's leading constants are pre-summed in that
/// same order), so every CSR value and RHS entry equals Assemble followed
/// by linalg::CsrAssembly::Update at that frequency, bit for bit.
///
/// Lifetime: the program serves only the element values it captured at
/// Record().  Values change between sweeps (Monte-Carlo samples, fault
/// injection), so callers re-record at every sweep start.
class AcStampProgram {
 public:
  /// Stamp `sys` at AC angular frequency `omega` into `a` and `rhs` (as
  /// MnaSystem::Assemble(kAc, omega, a, rhs) does) and record the program.
  /// Throws AnalysisError when an element reads StampContext::S() directly
  /// instead of going through the s-aware entry points: such a value could
  /// not be replayed at another frequency.
  void Record(const MnaSystem& sys, double omega, linalg::TripletMatrix& a,
              linalg::Vector& rhs);

  /// Map the recorded contributions onto `pattern`'s value slots.
  /// `pattern` must describe the recorded triplet sequence (built from it,
  /// or CsrAssembly::Matches it).
  void Bind(const linalg::CsrAssembly& pattern);

  /// Write the system at AC angular frequency `omega` into the bound
  /// pattern's CSR values and into `rhs`.
  void Evaluate(double omega, linalg::CsrAssembly& pattern,
                linalg::Vector& rhs);

 private:
  class Recorder;

  /// How one contribution's value depends on s.
  enum class TermKind : unsigned char {
    kConstant,  ///< value
    kS,         ///< s * c
    kNegS,      ///< -(s * c)
    kGain,      ///< GainTermValue(gain, gains_[reg] evaluated at s)
  };

  struct Term {
    TermKind kind = TermKind::kConstant;
    GainTerm gain = GainTerm::kGain;
    std::uint32_t reg = 0;
    std::size_t slot = 0;  // CSR value index (after Bind)
    double c = 0.0;
    Complex value{0.0, 0.0};
  };

  std::vector<Term> recorded_;      // one per triplet, stamp order
  std::vector<OpampModel> gains_;   // per-point gain registers
  std::vector<Complex> gain_values_;
  linalg::Vector rhs_;              // AC RHS entries are constants
  std::vector<Complex> base_;       // per slot: its leading constants
  std::vector<Term> tail_;          // the rest, stamp order, slot set
};

/// Reusable solve state for AC sweeps with an invariant sparsity pattern —
/// the workhorse of envelope samples and single-fault sweeps.
///
/// Holds the cached CSR pattern of the stamp sequence, the sweep's compiled
/// stamp program, and the sparse-LU factor whose pivot ordering is reused
/// for numeric-only refactorization at each subsequent point.  The cache
/// owns all of its state (no references into any MnaSystem), so one cache
/// may serve many systems; the once-per-sweep pattern check rebuilds the
/// pattern when the stamp sequence changes.
///
/// Determinism: results for a given (netlist values, omega) depend on the
/// ordering chosen at the first full factorization after BeginSweep().
/// Callers call BeginSweep() at each sweep boundary so the ordering is
/// always derived from the sweep's own first point.
///
/// Factor programs: a program is a pure function of the pattern and the
/// pivot order, so the cache keeps the last kMaxPrograms programs its
/// factors compiled for the current pattern, and a full factorization
/// whose Markowitz order repeats one of them adopts it instead of
/// compiling again (Monte-Carlo samples of one configuration mostly share
/// a few orders; a refactor rejection often returns to an earlier order).
/// Adopting gives the same program, so results do not depend on what the
/// cache saw before.  The programs are dropped with the pattern.
class MnaSolveCache {
 public:
  /// Programs kept per pattern; the oldest is replaced first.
  static constexpr std::size_t kMaxPrograms = 16;

  /// `shared` (may be null) is MnaOptions::shared_factor_cache: full
  /// factorizations look it up first and publish to it on a miss.
  explicit MnaSolveCache(SharedFactorCache* shared = nullptr)
      : shared_(shared) {}

  /// Start a sweep: forget the pivot ordering (the sparsity pattern is
  /// kept; it is a deterministic function of the stamp sequence and
  /// carries no value information) and the stamp program.  The next solve
  /// records the netlist's stamps; element values must not change until
  /// the sweep's last point.
  void BeginSweep() {
    lu_.reset();
    recorded_ = false;
  }

  /// Assemble and solve `sys` at AC frequency `hz`: the sweep's first point
  /// records the stamp program, later points replay it.  The sparse LU
  /// refactors under the cached pivot ordering, falling back to a full
  /// factorization whenever the ordering is rejected.  The solution lives
  /// in the cache and is overwritten by the next call.
  const MnaSolution& SolveAcHz(const MnaSystem& sys, double hz);

  /// Solve the last SolveAcHz point's system for another right-hand side
  /// with that point's factorization: x = A^-1 rhs (`x` resized, must not
  /// alias `rhs`).  Throws AnalysisError before the first SolveAcHz.
  void SolveAgain(const linalg::Vector& rhs, linalg::Vector& x);

  /// Diagnostics: how many solves went through the numeric-only refactor
  /// fast path vs. a full factorization (exposed for tests and benches).
  std::size_t RefactorCount() const { return refactor_count_; }
  std::size_t FullFactorCount() const { return full_factor_count_; }

 private:
  /// Remember lu_'s program if its last Refactor compiled a new one.
  void KeepProgram();

  linalg::TripletMatrix a_;
  linalg::Vector rhs_;
  std::optional<linalg::CsrAssembly> pattern_;
  std::optional<linalg::SparseLu> lu_;
  // Factor programs of pattern_ (see the class comment).
  std::vector<std::shared_ptr<const linalg::FactorProgram>> programs_;
  std::size_t next_program_ = 0;  // slot the next program replaces when full
  bool lu_program_kept_ = false;  // lu_'s program is in programs_
  AcStampProgram program_;
  MnaSolution solution_{linalg::Vector(), nullptr, 0};
  SharedFactorCache* shared_ = nullptr;
  bool recorded_ = false;  // program_ holds this sweep's stamps
  std::size_t refactor_count_ = 0;
  std::size_t full_factor_count_ = 0;
};

}  // namespace mcdft::spice
