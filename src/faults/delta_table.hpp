// One campaign's fault stamp deltas, computed once per (fault, sweep point).
//
// Configurations differ only in the modes of the configurable opamps
// (paper Sec. 3), and every mode has the same MNA unknowns, so a fault on
// any other device perturbs the system matrix by the same stamp delta in
// every configuration.  An AC campaign therefore computes
// FaultStampDelta::Compute's outcome for each such (fault, point) once, on
// one netlist, into a FaultDeltaTable, and every campaign unit reads its
// deltas from the table (FaultSimulator::SimulateRange).  The entries a
// table does not cover (faults on configurable opamps, devices that do not
// resolve) a unit computes into a table of its own before its sweep.
//
// Layout: one fixed-size header per entry, point-major, and one contiguous
// (index, value) pool holding every term's u then w entries — a handful of
// allocations for the whole table, and none when an entry is read into a
// warm LowRankPerturbation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "faults/fault.hpp"
#include "linalg/lowrank.hpp"
#include "spice/netlist.hpp"

namespace mcdft::faults {

/// Angular frequency of point `t` of a sweep grid: the one product every
/// AC fault cell and every delta table evaluate, so their doubles agree.
inline double SweepOmega(const std::vector<double>& freqs_hz, std::size_t t) {
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  return kTwoPi * freqs_hz[t];
}

class FaultDeltaTable {
 public:
  /// What FaultStampDelta::Compute did for one (fault, point).
  enum class Outcome : std::uint8_t {
    kDelta,           ///< returned a low-rank matrix delta
    kNotExpressible,  ///< returned false: an RHS delta or a rank above the cap
    kThrew,           ///< threw util::Error (e.g. an unrepresentable value)
  };

  /// A table that covers no fault.
  FaultDeltaTable() = default;

  /// Compute the entry of every fault j of `faults` with `include[j]`, at
  /// every point of the grid `freqs_hz`, on a private clone of `netlist`
  /// (the argument is untouched).  Resolving an included fault's device
  /// throws exactly what the frequency-major sweep's own resolution throws
  /// (util::AnalysisError naming the element).  Touches no counter and no
  /// faultpoint.
  FaultDeltaTable(const spice::Netlist& netlist,
                  const std::vector<double>& freqs_hz,
                  const std::vector<Fault>& faults,
                  const std::vector<bool>& include);

  /// Whether fault `fault` (an index into the fault list) has entries.
  bool Covers(std::size_t fault) const {
    return fault < row_.size() && row_[fault] != kNotCovered;
  }

  /// Number of (fault, point) entries.
  std::size_t EntryCount() const { return headers_.size(); }

  /// Throw util::AnalysisError unless the table was built for exactly
  /// `faults` on the grid `freqs_hz`.
  void CheckBuiltFor(const std::vector<Fault>& faults,
                     const std::vector<double>& freqs_hz) const;

  /// The entry of covered fault `fault` at point `t`.  For kDelta, `out`
  /// holds Compute's terms bit for bit; its storage is reused.
  Outcome Read(std::size_t fault, std::size_t t,
               linalg::LowRankPerturbation& out) const;

 private:
  static constexpr std::size_t kNotCovered = ~std::size_t{0};
  static constexpr std::size_t kMaxRank =
      linalg::LowRankUpdateSolver::kMaxRank;

  using Entry = std::pair<std::size_t, linalg::Complex>;

  struct Header {
    std::uint32_t offset = 0;  // first pool entry of the terms
    Outcome outcome = Outcome::kDelta;
    std::uint8_t rank = 0;
    std::uint16_t u_count[kMaxRank] = {};
    std::uint16_t w_count[kMaxRank] = {};
  };

  std::vector<Fault> faults_;
  std::vector<double> freqs_hz_;
  std::vector<std::size_t> row_;  // per fault: its header column, or none
  std::size_t rows_ = 0;          // covered faults
  std::vector<Header> headers_;   // [t * rows_ + row]
  std::vector<Entry> pool_;
};

}  // namespace mcdft::faults
