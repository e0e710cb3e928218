#include "faults/delta_table.hpp"

#include <limits>

#include "faults/stamp_delta.hpp"
#include "spice/mna.hpp"
#include "util/error.hpp"

namespace mcdft::faults {

FaultDeltaTable::FaultDeltaTable(const spice::Netlist& netlist,
                                 const std::vector<double>& freqs_hz,
                                 const std::vector<Fault>& faults,
                                 const std::vector<bool>& include)
    : faults_(faults), freqs_hz_(freqs_hz), row_(faults.size(), kNotCovered) {
  spice::Netlist local = netlist.Clone();
  const spice::MnaSystem sys(local);
  // Resolve each included fault's target once, in fault order and with
  // FreqMajorBlock's calls, so a device that does not resolve throws its
  // message.
  struct Target {
    std::size_t fault;
    std::size_t index;        // MNA element index
    spice::Element* element;  // element inside `local`
  };
  std::vector<Target> targets;
  for (std::size_t j = 0; j < faults.size(); ++j) {
    if (j >= include.size() || !include[j]) continue;
    const std::string& device = faults[j].Device();
    row_[j] = targets.size();
    targets.push_back(
        Target{j, sys.ElementIndexOf(device), &local.GetElement(device)});
  }
  rows_ = targets.size();
  headers_.resize(rows_ * freqs_hz.size());

  FaultStampDelta::Scratch scratch;
  linalg::LowRankPerturbation delta;
  const auto append = [&](const std::vector<Entry>& entries) {
    if (entries.size() > std::numeric_limits<std::uint16_t>::max()) {
      throw util::AnalysisError("fault stamp delta term too wide to tabulate");
    }
    pool_.insert(pool_.end(), entries.begin(), entries.end());
    return static_cast<std::uint16_t>(entries.size());
  };
  for (std::size_t t = 0; t < freqs_hz.size(); ++t) {
    const double omega = SweepOmega(freqs_hz, t);
    for (std::size_t r = 0; r < rows_; ++r) {
      const Target& target = targets[r];
      Header& h = headers_[t * rows_ + r];
      h.offset = static_cast<std::uint32_t>(pool_.size());
      try {
        if (!FaultStampDelta::Compute(sys, *target.element, target.index,
                                      faults[target.fault],
                                      spice::AnalysisKind::kAc, omega,
                                      scratch, delta)) {
          h.outcome = Outcome::kNotExpressible;
          continue;
        }
      } catch (const util::Error&) {
        h.outcome = Outcome::kThrew;
        continue;
      }
      h.rank = static_cast<std::uint8_t>(delta.Rank());
      for (std::size_t k = 0; k < delta.Rank(); ++k) {
        h.u_count[k] = append(delta.terms[k].u);
        h.w_count[k] = append(delta.terms[k].w);
      }
    }
    // Every point stamps the same elements: size the pool from the first.
    if (t == 0) pool_.reserve(pool_.size() * freqs_hz.size());
  }
  if (pool_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw util::AnalysisError("fault delta table too large");  // offsets
  }
}

void FaultDeltaTable::CheckBuiltFor(const std::vector<Fault>& faults,
                                    const std::vector<double>& freqs_hz) const {
  if (faults != faults_) {
    throw util::AnalysisError(
        "fault delta table was built for another fault list");
  }
  if (freqs_hz != freqs_hz_) {
    throw util::AnalysisError("fault delta table was built for another grid");
  }
}

FaultDeltaTable::Outcome FaultDeltaTable::Read(
    std::size_t fault, std::size_t t, linalg::LowRankPerturbation& out) const {
  const Header& h = headers_[t * rows_ + row_[fault]];
  if (h.outcome != Outcome::kDelta) return h.outcome;
  out.terms.resize(h.rank);
  const Entry* p = pool_.data() + h.offset;
  for (std::size_t k = 0; k < h.rank; ++k) {
    out.terms[k].u.assign(p, p + h.u_count[k]);
    p += h.u_count[k];
    out.terms[k].w.assign(p, p + h.w_count[k]);
    p += h.w_count[k];
  }
  return Outcome::kDelta;
}

}  // namespace mcdft::faults
