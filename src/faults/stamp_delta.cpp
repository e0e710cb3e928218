#include "faults/stamp_delta.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "faults/injector.hpp"

namespace mcdft::faults {

using linalg::Complex;

void AccumulateStampDelta(std::vector<linalg::Triplet>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const linalg::Triplet& a, const linalg::Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size();) {
    linalg::Triplet acc = entries[i];
    for (++i; i < entries.size() && entries[i].row == acc.row &&
              entries[i].col == acc.col;
         ++i) {
      acc.value += entries[i].value;
    }
    if (acc.value != Complex(0.0, 0.0)) entries[out++] = acc;
  }
  entries.resize(out);
}

bool FaultStampDelta::Compute(const spice::MnaSystem& system,
                              spice::Element& element, std::size_t element_idx,
                              const Fault& fault, spice::AnalysisKind kind,
                              double omega, Scratch& scratch,
                              linalg::LowRankPerturbation& out) {
  auto& entries = scratch.entries;
  auto& rhs = scratch.rhs;
  entries.clear();
  rhs.clear();
  system.StampElement(element_idx, kind, omega, Complex(-1.0, 0.0), entries,
                      rhs);
  {
    ScopedFaultInjection injection(element, fault);
    system.StampElement(element_idx, kind, omega, Complex(1.0, 0.0), entries,
                        rhs);
  }

  // An RHS delta (independent-source value fault) cannot be folded into a
  // matrix update: x_f = (A+Delta)^{-1}(b+db) needs the exact path.
  {
    std::sort(rhs.begin(), rhs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < rhs.size();) {
      Complex acc = rhs[i].second;
      const std::size_t row = rhs[i].first;
      for (++i; i < rhs.size() && rhs[i].first == row; ++i) acc += rhs[i].second;
      if (acc != Complex(0.0, 0.0)) return false;
    }
  }

  AccumulateStampDelta(entries);
  std::size_t rank = 0;
  const auto finish = [&] {
    out.terms.resize(rank);
    return true;
  };
  if (entries.empty()) return finish();  // change invisible at this kind

  // Dense closure of the delta over its touched rows/columns.
  auto& rows = scratch.rows;
  auto& cols = scratch.cols;
  rows.clear();
  cols.clear();
  for (const auto& e : entries) {
    rows.push_back(e.row);
    cols.push_back(e.col);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  const std::size_t nr = rows.size(), nc = cols.size();
  auto& d = scratch.dense;
  d.assign(nr * nc, Complex(0.0, 0.0));
  const auto row_of = [&](std::size_t r) {
    return static_cast<std::size_t>(
        std::lower_bound(rows.begin(), rows.end(), r) - rows.begin());
  };
  const auto col_of = [&](std::size_t c) {
    return static_cast<std::size_t>(
        std::lower_bound(cols.begin(), cols.end(), c) - cols.begin());
  };
  double maxabs = 0.0;
  for (const auto& e : entries) {
    d[row_of(e.row) * nc + col_of(e.col)] += e.value;
    maxabs = std::max(maxabs, std::abs(e.value));
  }
  if (maxabs == 0.0) return finish();

  // Complete-pivot elimination: peel rank-1 terms until the residual is
  // stamp roundoff.  A two-terminal admittance delta terminates after one
  // step exactly; the cap guards pathological multi-branch stamps.
  const double drop = kDropTol * maxabs;
  auto& u_col = scratch.u_col;
  auto& w_row = scratch.w_row;
  for (std::size_t step = 0; step <= linalg::LowRankUpdateSolver::kMaxRank;
       ++step) {
    std::size_t pi = 0, pj = 0;
    double pmag = 0.0;
    for (std::size_t i = 0; i < nr; ++i) {
      for (std::size_t j = 0; j < nc; ++j) {
        const double mag = std::abs(d[i * nc + j]);
        if (mag > pmag) {
          pmag = mag;
          pi = i;
          pj = j;
        }
      }
    }
    if (pmag <= drop) return finish();  // fully factorized
    if (step == linalg::LowRankUpdateSolver::kMaxRank) {
      return false;  // rank above the SMW cap
    }
    const Complex pivot = d[pi * nc + pj];
    // Snapshot the pivot column (u) and normalized pivot row (w) before
    // subtracting the outer product — the subtraction overwrites both.
    u_col.resize(nr);
    w_row.resize(nc);
    for (std::size_t i = 0; i < nr; ++i) u_col[i] = d[i * nc + pj];
    for (std::size_t j = 0; j < nc; ++j) w_row[j] = d[pi * nc + j] / pivot;
    if (out.terms.size() <= rank) out.terms.emplace_back();
    linalg::LowRankTerm& term = out.terms[rank++];
    term.u.clear();
    term.w.clear();
    for (std::size_t i = 0; i < nr; ++i) {
      if (u_col[i] != Complex(0.0, 0.0)) term.u.emplace_back(rows[i], u_col[i]);
    }
    for (std::size_t j = 0; j < nc; ++j) {
      if (w_row[j] != Complex(0.0, 0.0)) term.w.emplace_back(cols[j], w_row[j]);
    }
    for (std::size_t i = 0; i < nr; ++i) {
      if (u_col[i] == Complex(0.0, 0.0)) continue;
      for (std::size_t j = 0; j < nc; ++j) {
        d[i * nc + j] -= u_col[i] * w_row[j];
      }
    }
  }
  return finish();
}

std::optional<linalg::LowRankPerturbation> FaultStampDelta::Compute(
    const spice::MnaSystem& system, spice::Netlist& netlist,
    const Fault& fault, spice::AnalysisKind kind, double omega) {
  const std::size_t idx = system.ElementIndexOf(fault.Device());
  Scratch scratch;
  linalg::LowRankPerturbation delta;
  if (!Compute(system, netlist.GetElement(fault.Device()), idx, fault, kind,
               omega, scratch, delta)) {
    return std::nullopt;
  }
  return delta;
}

}  // namespace mcdft::faults
