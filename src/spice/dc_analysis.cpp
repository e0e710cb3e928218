#include "spice/dc_analysis.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>

#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/metrics.hpp"

namespace mcdft::spice {

namespace metrics = util::metrics;

double DcOperatingPoint::VoltageAt(NodeId node) const {
  if (node >= node_voltages.size()) {
    throw util::AnalysisError("node id " + std::to_string(node) +
                              " outside operating point");
  }
  return node_voltages[node];
}

namespace {

/// Residual f(x) = A x - b evaluated straight off the triplets (duplicates
/// accumulate, matching the assembled operator exactly).
linalg::Vector Residual(const linalg::TripletMatrix& a,
                        const linalg::Vector& rhs, const linalg::Vector& x) {
  linalg::Vector f(rhs.size());
  for (const linalg::Triplet& t : a.Entries()) {
    f[t.row] += t.value * x[t.col];
  }
  for (std::size_t i = 0; i < f.size(); ++i) f[i] -= rhs[i];
  return f;
}

/// One factorization of the (possibly regularized) DC matrix, reusable for
/// every Newton step.  Returns nullopt when the factorization is singular.
std::optional<std::function<linalg::Vector(const linalg::Vector&)>>
MakeSolver(const linalg::TripletMatrix& a, std::string* error) {
  try {
    if (UseDenseLu(a.Rows())) {
      const linalg::Matrix m = a.ToDense();
      return [m](const linalg::Vector& b) { return linalg::SolveDense(m, b); };
    }
    auto lu = std::make_shared<linalg::SparseLu>(linalg::CsrMatrix(a));
    return [lu](const linalg::Vector& b) { return lu->Solve(b); };
  } catch (const util::Error& e) {
    if (error && error->empty()) *error = e.what();
    return std::nullopt;
  }
}

std::string FormatGmin(double gmin) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0e", gmin);
  return buf;
}

}  // namespace

DcOperatingPoint SolveOperatingPoint(const Netlist& netlist) {
  static metrics::Counter& fallbacks =
      metrics::GetCounter("spice.dc.gmin_fallback");

  MnaSystem system(netlist);
  linalg::TripletMatrix a;
  linalg::Vector rhs;
  system.Assemble(AnalysisKind::kDc, 0.0, a, rhs);
  const std::size_t node_unknowns = system.NodeUnknownCount();

  // Escalating regularization ladder: the unmodified system first, then
  // gmin from every non-ground node to ground.  Each rung is a pure
  // function of (netlist values, rung), so results are deterministic.
  constexpr double kGminLadder[] = {0.0, 1e-12, 1e-9, 1e-6};
  constexpr int kMaxNewton = 10;
  const double rhs_scale = 1.0 + rhs.NormInf();

  std::string first_error;
  for (double gmin : kGminLadder) {
    linalg::TripletMatrix trial = a;
    if (gmin > 0.0) {
      for (std::size_t i = 0; i < node_unknowns; ++i) {
        trial.Add(i, i, Complex(gmin, 0.0));
      }
    }
    auto solver = MakeSolver(trial, &first_error);
    if (!solver) continue;  // singular at this rung; escalate

    // Newton iteration hook.  The DC stamps are linear, so the Jacobian is
    // the system matrix itself and one correction step lands on the
    // solution; the residual check both certifies convergence and rejects
    // rungs whose factorization "succeeded" into garbage (catastrophic
    // stamps near the pivot tolerance).
    linalg::Vector x(trial.Rows());
    int steps = 0;
    bool converged = false;
    for (int it = 0; it < kMaxNewton; ++it) {
      linalg::Vector f = Residual(trial, rhs, x);
      if (!std::isfinite(f.NormInf())) break;
      if (f.NormInf() <= 1e-9 * rhs_scale) {
        converged = true;
        break;
      }
      linalg::Vector dx;
      try {
        // The dense backend factors lazily inside the solve call, so a
        // singular rung can surface here rather than in MakeSolver.
        dx = (*solver)(f);
      } catch (const util::Error& e) {
        if (first_error.empty()) first_error = e.what();
        break;
      }
      ++steps;
      x.Axpy(Complex(-1.0, 0.0), dx);
    }
    if (!converged) {
      if (first_error.empty()) {
        first_error = "newton residual did not converge (gmin=" +
                      FormatGmin(gmin) + ")";
      }
      continue;
    }

    DcOperatingPoint op;
    op.gmin_used = gmin;
    op.newton_iterations = steps;
    if (gmin > 0.0) {
      fallbacks.Add();
      op.diagnostic = "dc.gmin_regularized(" + FormatGmin(gmin) +
                      "): " + first_error;
    }
    op.node_voltages.resize(netlist.NodeCount(), 0.0);
    for (NodeId n = 1; n < netlist.NodeCount(); ++n) {
      op.node_voltages[n] = x[n - 1].real();
    }
    return op;
  }

  throw util::NumericError("dc.singular_after_gmin_ladder: " + first_error);
}

}  // namespace mcdft::spice
