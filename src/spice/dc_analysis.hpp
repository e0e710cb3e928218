// DC operating-point analysis for linear circuits: MNA solves with s = 0
// (capacitors open, inductors short, sources at their DC values).
//
// Ideal-element DC systems are frequently singular in ways AC sweeps never
// see — a node bounded only by capacitors has no DC path to ground, and a
// catastrophic short/open stamp can push a diagonal to the edge of the
// pivot tolerance.  Instead of surfacing these as a bare NumericError, the
// solver walks an escalating gmin ladder (tiny conductances from every
// node to ground, SPICE-style) and reports which rung, if any, was needed,
// so callers can distinguish "healthy circuit" from "regularized" from
// "structurally broken".
#pragma once

#include <string>
#include <vector>

#include "spice/mna.hpp"

namespace mcdft::spice {

/// Result of a DC operating-point analysis.
struct DcOperatingPoint {
  /// Real node voltages indexed by NodeId (entry 0, ground, is 0).
  std::vector<double> node_voltages;

  /// gmin (siemens) added from every non-ground node to ground to make the
  /// system solvable.  0 when the unregularized system solved directly.
  double gmin_used = 0.0;

  /// Newton correction steps taken by the iteration hook.  Linear stamps
  /// converge in exactly one step; the hook exists so catastrophic stamps
  /// (and future nonlinear companions) refine through the same loop.
  int newton_iterations = 0;

  /// Named diagnostic when regularization engaged (empty for a clean
  /// solve), e.g. "dc.gmin_regularized(1e-09): numeric: ...".
  std::string diagnostic;

  /// Voltage at a node.
  double VoltageAt(NodeId node) const;
};

/// Compute the operating point.
///
/// Solve ladder: the plain DC system first; on a singular factorization or
/// a Newton iteration that fails to converge, retries with gmin in
/// {1e-12, 1e-9, 1e-6} S added to every node diagonal.  Throws NumericError
/// with the named diagnostic "dc.singular_after_gmin_ladder" only when all
/// rungs fail (a structurally unsolvable system, not a conditioning issue).
DcOperatingPoint SolveOperatingPoint(const Netlist& netlist);

}  // namespace mcdft::spice
