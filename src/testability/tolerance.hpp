// Process-tolerance envelope: the frequency-dependent detection threshold
// behind the paper's epsilon ("this tolerance allows to take into account
// possible fluctuations in the process environment", Def. 1).
//
// A deviation only indicates a *fault* if it exceeds what in-tolerance
// process fluctuation of every component could produce.  We compute that
// bound by Monte-Carlo: sample circuits with all fault-site components
// uniformly varied within +/-tolerance, record the per-frequency maximum
// relative deviation from nominal, and use
//     threshold(w) = envelope(w) + epsilon_base
// as the detection threshold.  This captures the classic analog-test
// physics the multi-configuration technique exploits: global feedback
// desensitizes the functional configuration (many components share the
// tolerance budget, masking a single fault), while a follower-mode
// configuration isolates a stage so the same fault towers over the
// envelope of its few local components.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spice/ac_analysis.hpp"
#include "util/cancel.hpp"

namespace mcdft::testability {

/// Monte-Carlo tolerance-envelope settings.
struct ToleranceModel {
  double component_tolerance = 0.03;  ///< +/- fraction per component (3 %)
  std::size_t samples = 48;           ///< Monte-Carlo sample count
  std::uint64_t seed = 0xdffe1998;    ///< deterministic campaigns
};

/// Compute the per-frequency envelope: max over Monte-Carlo samples of the
/// relative deviation (same normalization as the fault analysis, i.e.
/// spice::RelativeDeviation with `relative_floor`) between the perturbed
/// and nominal responses.
///
/// `component_names` lists the elements to perturb (typically the fault
/// sites).  The netlist is cloned internally; the argument is untouched.
/// Returns one value per sweep point.
///
/// Sample k draws its perturbations from an independent generator seeded
/// with `model.seed ^ k`, so each sample is a self-contained stream: the
/// envelope is bit-identical for any `threads` value (0 = auto thread
/// count, 1 = serial), and the envelope of N samples is the pointwise max
/// of the N single-sample envelopes at seeds `seed ^ k`.
std::vector<double> ComputeToleranceEnvelope(
    const spice::Netlist& netlist, const spice::SweepSpec& sweep,
    const spice::Probe& probe, const std::vector<std::string>& component_names,
    const ToleranceModel& model, double relative_floor,
    spice::MnaOptions mna_options = {}, std::size_t threads = 1);

/// The opamps one configuration switches to follower mode: ascending
/// positions into the `opamps` list of ComputeSharedToleranceEnvelopes.
using FollowerSet = std::vector<std::size_t>;

/// The envelopes of many configurations of one circuit from one
/// Monte-Carlo pass over its functional configuration C0 (DESIGN.md
/// "Shared configuration envelopes").  A follower switch rewrites exactly
/// its opamp's branch row, so at each (sample, omega) one sparse
/// factorization of C0 serves every configuration: C0's solution plus one
/// column solve per switched opamp, and each configuration's output is then
/// eliminated exactly along its path in the subset tree
/// (linalg::SubsetSchurTree).
///
/// `netlist` must hold every opamp of `opamps` (configurable Opamp
/// elements) in normal mode.  The samples, seeds, deviation arithmetic and
/// `threads` contract are ComputeToleranceEnvelope's: work is split across
/// threads by sample, never by frequency, and a configuration's envelope
/// depends only on the inputs and its own follower set — not on which
/// other sets are requested or on the thread count.  C0 (the empty set) is
/// bit-identical to ComputeToleranceEnvelope on `netlist`.
///
/// Returns one entry per follower set: its envelope, or an empty vector
/// when the set must take ComputeToleranceEnvelope on its configured
/// netlist instead — a pivot on its path failed the tree's guard, or a
/// value came out non-finite, at some (sample, omega), or the pass itself
/// failed (e.g. C0 is singular at some point).  Polls `cancel` before each
/// sweep and throws util::CancelError when it fired.
std::vector<std::vector<double>> ComputeSharedToleranceEnvelopes(
    const spice::Netlist& netlist, const spice::SweepSpec& sweep,
    const spice::Probe& probe, const std::vector<std::string>& component_names,
    const std::vector<std::string>& opamps,
    const std::vector<FollowerSet>& follower_sets, const ToleranceModel& model,
    double relative_floor, spice::MnaOptions mna_options = {},
    std::size_t threads = 1, const util::CancelToken* cancel = nullptr);

}  // namespace mcdft::testability
