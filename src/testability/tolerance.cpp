#include "testability/tolerance.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <random>

#include "faults/stamp_delta.hpp"
#include "linalg/subset_tree.hpp"
#include "spice/elements.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace mcdft::testability {

namespace {

using linalg::Complex;

void ValidateEnvelopeInputs(const ToleranceModel& model,
                            const std::vector<std::string>& component_names) {
  if (!(model.component_tolerance > 0.0) || model.component_tolerance >= 1.0) {
    throw util::AnalysisError("component tolerance must be in (0, 1)");
  }
  if (model.samples == 0) {
    throw util::AnalysisError("tolerance envelope needs >= 1 sample");
  }
  if (component_names.empty()) {
    throw util::AnalysisError("tolerance envelope needs >= 1 component");
  }
}

std::vector<double> NominalValues(
    const spice::Netlist& netlist,
    const std::vector<std::string>& component_names) {
  std::vector<double> values;
  values.reserve(component_names.size());
  const spice::Netlist probe_clone = netlist.Clone();
  for (const auto& name : component_names) {
    values.push_back(probe_clone.GetElement(name).Value());
  }
  return values;
}

/// Set `work` to Monte-Carlo sample k: every site uniformly within
/// +/-tolerance of nominal, drawn from the sample's own stream seed ^ k.
void ApplySample(spice::Netlist& work,
                 const std::vector<std::string>& component_names,
                 const std::vector<double>& nominal_values,
                 const ToleranceModel& model, std::size_t k) {
  std::mt19937_64 rng(model.seed ^ static_cast<std::uint64_t>(k));
  std::uniform_real_distribution<double> uniform(-model.component_tolerance,
                                                 model.component_tolerance);
  for (std::size_t i = 0; i < component_names.size(); ++i) {
    work.GetElement(component_names[i])
        .SetValue(nominal_values[i] * (1.0 + uniform(rng)));
  }
}

}  // namespace

std::vector<double> ComputeToleranceEnvelope(
    const spice::Netlist& netlist, const spice::SweepSpec& sweep,
    const spice::Probe& probe, const std::vector<std::string>& component_names,
    const ToleranceModel& model, double relative_floor,
    spice::MnaOptions mna_options, std::size_t threads) {
  ValidateEnvelopeInputs(model, component_names);
  util::metrics::GetCounter("testability.envelope.samples").Add(model.samples);
  util::trace::Span span("testability.envelope");

  const std::vector<double> nominal_values =
      NominalValues(netlist, component_names);

  const spice::Netlist nominal_work = netlist.Clone();
  spice::AcAnalyzer nominal_analyzer(nominal_work, mna_options);
  const spice::FrequencyResponse nominal = nominal_analyzer.Run(sweep, probe);

  // Per-sample deviation vectors, filled by index: sample k is a
  // self-contained stream (its own generator at seed ^ k), so any static
  // partition over k produces the same per-sample results.
  std::vector<std::vector<double>> deviations(model.samples);
  util::ParallelForRange(
      threads, model.samples, [&](std::size_t begin, std::size_t end) {
        spice::Netlist work = netlist.Clone();
        spice::AcAnalyzer analyzer(work, mna_options);
        for (std::size_t k = begin; k < end; ++k) {
          ApplySample(work, component_names, nominal_values, model, k);
          const spice::FrequencyResponse sample = analyzer.Run(sweep, probe);
          deviations[k] =
              spice::RelativeDeviation(sample, nominal, relative_floor);
        }
      });

  // Ordered reduction: max over samples in index order.
  std::vector<double> envelope(sweep.PointCount(), 0.0);
  for (std::size_t k = 0; k < model.samples; ++k) {
    for (std::size_t i = 0; i < envelope.size(); ++i) {
      envelope[i] = std::max(envelope[i], deviations[k][i]);
    }
  }
  return envelope;
}

namespace {

/// The follower-row deltas of the switched opamps at every sweep point,
/// derived from the element stamps (weight -1 in normal mode, +1 in
/// follower mode) as faults::FaultStampDelta derives fault deltas.  An
/// opamp has no principal value, so no Monte-Carlo sample changes its
/// stamp: one table serves every sweep.  A delta with an entry off its
/// branch row or any right-hand-side entry is not a row rewrite.
struct RowDeltaTable {
  std::vector<std::size_t> branch;                   // per opamp
  std::vector<std::vector<linalg::SparseRow>> rows;  // [point][opamp]
  std::vector<bool> row_rewrite;  // per opamp: the delta stays in its row
};

RowDeltaTable BuildRowDeltas(const spice::Netlist& netlist,
                             const std::vector<std::string>& opamps,
                             const spice::SweepSpec& sweep) {
  spice::Netlist work = netlist.Clone();
  const spice::MnaSystem system(work);
  RowDeltaTable table;
  std::vector<std::size_t> element(opamps.size());
  std::vector<spice::Opamp*> opamp(opamps.size());
  for (std::size_t i = 0; i < opamps.size(); ++i) {
    spice::Element& e = work.GetElement(opamps[i]);
    if (e.Kind() != spice::ElementKind::kOpamp ||
        static_cast<spice::Opamp&>(e).Mode() != spice::OpampMode::kNormal) {
      throw util::AnalysisError("shared envelope: '" + opamps[i] +
                                "' is not an opamp in normal mode");
    }
    opamp[i] = &static_cast<spice::Opamp&>(e);
    element[i] = system.ElementIndexOf(opamps[i]);
    table.branch.push_back(system.BranchUnknown(element[i], 0));
  }
  table.row_rewrite.assign(opamps.size(), true);
  table.rows.resize(sweep.PointCount());

  std::vector<linalg::Triplet> entries;
  std::vector<std::pair<std::size_t, Complex>> rhs;
  for (std::size_t p = 0; p < sweep.PointCount(); ++p) {
    const double omega = 2.0 * std::numbers::pi * sweep.Frequencies()[p];
    table.rows[p].resize(opamps.size());
    for (std::size_t i = 0; i < opamps.size(); ++i) {
      entries.clear();
      rhs.clear();
      system.StampElement(element[i], spice::AnalysisKind::kAc, omega,
                          Complex(-1.0, 0.0), entries, rhs);
      opamp[i]->SetMode(spice::OpampMode::kFollower);
      system.StampElement(element[i], spice::AnalysisKind::kAc, omega,
                          Complex(1.0, 0.0), entries, rhs);
      opamp[i]->SetMode(spice::OpampMode::kNormal);
      // The output column both modes stamp alike cancels exactly.
      faults::AccumulateStampDelta(entries);
      linalg::SparseRow& row = table.rows[p][i];
      for (const linalg::Triplet& t : entries) {
        if (t.row != table.branch[i]) table.row_rewrite[i] = false;
        row.emplace_back(t.col, t.value);
      }
      if (!rhs.empty()) table.row_rewrite[i] = false;
    }
  }
  return table;
}

/// One worker's solve state for C0 sweeps: a private netlist clone, its
/// MNA system and solve cache, and the tree walk's buffers.
class SharedSweeper {
 public:
  SharedSweeper(const SharedSweeper&) = delete;  // system_ refers to work_
  SharedSweeper& operator=(const SharedSweeper&) = delete;

  SharedSweeper(const spice::Netlist& netlist, const spice::Probe& probe,
                const RowDeltaTable& deltas,
                const linalg::SubsetSchurTree& tree,
                const spice::MnaOptions& options)
      : work_(netlist.Clone()),
        system_(work_),
        cache_(options.shared_factor_cache),
        deltas_(deltas),
        tree_(tree),
        ws_(tree),
        z_(tree.IndexCount()),
        value_(tree.NodeCount()),
        node_failed_(tree.NodeCount(), 0) {
    if (probe.plus != spice::kGround) probe_.plus = probe.plus - 1;
    if (probe.minus != spice::kGround) probe_.minus = probe.minus - 1;
  }

  spice::Netlist& Work() { return work_; }
  std::size_t Pivots() const { return pivots_; }
  const std::vector<unsigned char>& NodeFailed() const { return node_failed_; }

  /// One sweep of C0 at the netlist's current values; `at(p, value)` sees
  /// every tree node's probe value at point p.
  template <typename AtPoint>
  void Run(const spice::SweepSpec& sweep, AtPoint&& at) {
    cache_.BeginSweep();
    for (std::size_t p = 0; p < sweep.PointCount(); ++p) {
      const linalg::Vector& x0 =
          cache_.SolveAcHz(system_, sweep.Frequencies()[p]).Raw();
      unit_.Resize(x0.size());
      for (std::size_t i = 0; i < z_.size(); ++i) {
        unit_[deltas_.branch[i]] = Complex(1.0, 0.0);
        cache_.SolveAgain(unit_, z_[i]);
        unit_[deltas_.branch[i]] = Complex(0.0, 0.0);
      }
      linalg::FormBorderedMatrix(deltas_.rows[p], z_, x0, probe_, bordered_);
      pivots_ += tree_.Walk(bordered_, ws_, value_, node_failed_);
      at(p, value_);
    }
  }

 private:
  spice::Netlist work_;
  spice::MnaSystem system_;
  spice::MnaSolveCache cache_;
  const RowDeltaTable& deltas_;
  const linalg::SubsetSchurTree& tree_;
  linalg::SubsetSchurTree::Workspace ws_;
  linalg::ProbeRow probe_;
  linalg::Vector unit_;
  std::vector<linalg::Vector> z_;
  std::vector<Complex> bordered_;
  std::vector<Complex> value_;
  std::vector<unsigned char> node_failed_;
  std::size_t pivots_ = 0;
};

bool IsFinite(Complex v) {
  return std::isfinite(v.real()) && std::isfinite(v.imag());
}

}  // namespace

std::vector<std::vector<double>> ComputeSharedToleranceEnvelopes(
    const spice::Netlist& netlist, const spice::SweepSpec& sweep,
    const spice::Probe& probe, const std::vector<std::string>& component_names,
    const std::vector<std::string>& opamps,
    const std::vector<FollowerSet>& follower_sets, const ToleranceModel& model,
    double relative_floor, spice::MnaOptions mna_options, std::size_t threads,
    const util::CancelToken* cancel) {
  ValidateEnvelopeInputs(model, component_names);
  namespace metrics = util::metrics;
  static metrics::Counter& samples_run =
      metrics::GetCounter("testability.envelope.samples");
  static metrics::Counter& shared_configs =
      metrics::GetCounter("testability.envelope.shared_configs");
  static metrics::Counter& tree_pivots =
      metrics::GetCounter("testability.envelope.tree_pivots");
  static metrics::Counter& guard_fallbacks =
      metrics::GetCounter("testability.envelope.guard_fallbacks");

  // The switched opamps (the union of the sets, in list order) become the
  // tree's indices.
  std::vector<std::size_t> local(opamps.size(), 0);
  std::vector<bool> switched(opamps.size(), false);
  for (const FollowerSet& set : follower_sets) {
    for (std::size_t k = 0; k < set.size(); ++k) {
      if (set[k] >= opamps.size() || (k > 0 && set[k] <= set[k - 1])) {
        throw util::AnalysisError(
            "shared envelope: follower sets must list ascending opamp "
            "positions");
      }
      switched[set[k]] = true;
    }
  }
  std::vector<std::string> used;
  for (std::size_t i = 0; i < opamps.size(); ++i) {
    if (!switched[i]) continue;
    local[i] = used.size();
    used.push_back(opamps[i]);
  }
  std::vector<std::vector<std::size_t>> subsets;
  subsets.reserve(follower_sets.size());
  for (const FollowerSet& set : follower_sets) {
    std::vector<std::size_t>& s = subsets.emplace_back();
    for (const std::size_t i : set) s.push_back(local[i]);
  }
  const linalg::SubsetSchurTree tree(used.size(), subsets);

  util::trace::Span span("testability.envelope");
  const std::size_t configs = follower_sets.size();
  const std::size_t points = sweep.PointCount();
  std::vector<std::vector<double>> out(configs);
  const auto fall_back_all = [&] {
    guard_fallbacks.Add(configs);
    return std::vector<std::vector<double>>(configs);
  };

  // Nominal sweep: the row deltas, then every configuration's nominal
  // response and deviation denominators.  Every table is one row per
  // configuration, sized like the rows the campaign's units keep.
  if (cancel != nullptr) cancel->ThrowIfCancelled();
  const std::vector<double> nominal_values =
      NominalValues(netlist, component_names);
  std::optional<RowDeltaTable> deltas;
  std::vector<spice::FrequencyResponse> nominal(configs);
  std::vector<unsigned char> config_failed(configs, 0);
  std::vector<unsigned char> node_failed;
  std::size_t pivots = 0;
  try {
    deltas = BuildRowDeltas(netlist, used, sweep);
    for (spice::FrequencyResponse& response : nominal) {
      response.freqs_hz = sweep.Frequencies();
      response.values.resize(points);
    }
    SharedSweeper sweeper(netlist, probe, *deltas, tree, mna_options);
    sweeper.Run(sweep, [&](std::size_t p, const std::vector<Complex>& value) {
      for (std::size_t s = 0; s < configs; ++s) {
        nominal[s].values[p] = value[tree.NodeOf(s)];
      }
    });
    node_failed = sweeper.NodeFailed();
    pivots = sweeper.Pivots();
  } catch (const util::CancelError&) {
    throw;
  } catch (const util::Error&) {
    return fall_back_all();  // each configuration's own sweep decides
  }
  // A configuration whose nominal failed keeps denominators 1; its
  // deviations are computed and discarded.
  std::vector<std::vector<double>> denominator(configs);
  for (std::size_t s = 0; s < configs; ++s) {
    for (const Complex v : nominal[s].values) {
      if (!IsFinite(v)) config_failed[s] = 1;
    }
    denominator[s] =
        config_failed[s] != 0
            ? std::vector<double>(points, 1.0)
            : spice::DeviationDenominators(nominal[s], relative_floor);
  }

  // Samples: one contiguous slice of sample indices per worker, each
  // reduced into the worker's own slot.  Every deviation is finite and
  // >= +0 where it counts, so the max over slots is exact in any order.
  struct Slot {
    std::vector<std::vector<double>> envelope;  // per configuration
    std::vector<unsigned char> config_failed;
    std::vector<unsigned char> node_failed;
    std::size_t pivots = 0;
    bool failed = false;
  };
  const std::size_t workers =
      std::min(util::ResolveThreadCount(threads), model.samples);
  std::vector<Slot> slots(workers);
  for (Slot& slot : slots) {
    slot.envelope.assign(configs, std::vector<double>(points, 0.0));
    slot.config_failed.assign(configs, 0);
  }
  util::ParallelForRange(workers, workers, [&](std::size_t begin,
                                               std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) {
      Slot& slot = slots[w];
      try {
        SharedSweeper sweeper(netlist, probe, *deltas, tree, mna_options);
        const std::size_t first = w * model.samples / workers;
        const std::size_t last = (w + 1) * model.samples / workers;
        for (std::size_t k = first; k < last; ++k) {
          if (cancel != nullptr) cancel->ThrowIfCancelled();
          ApplySample(sweeper.Work(), component_names, nominal_values, model,
                      k);
          sweeper.Run(sweep, [&](std::size_t p,
                                 const std::vector<Complex>& value) {
            for (std::size_t s = 0; s < configs; ++s) {
              const Complex t = value[tree.NodeOf(s)];
              if (!IsFinite(t)) {
                slot.config_failed[s] = 1;
                continue;
              }
              double& env = slot.envelope[s][p];
              env = std::max(env, std::abs(t - nominal[s].values[p]) /
                                      denominator[s][p]);
            }
          });
          samples_run.Add();
        }
        slot.node_failed = sweeper.NodeFailed();
        slot.pivots = sweeper.Pivots();
      } catch (const util::CancelError&) {
        throw;
      } catch (const util::Error&) {
        slot.failed = true;
      }
    }
  });

  for (const Slot& slot : slots) {
    if (slot.failed) return fall_back_all();
  }
  // Reduce into the first slot, releasing each table once merged: the
  // campaign's units allocate their rows right after this returns.
  std::vector<spice::FrequencyResponse>().swap(nominal);
  std::vector<std::vector<double>>().swap(denominator);
  std::vector<std::vector<double>>& envelope = slots.front().envelope;
  for (Slot& slot : slots) {
    pivots += slot.pivots;
    for (std::size_t n = 0; n < node_failed.size(); ++n) {
      node_failed[n] |= slot.node_failed[n];
    }
    for (std::size_t s = 0; s < configs; ++s) {
      config_failed[s] |= slot.config_failed[s];
    }
    if (&slot.envelope == &envelope) continue;
    for (std::size_t s = 0; s < configs; ++s) {
      for (std::size_t p = 0; p < points; ++p) {
        envelope[s][p] = std::max(envelope[s][p], slot.envelope[s][p]);
      }
    }
    std::vector<std::vector<double>>().swap(slot.envelope);
  }
  tree_pivots.Add(pivots);

  std::size_t shared = 0;
  for (std::size_t s = 0; s < configs; ++s) {
    bool row_rewrite = true;
    for (const std::size_t i : follower_sets[s]) {
      row_rewrite = row_rewrite && deltas->row_rewrite[local[i]];
    }
    if (config_failed[s] != 0 || !row_rewrite ||
        tree.PathFailed(s, node_failed)) {
      continue;
    }
    out[s] = std::move(envelope[s]);
    ++shared;
  }
  shared_configs.Add(shared);
  guard_fallbacks.Add(configs - shared);
  return out;
}

}  // namespace mcdft::testability
