// P1 — performance microbenchmarks (google-benchmark): the solver kernels
// and pipeline stages whose cost dominates a multi-configuration campaign.
// The paper's conclusion identifies fault-simulation volume as the
// technique's bottleneck; these benches quantify each contributor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "boolcov/petrick.hpp"
#include "boolcov/setcover.hpp"
#include "circuits/biquad.hpp"
#include "circuits/cascade.hpp"
#include "circuits/zoo.hpp"
#include "core/campaign.hpp"
#include "core/optimizer.hpp"
#include "core/server/request.hpp"
#include "faults/injector.hpp"
#include "faults/sensitivity_screen.hpp"
#include "faults/simulator.hpp"
#include "faults/stamp_delta.hpp"
#include "linalg/lowrank.hpp"
#include "linalg/lu.hpp"
#include "linalg/sparse_lu.hpp"
#include "testability/tolerance.hpp"

namespace {

using namespace mcdft;

linalg::Matrix RandomDense(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  linalg::Matrix m(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.At(r, c) = linalg::Complex(u(rng), u(rng));
    }
    m.At(r, r) += linalg::Complex(2.0 * n, 0.0);
  }
  return m;
}

linalg::CsrMatrix RandomSparse(std::size_t n, double density,
                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  linalg::TripletMatrix t(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    t.Add(r, r, linalg::Complex(3.0 + u(rng), u(rng)));
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c && coin(rng) < density) {
        t.Add(r, c, linalg::Complex(u(rng), u(rng)) * 0.3);
      }
    }
  }
  return linalg::CsrMatrix(t);
}

void BM_DenseLuFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a = RandomDense(n, 42);
  linalg::Vector b(n, linalg::Complex(1.0, 0.5));
  for (auto _ : state) {
    linalg::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.Solve(b));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_DenseLuFactorSolve)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_SparseLuFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::CsrMatrix a = RandomSparse(n, 4.0 / static_cast<double>(n), 42);
  linalg::Vector b(n, linalg::Complex(1.0, 0.5));
  for (auto _ : state) {
    linalg::SparseLu lu(a);
    benchmark::DoNotOptimize(lu.Solve(b));
  }
}
BENCHMARK(BM_SparseLuFactorSolve)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_BiquadAcPoint(benchmark::State& state) {
  auto block = circuits::BuildBiquad();
  spice::MnaSystem system(block.netlist);
  double f = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.SolveAcHz(f));
    f = f < 1e5 ? f * 1.01 : 100.0;
  }
}
BENCHMARK(BM_BiquadAcPoint);

void BM_BiquadAcSweep(benchmark::State& state) {
  auto block = circuits::BuildBiquad();
  const auto sweep =
      spice::SweepSpec::Decade(10.0, 1e5, static_cast<std::size_t>(state.range(0)));
  spice::AcAnalyzer analyzer(block.netlist);
  spice::Probe probe{block.netlist.FindNode("out3"), spice::kGround, "v"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Run(sweep, probe));
  }
  state.counters["points"] = static_cast<double>(sweep.PointCount());
}
BENCHMARK(BM_BiquadAcSweep)->Arg(10)->Arg(50);

void BM_ToleranceEnvelope(benchmark::State& state) {
  auto block = circuits::BuildBiquad();
  auto faults_list = faults::MakeDeviationFaults(block.netlist);
  std::vector<std::string> sites;
  for (const auto& f : faults_list) sites.push_back(f.Device());
  testability::ToleranceModel model;
  model.samples = static_cast<std::size_t>(state.range(0));
  const auto sweep = spice::SweepSpec::Decade(10.0, 1e5, 25);
  spice::Probe probe{block.netlist.FindNode("out3"), spice::kGround, "v"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(testability::ComputeToleranceEnvelope(
        block.netlist, sweep, probe, sites, model, 0.25));
  }
}
BENCHMARK(BM_ToleranceEnvelope)->Arg(16)->Arg(48);

void BM_FullBiquadCampaign(benchmark::State& state) {
  core::DftCircuit circuit = circuits::BuildDftBiquad();
  auto fault_list = faults::MakeDeviationFaults(circuit.Circuit());
  auto options = core::MakePaperCampaignOptions();
  options.points_per_decade = 10;
  options.tolerance->samples = 8;
  auto configs = circuit.Space().AllNonTransparent();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RunCampaign(circuit, fault_list, configs, options));
  }
}
BENCHMARK(BM_FullBiquadCampaign);

// One generic assemble + fresh factorization (dense at this size).
void BM_Cascade6AcPoint(benchmark::State& state) {
  auto block = circuits::BuildCascade6();
  spice::MnaSystem system(block.netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.SolveAcHz(1234.5));
  }
}
BENCHMARK(BM_Cascade6AcPoint);

// One envelope-sample sweep: a 201-point AcAnalyzer::Run (4 decades at 50
// points/decade, the campaign grid) on a full-space cascade6 configuration
// with four opamps in follower mode.  "per_point" is the cost of one sweep
// point: stamp-program replay, refactorization and solve.
void BM_AcSweepCascade6(benchmark::State& state) {
  core::DftCircuit circuit =
      core::DftCircuit::Transform(circuits::BuildCascade6());
  core::ScopedConfiguration config(
      circuit, core::ConfigVector::FromBits("101010100"));
  const auto sweep = spice::SweepSpec::Decade(100.0, 1e6, 50);
  const spice::Probe probe{circuit.Circuit().FindNode(circuit.OutputNode()),
                           spice::kGround, "v(out)"};
  spice::AcAnalyzer analyzer(circuit.Circuit());
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.Run(sweep, probe));
  }
  state.counters["per_point"] = benchmark::Counter(
      static_cast<double>(sweep.PointCount()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_AcSweepCascade6);

// The shared envelope pass over cascade6's full configuration space (511
// non-transparent configurations) on the same grid, 4 samples, serial.
// Per (sample, omega) it refactors C0 once, solves C0 and one column per
// switched opamp, and walks the subset tree; "per_sample_point" is that
// cost, to set against 511 x BM_AcSweepCascade6's per_point (one point of
// every configuration's own sweep).
void BM_SharedEnvelopeCascade6(benchmark::State& state) {
  core::DftCircuit circuit =
      core::DftCircuit::Transform(circuits::BuildCascade6());
  std::vector<std::string> sites;
  for (const auto& f : faults::MakeDeviationFaults(circuit.Circuit())) {
    if (std::find(sites.begin(), sites.end(), f.Device()) == sites.end()) {
      sites.push_back(f.Device());
    }
  }
  std::vector<testability::FollowerSet> follower_sets;
  for (const auto& cv : circuit.Space().AllNonTransparent()) {
    follower_sets.push_back(cv.FollowerPositions());
  }
  const auto sweep = spice::SweepSpec::Decade(100.0, 1e6, 50);
  const spice::Probe probe{circuit.Circuit().FindNode(circuit.OutputNode()),
                           spice::kGround, "v(out)"};
  testability::ToleranceModel model;
  model.samples = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(testability::ComputeSharedToleranceEnvelopes(
        circuit.Circuit(), sweep, probe, sites, circuit.ConfigurableOpamps(),
        follower_sets, model, 0.25, {}, 1));
  }
  state.counters["configs"] = static_cast<double>(follower_sets.size());
  state.counters["per_sample_point"] = benchmark::Counter(
      static_cast<double>((model.samples + 1) * sweep.PointCount()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SharedEnvelopeCascade6)->Unit(benchmark::kMillisecond);

// --- Sparse LU kernels on one envelope point ---------------------------
//
// The system of one Monte-Carlo envelope point: the configuration above at
// 1 kHz, assembled through the campaign's CSR pattern (29 unknowns, 90
// nonzeros, no fill).  A sample's first point pays the Markowitz factor
// (Arg 1 adds the factor-program compilation its first refactor pays when
// no stored program matches); every later point pays one refactor and one
// solve.
struct EnvelopePoint {
  linalg::CsrMatrix a;
  linalg::Vector b;
};

EnvelopePoint BuildCascade6EnvelopePoint() {
  core::DftCircuit circuit =
      core::DftCircuit::Transform(circuits::BuildCascade6());
  core::ScopedConfiguration config(
      circuit, core::ConfigVector::FromBits("101010100"));
  const spice::MnaSystem sys(circuit.Circuit());
  linalg::TripletMatrix t;
  EnvelopePoint point;
  sys.Assemble(spice::AnalysisKind::kAc, 2.0 * 3.141592653589793 * 1e3, t,
               point.b);
  point.a = linalg::CsrAssembly(t).Matrix();
  return point;
}

void BM_SparseLuFactorCascade6(benchmark::State& state) {
  const EnvelopePoint point = BuildCascade6EnvelopePoint();
  for (auto _ : state) {
    linalg::SparseLu lu(point.a);
    if (state.range(0) == 1) lu.EnsureFactorProgram();
    benchmark::DoNotOptimize(lu);
  }
}
BENCHMARK(BM_SparseLuFactorCascade6)->Arg(0)->Arg(1);

void BM_SparseLuRefactorCascade6(benchmark::State& state) {
  const EnvelopePoint point = BuildCascade6EnvelopePoint();
  linalg::SparseLu lu(point.a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.Refactor(point.a));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseLuRefactorCascade6);

void BM_SparseLuSolveCascade6(benchmark::State& state) {
  const EnvelopePoint point = BuildCascade6EnvelopePoint();
  linalg::SparseLu lu(point.a);
  lu.Refactor(point.a);
  linalg::Vector x;
  for (auto _ : state) {
    lu.Solve(point.b, x);
    benchmark::DoNotOptimize(x.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SparseLuSolveCascade6);

// --- Low-rank fault-solve kernel -------------------------------------
//
// The per-(fault, frequency) cell of a frequency-major campaign, isolated:
// one nominal factorization amortized over all of a circuit's deviation
// faults, each solved either by an SMW rank update (stamp delta + two
// triangular solves + k-by-k system) or by the classic numeric
// refactorization of the faulty matrix.  The pair quantifies the kernel
// speedup of the campaign's SMW fault path.
constexpr const char* kLowRankCircuits[] = {"biquad", "cascade6", "leapfrog"};

void BM_FaultSolveSmwUpdate(benchmark::State& state) {
  auto block =
      circuits::FindInZoo(kLowRankCircuits[state.range(0)]).build();
  auto fault_list = faults::MakeDeviationFaults(block.netlist);
  spice::MnaSystem sys(block.netlist);
  const double omega = 2.0 * 3.141592653589793 * 1234.5;
  linalg::TripletMatrix a;
  linalg::Vector b;
  sys.Assemble(spice::AnalysisKind::kAc, omega, a, b);
  linalg::SparseLu lu{linalg::CsrMatrix(a)};
  linalg::LowRankUpdateSolver smw;
  smw.Bind(lu, b);

  struct Target {
    std::size_t index;
    spice::Element* element;
  };
  std::vector<Target> targets;
  for (const auto& f : fault_list) {
    targets.push_back(Target{sys.ElementIndexOf(f.Device()),
                             &block.netlist.GetElement(f.Device())});
  }
  faults::FaultStampDelta::Scratch scratch;
  linalg::LowRankPerturbation delta;
  for (auto _ : state) {
    for (std::size_t j = 0; j < fault_list.size(); ++j) {
      faults::FaultStampDelta::Compute(sys, *targets[j].element,
                                       targets[j].index, fault_list[j],
                                       spice::AnalysisKind::kAc, omega,
                                       scratch, delta);
      benchmark::DoNotOptimize(smw.Solve(delta));
    }
  }
  state.SetLabel(kLowRankCircuits[state.range(0)]);
  state.counters["faults"] = static_cast<double>(fault_list.size());
}
BENCHMARK(BM_FaultSolveSmwUpdate)->Arg(0)->Arg(1)->Arg(2);

// The adjoint transpose-solve behind the sensitivity screen: one
// SolveTranspose of the probe indicator against the already-computed
// nominal factorization.  This is the screen's entire per-(config, omega)
// overhead, to be read against one BM_FaultSolveSmwUpdate iteration (the
// per-fault cost it lets the campaign skip).
void BM_AdjointSolve(benchmark::State& state) {
  auto block =
      circuits::FindInZoo(kLowRankCircuits[state.range(0)]).build();
  spice::MnaSystem sys(block.netlist);
  const double omega = 2.0 * 3.141592653589793 * 1234.5;
  linalg::TripletMatrix a;
  linalg::Vector b;
  sys.Assemble(spice::AnalysisKind::kAc, omega, a, b);
  linalg::SparseLu lu{linalg::CsrMatrix(a)};
  const spice::NodeId out = block.netlist.FindNode(block.output_node);
  linalg::Vector probe(b.size());
  probe[static_cast<std::size_t>(out) - 1] = linalg::Complex(1.0, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.SolveTranspose(probe));
  }
  state.SetLabel(kLowRankCircuits[state.range(0)]);
}
BENCHMARK(BM_AdjointSolve)->Arg(0)->Arg(1)->Arg(2);

// The screen's per-fault classification cost with the adjoint in hand:
// stamp-delta assembly plus the first-order probe estimate and the
// guard-band verdict.  Read against BM_FaultSolveSmwUpdate: the ratio is
// how much cheaper screening a cell is than solving it.
void BM_SensitivityScreen(benchmark::State& state) {
  auto block =
      circuits::FindInZoo(kLowRankCircuits[state.range(0)]).build();
  auto fault_list = faults::MakeDeviationFaults(block.netlist);
  spice::MnaSystem sys(block.netlist);
  const double omega = 2.0 * 3.141592653589793 * 1234.5;
  linalg::TripletMatrix a;
  linalg::Vector b;
  sys.Assemble(spice::AnalysisKind::kAc, omega, a, b);
  linalg::SparseLu lu{linalg::CsrMatrix(a)};
  linalg::LowRankUpdateSolver smw;
  smw.Bind(lu, b);
  const linalg::Vector& x0 = smw.NominalSolution();
  const spice::NodeId out = block.netlist.FindNode(block.output_node);
  linalg::Vector probe(b.size());
  probe[static_cast<std::size_t>(out) - 1] = linalg::Complex(1.0, 0.0);
  const linalg::Vector lambda = lu.SolveTranspose(probe);
  const linalg::Complex nominal = x0[static_cast<std::size_t>(out) - 1];
  const double denom = std::max(std::abs(nominal), 1e-300);

  struct Target {
    std::size_t index;
    spice::Element* element;
  };
  std::vector<Target> targets;
  for (const auto& f : fault_list) {
    targets.push_back(Target{sys.ElementIndexOf(f.Device()),
                             &block.netlist.GetElement(f.Device())});
  }
  faults::FaultStampDelta::Scratch scratch;
  linalg::LowRankPerturbation delta;
  std::size_t skipped = 0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < fault_list.size(); ++j) {
      faults::FaultStampDelta::Compute(sys, *targets[j].element,
                                       targets[j].index, fault_list[j],
                                       spice::AnalysisKind::kAc, omega,
                                       scratch, delta);
      const faults::ScreenDecision decision = faults::ScreenCell(
          nominal, faults::FirstOrderProbeDelta(delta, lambda, x0), denom,
          0.08, faults::kScreenMargin);
      if (decision.skip) ++skipped;
      benchmark::DoNotOptimize(decision);
    }
  }
  state.SetLabel(kLowRankCircuits[state.range(0)]);
  state.counters["faults"] = static_cast<double>(fault_list.size());
  state.counters["skipped_per_iter"] =
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(skipped) /
                static_cast<double>(state.iterations());
}
BENCHMARK(BM_SensitivityScreen)->Arg(0)->Arg(1)->Arg(2);

void BM_FaultSolveRefactor(benchmark::State& state) {
  auto block =
      circuits::FindInZoo(kLowRankCircuits[state.range(0)]).build();
  auto fault_list = faults::MakeDeviationFaults(block.netlist);
  spice::MnaSystem sys(block.netlist);
  const double omega = 2.0 * 3.141592653589793 * 1234.5;
  linalg::TripletMatrix a;
  linalg::Vector b;
  sys.Assemble(spice::AnalysisKind::kAc, omega, a, b);
  linalg::CsrAssembly pattern(a);
  linalg::SparseLu cached{pattern.Matrix()};
  for (auto _ : state) {
    for (const auto& f : fault_list) {
      faults::ScopedFaultInjection injection(block.netlist, f);
      sys.Assemble(spice::AnalysisKind::kAc, omega, a, b);
      pattern.Update(a);
      if (!cached.Refactor(pattern.Matrix())) {
        cached = linalg::SparseLu{pattern.Matrix()};
      }
      benchmark::DoNotOptimize(cached.Solve(b));
    }
  }
  state.SetLabel(kLowRankCircuits[state.range(0)]);
  state.counters["faults"] = static_cast<double>(fault_list.size());
}
BENCHMARK(BM_FaultSolveRefactor)->Arg(0)->Arg(1)->Arg(2);

// --- Transient trajectory --------------------------------------------
//
// One transient campaign cell on cascade6: FaultSimulator::
// SimulateTransientRange over one catastrophic fault at 1 thread, in the
// full-space configuration above, on the window and 256-step grid
// `mcdft analyze --analysis transient` resolves.  Each iteration marches
// the nominal and the faulty trajectory, each a stepper (assembly), one
// sparse factorization and 256 steps; "per_trajectory" is one of them.
void BM_TransientTrajectoryCascade6(benchmark::State& state) {
  core::server::CampaignRequest request;
  request.circuit = "cascade6";
  request.analysis = "transient";
  const core::server::CampaignJob job = core::server::BuildCampaignJob(request);
  core::DftCircuit work = job.circuit.Clone();
  const core::CampaignFrame frame =
      core::BuildCampaignFrame(work, job.fault_list, job.options);
  core::ScopedConfiguration config(
      work, core::ConfigVector::FromBits("101010100"));
  const faults::FaultSimulator simulator(work.Circuit(), frame.sweep,
                                         frame.probe, job.options.mna);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.SimulateTransientRange(
        job.fault_list, 0, 1, 1, *frame.transient));
  }
  state.counters["per_trajectory"] = benchmark::Counter(
      2.0, benchmark::Counter::kIsIterationInvariantRate |
               benchmark::Counter::kInvert);
}
BENCHMARK(BM_TransientTrajectoryCascade6);

// One full-space cascade6 AC campaign unit at `mcdft analyze --circuit
// cascade6 --max-followers 9`: FaultSimulator::SimulateRange over every
// fault at 1 thread (as units run per worker), the screen on, in the
// configuration above.  /0 builds the unit's own delta table (what a call
// without the campaign's table does), /1 reads the campaign's shared table,
// built once outside the timing.  "per_cell" is one (fault, omega) cell.
void BM_SimulateUnitCascade6(benchmark::State& state) {
  core::server::CampaignRequest request;
  request.circuit = "cascade6";
  request.max_followers = 9;
  const core::server::CampaignJob job = core::server::BuildCampaignJob(request);
  core::DftCircuit work = job.circuit.Clone();
  const core::CampaignFrame frame =
      core::BuildCampaignFrame(work, job.fault_list, job.options);
  const core::ConfigVector cv = core::ConfigVector::FromBits("101010100");
  const core::PreparedConfig prepared =
      core::PrepareCampaignConfig(work, frame, cv, job.options);
  const std::size_t points = frame.sweep.Frequencies().size();
  const faults::SensitivityScreenSpec screen =
      core::MakeSensitivityScreenSpec(prepared.criteria, points, job.options);
  const std::optional<faults::FaultDeltaTable> shared =
      core::BuildSharedFaultDeltas(work, frame, job.fault_list, job.options);
  const faults::FaultSimulator simulator(prepared.netlist, frame.sweep,
                                         frame.probe, job.options.mna);
  const faults::FaultDeltaTable* deltas =
      state.range(0) == 1 ? &*shared : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.SimulateRange(
        job.fault_list, 0, job.fault_list.size(), 1, &screen, deltas));
  }
  state.SetLabel(state.range(0) == 1 ? "shared table" : "own table");
  state.counters["per_cell"] = benchmark::Counter(
      static_cast<double>(job.fault_list.size() * points),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SimulateUnitCascade6)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

boolcov::CoverProblem RandomCover(std::size_t vars, std::size_t clauses,
                                  double density, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  boolcov::CoverProblem p(vars);
  for (std::size_t c = 0; c < clauses; ++c) {
    boolcov::Cube lits(vars);
    while (lits.Empty()) {
      for (std::size_t v = 0; v < vars; ++v) {
        if (coin(rng) < density) lits.Set(v);
      }
    }
    p.AddClause({lits, ""});
  }
  return p;
}

void BM_PetrickExpansion(benchmark::State& state) {
  auto p = RandomCover(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(0)) + 4, 0.3, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(boolcov::PetrickMinimalProducts(p));
  }
}
BENCHMARK(BM_PetrickExpansion)->Arg(7)->Arg(12)->Arg(16);

// The Sec. 4 optimizer on the paper-seed cascade6 campaign at the CLI
// defaults (up to 2 followers, 46 configurations, 2 577 minimal covers),
// built once: the fundamental solution, the configuration-count selection
// and the partial-DFT selection, as `mcdft optimize` runs them.
void BM_OptimizeCascade6(benchmark::State& state) {
  core::server::CampaignRequest request;
  request.circuit = "cascade6";
  const core::server::CampaignJob job =
      core::server::BuildCampaignJob(request);
  const core::CampaignResult campaign = core::RunCampaign(
      job.circuit, job.fault_list, job.configs, job.options);
  const core::DftOptimizer optimizer(job.circuit, campaign);
  std::size_t covers = 0;
  for (auto _ : state) {
    const core::FundamentalSolution fundamental = optimizer.SolveFundamental();
    covers = fundamental.minimal_covers.size();
    benchmark::DoNotOptimize(optimizer.OptimizeConfigurationCount());
    benchmark::DoNotOptimize(optimizer.OptimizePartialDft());
  }
  state.counters["minimal_covers"] = static_cast<double>(covers);
}
BENCHMARK(BM_OptimizeCascade6)->Unit(benchmark::kMillisecond);

void BM_ExactSetCover(benchmark::State& state) {
  auto p = RandomCover(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(0)) + 10, 0.2, 9);
  auto w = boolcov::UnitWeights(p.VariableCount());
  for (auto _ : state) {
    benchmark::DoNotOptimize(boolcov::ExactSetCover(p, w));
  }
}
BENCHMARK(BM_ExactSetCover)->Arg(16)->Arg(32)->Arg(48);

void BM_GreedySetCover(benchmark::State& state) {
  auto p = RandomCover(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(0)) + 10, 0.2, 9);
  auto w = boolcov::UnitWeights(p.VariableCount());
  for (auto _ : state) {
    benchmark::DoNotOptimize(boolcov::GreedySetCover(p, w));
  }
}
BENCHMARK(BM_GreedySetCover)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
