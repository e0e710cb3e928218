#include "core/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mcdft::core {

DftOptimizer::DftOptimizer(const DftCircuit& circuit,
                           const CampaignResult& campaign)
    : circuit_(circuit), campaign_(campaign) {}

boolcov::CoverProblem DftOptimizer::BuildProblem(
    std::vector<faults::Fault>* undetectable) const {
  const auto matrix = campaign_.DetectabilityMatrix();
  const std::size_t nrows = matrix.size();
  boolcov::CoverProblem problem(nrows);
  for (std::size_t j = 0; j < campaign_.FaultCount(); ++j) {
    boolcov::Clause clause{boolcov::Cube(nrows),
                           campaign_.Faults()[j].Label()};
    for (std::size_t i = 0; i < nrows; ++i) {
      if (matrix[i][j]) clause.literals.Set(i);
    }
    if (clause.literals.Empty()) {
      // Not even the full multi-configuration set detects this fault: the
      // maximum fault coverage excludes it (the fundamental requirement is
      // relative to the *achievable* maximum).
      if (undetectable) undetectable->push_back(campaign_.Faults()[j]);
      continue;
    }
    problem.AddClause(std::move(clause));
  }
  return problem;
}

FundamentalSolution DftOptimizer::SolveFundamental(
    const boolcov::PetrickOptions& options) const {
  std::vector<faults::Fault> undetectable;
  boolcov::CoverProblem xi = BuildProblem(&undetectable);

  const std::size_t nrows = campaign_.ConfigCount();
  boolcov::Cube essential = xi.EssentialVariables();
  boolcov::CoverProblem reduced = xi.ReduceBy(essential);

  FundamentalSolution sol(xi, reduced, nrows);
  sol.undetectable = std::move(undetectable);
  sol.essential = essential;
  sol.max_coverage =
      1.0 - static_cast<double>(sol.undetectable.size()) /
                static_cast<double>(campaign_.FaultCount());

  // Expand the reduced problem, then put the essentials back into every
  // product (xi = xi_ess . xi_compl, Sec. 4.1).
  boolcov::CoverProblem reduced_absorbed = reduced;
  reduced_absorbed.AbsorbClauses();
  std::vector<boolcov::Cube> products;
  if (reduced_absorbed.Satisfied()) {
    products.push_back(boolcov::Cube(nrows));
  } else {
    products = boolcov::PetrickMinimalProducts(reduced_absorbed, options);
  }
  sol.minimal_covers.reserve(products.size());
  for (const auto& p : products) {
    sol.minimal_covers.push_back(p.Union(essential));
  }
  std::sort(sol.minimal_covers.begin(), sol.minimal_covers.end(),
            boolcov::Cube::OrderBySize);
  return sol;
}

ScoredSet DftOptimizer::Score(const boolcov::Cube& rows) const {
  ScoredSet s{rows, {}, std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0};
  const std::vector<std::size_t> vars = rows.Variables();
  for (std::size_t r : vars) {
    s.configs.push_back(campaign_.PerConfig()[r].config);
  }
  s.avg_omega_det = campaign_.AverageOmegaDet(vars);
  s.coverage = campaign_.Coverage(vars);
  return s;
}

ScoredSet DftOptimizer::ScoreWithCost(const boolcov::Cube& rows,
                                      const CostFunction& cost) const {
  ScoredSet s = Score(rows);
  s.cost = cost.Cost(rows, campaign_, circuit_);
  return s;
}

SelectionResult DftOptimizer::Optimize(
    const CostFunction& cost, const boolcov::PetrickOptions& options) const {
  return Optimize(cost, SolveFundamental(options));
}

SelectionResult DftOptimizer::Optimize(
    const CostFunction& cost, const FundamentalSolution& fundamental) const {
  if (fundamental.minimal_covers.empty()) {
    throw util::OptimizationError("no covering configuration set exists");
  }
  SelectionResult result;
  result.cost_name = cost.Name();
  result.all_minimal.reserve(fundamental.minimal_covers.size());
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& cover : fundamental.minimal_covers) {
    result.all_minimal.push_back(ScoreWithCost(cover, cost));
    const double c = result.all_minimal.back().cost;
    if (std::isnan(c)) {
      // A NaN compares false both ways: it could neither win nor tie.
      throw util::OptimizationError("cost '" + cost.Name() +
                                    "' is NaN for a minimal cover");
    }
    best_cost = std::min(best_cost, c);
  }
  for (const auto& s : result.all_minimal) {
    if (s.cost == best_cost) result.tied.push_back(s);
  }
  // 3rd-order requirement: highest average omega-detectability wins; break
  // any residual tie deterministically by cube order.
  result.selected = result.tied.front();
  for (const auto& s : result.tied) {
    if (s.avg_omega_det > result.selected.avg_omega_det +
                              std::numeric_limits<double>::epsilon()) {
      result.selected = s;
    }
  }
  return result;
}

SelectionResult DftOptimizer::OptimizeConfigurationCount() const {
  return Optimize(ConfigCountCost{});
}

SelectionResult DftOptimizer::OptimizeConfigurationCount(
    const FundamentalSolution& fundamental) const {
  return Optimize(ConfigCountCost{}, fundamental);
}

PartialDftResult DftOptimizer::OptimizePartialDft(
    const boolcov::PetrickOptions& options) const {
  return OptimizePartialDft(SolveFundamental(options));
}

PartialDftResult DftOptimizer::OptimizePartialDft(
    const FundamentalSolution& fundamental) const {
  if (fundamental.minimal_covers.empty()) {
    throw util::OptimizationError("no covering configuration set exists");
  }
  const std::size_t npos = circuit_.ConfigurableOpamps().size();
  PartialDftResult result(npos, campaign_.ConfigCount());

  // Map every minimal cover through Table 3 (configurations -> opamps) and
  // absorb: this is the xi -> xi* substitution of Sec. 4.3.
  std::vector<boolcov::Cube> opamp_terms;
  for (const auto& cover : fundamental.minimal_covers) {
    const boolcov::Cube needed = RequiredOpamps(cover, campaign_, circuit_);
    bool absorbed = false;
    for (const auto& existing : opamp_terms) {
      if (existing.SubsetOf(needed)) {
        absorbed = true;
        break;
      }
    }
    if (absorbed) continue;
    std::erase_if(opamp_terms,
                  [&](const boolcov::Cube& t) { return needed.SubsetOf(t); });
    opamp_terms.push_back(needed);
  }
  std::sort(opamp_terms.begin(), opamp_terms.end(), boolcov::Cube::OrderBySize);
  result.opamp_candidates = opamp_terms;

  // 2nd-order: fewest configurable opamps; 3rd-order: among ties, the
  // candidate whose permitted configurations reach the highest <w-det>.
  const std::size_t best_count = opamp_terms.front().LiteralCount();
  boolcov::Cube best_cube = opamp_terms.front();
  double best_wdet = -1.0;
  std::vector<std::size_t> best_rows;
  for (const auto& cand : opamp_terms) {
    if (cand.LiteralCount() != best_count) break;  // sorted by size
    std::vector<std::size_t> rows;
    for (std::size_t r = 0; r < campaign_.ConfigCount(); ++r) {
      boolcov::Cube followers(npos);
      for (std::size_t pos :
           campaign_.PerConfig()[r].config.FollowerPositions()) {
        followers.Set(pos);
      }
      if (followers.SubsetOf(cand)) rows.push_back(r);
    }
    const double wdet = campaign_.AverageOmegaDet(rows);
    if (wdet > best_wdet) {
      best_wdet = wdet;
      best_cube = cand;
      best_rows = std::move(rows);
    }
  }
  result.opamp_cube = best_cube;
  for (std::size_t pos : best_cube.Variables()) {
    result.opamps.push_back(circuit_.ConfigurableOpamps()[pos]);
  }
  result.permitted_rows = best_rows;

  boolcov::Cube all_permitted(campaign_.ConfigCount());
  for (std::size_t r : best_rows) all_permitted.Set(r);
  result.usage_all = Score(all_permitted);
  result.usage_all.cost = static_cast<double>(best_count);

  // Minimal covering subset among the permitted rows (for the cheapest test
  // procedure on the partial circuit): restrict the covering problem.
  boolcov::CoverProblem restricted(campaign_.ConfigCount());
  for (const auto& clause : fundamental.xi.Clauses()) {
    boolcov::Clause cl{clause.literals.Intersect(all_permitted), clause.label};
    restricted.AddClause(std::move(cl));  // throws if a fault became uncoverable
  }
  auto exact = boolcov::ExactSetCover(
      restricted, boolcov::UnitWeights(campaign_.ConfigCount()));
  result.usage_minimal = Score(exact.chosen);
  result.usage_minimal.cost = exact.cost;
  return result;
}

ScoredSet DftOptimizer::OptimizeConfigurationCountExact() const {
  boolcov::CoverProblem problem = BuildProblem(nullptr);
  auto res = boolcov::ExactSetCover(problem,
                                    boolcov::UnitWeights(problem.VariableCount()));
  ScoredSet s = Score(res.chosen);
  s.cost = res.cost;
  return s;
}

ScoredSet DftOptimizer::OptimizeConfigurationCountGreedy() const {
  boolcov::CoverProblem problem = BuildProblem(nullptr);
  auto res = boolcov::GreedySetCover(
      problem, boolcov::UnitWeights(problem.VariableCount()));
  ScoredSet s = Score(res.chosen);
  s.cost = res.cost;
  return s;
}

}  // namespace mcdft::core
