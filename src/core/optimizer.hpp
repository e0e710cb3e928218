// The ordered-requirement optimizer — the paper's main contribution
// (Section 4):
//   1st order (fundamental): keep the maximum achievable fault coverage.
//   2nd order: minimize a user-defined cost over the minimal covers
//              (configuration count, configurable-opamp count, test time...)
//   3rd order: break remaining ties by the highest average
//              omega-detectability.
#pragma once

#include "boolcov/petrick.hpp"
#include "boolcov/setcover.hpp"
#include "core/cost_functions.hpp"

namespace mcdft::core {

/// Result of the fundamental requirement analysis (Sec. 4.1).
struct FundamentalSolution {
  /// Faults detectable in no simulated configuration.  The fundamental
  /// requirement then means "cover every *detectable* fault"; these are
  /// reported so no silent coverage loss occurs.
  std::vector<faults::Fault> undetectable;

  /// The covering problem xi (one clause per detectable fault, variables =
  /// campaign rows).
  boolcov::CoverProblem xi;

  /// Essential configurations (rows appearing as single-literal clauses).
  boolcov::Cube essential;

  /// The problem after committing to the essentials — the reduced fault
  /// detectability matrix of Fig. 6.
  boolcov::CoverProblem xi_reduced;

  /// All minimal covers (each includes the essential rows), sorted by size.
  std::vector<boolcov::Cube> minimal_covers;

  /// Maximum achievable fault coverage (over all simulated rows).
  double max_coverage = 0.0;

  FundamentalSolution(boolcov::CoverProblem xi_in,
                      boolcov::CoverProblem xi_reduced_in, std::size_t nvars)
      : xi(std::move(xi_in)),
        essential(nvars),
        xi_reduced(std::move(xi_reduced_in)) {}
};

/// One candidate configuration set with its evaluation.
struct ScoredSet {
  boolcov::Cube rows;                  ///< campaign rows selected
  std::vector<ConfigVector> configs;   ///< the corresponding configurations
  double cost = 0.0;                   ///< 2nd-order cost
  double avg_omega_det = 0.0;          ///< 3rd-order metric
  double coverage = 0.0;               ///< achieved fault coverage
};

/// Result of a 2nd+3rd-order optimization.
struct SelectionResult {
  ScoredSet selected;                ///< the winner
  std::vector<ScoredSet> tied;       ///< all min-cost candidates (incl. winner)
  std::vector<ScoredSet> all_minimal;///< every minimal cover, scored
  std::string cost_name;
};

/// Result of the partial-DFT optimization (Sec. 4.3).
struct PartialDftResult {
  /// Chosen configurable opamps (names, chain order) — the xi* minimum.
  std::vector<std::string> opamps;

  /// Cube over configurable-opamp chain positions.
  boolcov::Cube opamp_cube;

  /// All distinct opamp-set candidates after mapping + absorption, sorted
  /// by size (the terms of the absorbed xi* expression).
  std::vector<boolcov::Cube> opamp_candidates;

  /// Campaign rows *permitted* by the chosen opamps (every simulated
  /// configuration whose followers are a subset of the chosen opamps).
  std::vector<std::size_t> permitted_rows;

  /// Scored usage of all permitted rows (the paper's Table 4 conclusion:
  /// using every permitted configuration maximizes <w-det>).
  ScoredSet usage_all;

  /// Scored usage of a minimal covering subset of the permitted rows
  /// (cheapest test procedure on the partial-DFT circuit).
  ScoredSet usage_minimal;

  PartialDftResult(std::size_t opamp_positions, std::size_t row_count)
      : opamp_cube(opamp_positions) {
    (void)row_count;
  }
};

/// Ties a campaign to the covering/optimization machinery.
class DftOptimizer {
 public:
  /// `circuit` and `campaign` must outlive the optimizer.
  DftOptimizer(const DftCircuit& circuit, const CampaignResult& campaign);

  /// Sec. 4.1: build xi, extract essentials, reduce, expand with Petrick.
  FundamentalSolution SolveFundamental(
      const boolcov::PetrickOptions& options = {}) const;

  /// Generic 2nd-order + 3rd-order selection over the minimal covers.
  /// Throws OptimizationError naming the cost when a cover's cost is NaN.
  SelectionResult Optimize(const CostFunction& cost,
                           const boolcov::PetrickOptions& options = {}) const;

  /// Optimize over the covers of `fundamental`, this optimizer's
  /// SolveFundamental() result (so one Petrick expansion serves every
  /// optimization of a campaign).
  SelectionResult Optimize(const CostFunction& cost,
                           const FundamentalSolution& fundamental) const;

  /// Sec. 4.2 shortcut: minimize the configuration count.
  SelectionResult OptimizeConfigurationCount() const;
  SelectionResult OptimizeConfigurationCount(
      const FundamentalSolution& fundamental) const;

  /// Sec. 4.3: minimize the configurable-opamp count and derive the
  /// partial-DFT implementation.
  PartialDftResult OptimizePartialDft(
      const boolcov::PetrickOptions& options = {}) const;
  PartialDftResult OptimizePartialDft(
      const FundamentalSolution& fundamental) const;

  /// Scalable fallback for large configuration spaces where Petrick
  /// explodes: exact branch-and-bound minimum-cardinality cover (no
  /// exhaustive candidate list, no 3rd-order tie-break).
  ScoredSet OptimizeConfigurationCountExact() const;

  /// Greedy ln(n)-approximate cover (baseline for the ablation bench).
  ScoredSet OptimizeConfigurationCountGreedy() const;

  /// Score an arbitrary row set (cost = NaN; coverage and <w-det> filled).
  ScoredSet Score(const boolcov::Cube& rows) const;

 private:
  ScoredSet ScoreWithCost(const boolcov::Cube& rows,
                          const CostFunction& cost) const;
  boolcov::CoverProblem BuildProblem(
      std::vector<faults::Fault>* undetectable) const;

  const DftCircuit& circuit_;
  const CampaignResult& campaign_;
};

}  // namespace mcdft::core
