// User-defined cost functions for the 2nd-order requirements (paper Sec. 4):
// "test time, silicon overhead or performance degradation".
//
// A cost function scores a candidate *set of test configurations* (a cube
// over campaign rows).  The optimizer evaluates every minimal cover from
// the fundamental requirement against the chosen cost function and keeps
// the cheapest ones; ties go to the 3rd-order omega-detectability rule.
#pragma once

#include <memory>

#include "boolcov/cube.hpp"
#include "core/campaign.hpp"

namespace mcdft::core {

/// Interface of a 2nd-order cost function.
class CostFunction {
 public:
  virtual ~CostFunction() = default;

  /// Human-readable name for reports.
  virtual std::string Name() const = 0;

  /// Cost of selecting the configuration set `rows` (a cube over the
  /// campaign's configuration rows).  Lower is better.
  virtual double Cost(const boolcov::Cube& rows, const CampaignResult& campaign,
                      const DftCircuit& circuit) const = 0;
};

/// Sec. 4.2: number of test configurations (test-procedure complexity).
class ConfigCountCost final : public CostFunction {
 public:
  std::string Name() const override { return "configuration count"; }
  double Cost(const boolcov::Cube& rows, const CampaignResult& campaign,
              const DftCircuit& circuit) const override;
};

/// Sec. 4.3: number of opamps that must be made configurable — the union
/// of follower opamps over the selected configurations (silicon area +
/// performance degradation proxy).
class OpampCountCost final : public CostFunction {
 public:
  std::string Name() const override { return "configurable-opamp count"; }
  double Cost(const boolcov::Cube& rows, const CampaignResult& campaign,
              const DftCircuit& circuit) const override;
};

/// Opamp chain positions needed in follower mode by a configuration set:
/// the paper's configuration->opamp mapping (Table 3) extended to sets.
/// The returned cube lives over the circuit's configurable-opamp positions.
boolcov::Cube RequiredOpamps(const boolcov::Cube& rows,
                             const CampaignResult& campaign,
                             const DftCircuit& circuit);

/// Explicit test-time model: each configuration costs a reconfiguration
/// overhead plus one measurement per sweep point.
class TestTimeCost final : public CostFunction {
 public:
  /// `seconds_per_point`: one AC measurement; `reconfig_seconds`: digital
  /// reconfiguration + settling between configurations.
  TestTimeCost(double seconds_per_point, double reconfig_seconds);
  std::string Name() const override { return "test time (s)"; }
  double Cost(const boolcov::Cube& rows, const CampaignResult& campaign,
              const DftCircuit& circuit) const override;

 private:
  double seconds_per_point_;
  double reconfig_seconds_;
};

/// Explicit silicon-overhead model: per configurable opamp (switches +
/// test-input routing) plus per selection line (control routing).
class SiliconAreaCost final : public CostFunction {
 public:
  /// Costs in arbitrary area units.
  SiliconAreaCost(double area_per_configurable_opamp, double area_per_sel_line);
  std::string Name() const override { return "silicon overhead"; }
  double Cost(const boolcov::Cube& rows, const CampaignResult& campaign,
              const DftCircuit& circuit) const override;

 private:
  double area_per_opamp_;
  double area_per_line_;
};

/// Weighted sum of other cost functions (multi-objective trade-offs).
class CompositeCost final : public CostFunction {
 public:
  /// Throws OptimizationError on a null component or a non-finite weight.
  void Add(std::shared_ptr<const CostFunction> f, double weight);
  std::string Name() const override;
  double Cost(const boolcov::Cube& rows, const CampaignResult& campaign,
              const DftCircuit& circuit) const override;

 private:
  std::vector<std::pair<std::shared_ptr<const CostFunction>, double>> parts_;
};

}  // namespace mcdft::core
