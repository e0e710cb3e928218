#include "core/cost_functions.hpp"

#include <cmath>

namespace mcdft::core {

double ConfigCountCost::Cost(const boolcov::Cube& rows, const CampaignResult&,
                             const DftCircuit&) const {
  return static_cast<double>(rows.LiteralCount());
}

boolcov::Cube RequiredOpamps(const boolcov::Cube& rows,
                             const CampaignResult& campaign,
                             const DftCircuit& circuit) {
  boolcov::Cube opamps(circuit.ConfigurableOpamps().size());
  for (std::size_t row : rows.Variables()) {
    if (row >= campaign.PerConfig().size()) {
      throw util::OptimizationError("configuration-set cube row " +
                                    std::to_string(row) +
                                    " outside the campaign");
    }
    for (std::size_t pos :
         campaign.PerConfig()[row].config.FollowerPositions()) {
      opamps.Set(pos);
    }
  }
  return opamps;
}

double OpampCountCost::Cost(const boolcov::Cube& rows,
                            const CampaignResult& campaign,
                            const DftCircuit& circuit) const {
  return static_cast<double>(
      RequiredOpamps(rows, campaign, circuit).LiteralCount());
}

TestTimeCost::TestTimeCost(double seconds_per_point, double reconfig_seconds)
    : seconds_per_point_(seconds_per_point), reconfig_seconds_(reconfig_seconds) {
  if (!(seconds_per_point > 0.0) || !(reconfig_seconds >= 0.0)) {
    throw util::OptimizationError("test-time cost parameters must be positive");
  }
}

double TestTimeCost::Cost(const boolcov::Cube& rows,
                          const CampaignResult& campaign,
                          const DftCircuit&) const {
  const double points =
      static_cast<double>(campaign.Band().MakeSweep().PointCount());
  const double nconf = static_cast<double>(rows.LiteralCount());
  return nconf * (reconfig_seconds_ + points * seconds_per_point_);
}

SiliconAreaCost::SiliconAreaCost(double area_per_configurable_opamp,
                                 double area_per_sel_line)
    : area_per_opamp_(area_per_configurable_opamp),
      area_per_line_(area_per_sel_line) {
  if (!(area_per_opamp_ >= 0.0) || !(area_per_line_ >= 0.0)) {
    throw util::OptimizationError("silicon-area costs must be non-negative");
  }
}

double SiliconAreaCost::Cost(const boolcov::Cube& rows,
                             const CampaignResult& campaign,
                             const DftCircuit& circuit) const {
  const double n = static_cast<double>(
      RequiredOpamps(rows, campaign, circuit).LiteralCount());
  return n * (area_per_opamp_ + area_per_line_);
}

void CompositeCost::Add(std::shared_ptr<const CostFunction> f, double weight) {
  if (!f) throw util::OptimizationError("null cost function component");
  if (!std::isfinite(weight)) {
    throw util::OptimizationError("cost weight for '" + f->Name() +
                                  "' is not finite");
  }
  parts_.emplace_back(std::move(f), weight);
}

std::string CompositeCost::Name() const {
  std::string name = "composite(";
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i != 0) name += " + ";
    name += parts_[i].first->Name();
  }
  return name + ")";
}

double CompositeCost::Cost(const boolcov::Cube& rows,
                           const CampaignResult& campaign,
                           const DftCircuit& circuit) const {
  double acc = 0.0;
  for (const auto& [f, w] : parts_) acc += w * f->Cost(rows, campaign, circuit);
  return acc;
}

}  // namespace mcdft::core
