#include "core/cost_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/optimizer.hpp"
#include "paper_fixture.hpp"

namespace mcdft::core {
namespace {

class CostFunctionTest : public ::testing::Test {
 protected:
  CostFunctionTest()
      : campaign_(testdata::PaperCampaign()), circuit_(testdata::PaperCircuit()) {}

  CampaignResult campaign_;
  DftCircuit circuit_;
};

TEST_F(CostFunctionTest, ConfigCountCostIsLiteralCount) {
  ConfigCountCost cost;
  EXPECT_DOUBLE_EQ(cost.Cost(boolcov::Cube(7, {1, 2}), campaign_, circuit_),
                   2.0);
  EXPECT_DOUBLE_EQ(cost.Cost(boolcov::Cube(7), campaign_, circuit_), 0.0);
  EXPECT_EQ(cost.Name(), "configuration count");
}

TEST_F(CostFunctionTest, RequiredOpampsUnionsFollowerSets) {
  // {C1 (001), C2 (010)} -> followers at positions 2 and 1.
  auto opamps = RequiredOpamps(boolcov::Cube(7, {1, 2}), campaign_, circuit_);
  EXPECT_EQ(opamps.Variables(), (std::vector<std::size_t>{1, 2}));
  // {C2 (010), C5 (101)} -> all three positions.
  auto all = RequiredOpamps(boolcov::Cube(7, {2, 5}), campaign_, circuit_);
  EXPECT_EQ(all.LiteralCount(), 3u);
  // C0 alone needs no configurable opamp at all.
  EXPECT_TRUE(RequiredOpamps(boolcov::Cube(7, {0}), campaign_, circuit_)
                  .Empty());
}

TEST_F(CostFunctionTest, RequiredOpampsRowOutOfRangeThrows) {
  boolcov::Cube rows(9, {8});
  EXPECT_THROW(RequiredOpamps(rows, campaign_, circuit_),
               util::OptimizationError);
}

TEST_F(CostFunctionTest, OpampCountCost) {
  OpampCountCost cost;
  EXPECT_DOUBLE_EQ(cost.Cost(boolcov::Cube(7, {1, 2}), campaign_, circuit_),
                   2.0);
  EXPECT_DOUBLE_EQ(cost.Cost(boolcov::Cube(7, {2, 5}), campaign_, circuit_),
                   3.0);
}

TEST_F(CostFunctionTest, TestTimeCostScalesWithConfigsAndPoints) {
  TestTimeCost cost(0.01, 2.0);
  const double points =
      static_cast<double>(campaign_.Band().MakeSweep().PointCount());
  EXPECT_DOUBLE_EQ(
      cost.Cost(boolcov::Cube(7, {2, 5}), campaign_, circuit_),
      2.0 * (2.0 + points * 0.01));
  EXPECT_THROW(TestTimeCost(0.0, 1.0), util::OptimizationError);
  EXPECT_THROW(TestTimeCost(0.1, -1.0), util::OptimizationError);
}

TEST_F(CostFunctionTest, SiliconAreaCost) {
  SiliconAreaCost cost(100.0, 10.0);
  EXPECT_DOUBLE_EQ(cost.Cost(boolcov::Cube(7, {1, 2}), campaign_, circuit_),
                   2.0 * 110.0);
  EXPECT_THROW(SiliconAreaCost(-1.0, 0.0), util::OptimizationError);
}

TEST_F(CostFunctionTest, CompositeCostWeightsComponents) {
  CompositeCost composite;
  composite.Add(std::make_shared<ConfigCountCost>(), 1.0);
  composite.Add(std::make_shared<OpampCountCost>(), 10.0);
  // {C2,C5}: 2 configs + 3 opamps -> 2 + 30 = 32.
  EXPECT_DOUBLE_EQ(
      composite.Cost(boolcov::Cube(7, {2, 5}), campaign_, circuit_), 32.0);
  EXPECT_NE(composite.Name().find("configuration count"), std::string::npos);
  EXPECT_THROW(composite.Add(nullptr, 1.0), util::OptimizationError);
}

TEST_F(CostFunctionTest, CompositeChangesOptimizerChoice) {
  // With opamp count weighted heavily, {C1,C2} (2 opamps) must beat
  // {C2,C5} (3 opamps) even though both have 2 configurations.
  DftOptimizer optimizer(circuit_, campaign_);
  CompositeCost composite;
  composite.Add(std::make_shared<ConfigCountCost>(), 1.0);
  composite.Add(std::make_shared<OpampCountCost>(), 100.0);
  auto sel = optimizer.Optimize(composite);
  EXPECT_EQ(sel.selected.rows, boolcov::Cube(7, {1, 2}));
}

TEST_F(CostFunctionTest, CompositeRejectsNonFiniteWeights) {
  CompositeCost composite;
  const auto count = std::make_shared<ConfigCountCost>();
  EXPECT_THROW(composite.Add(count, std::nan("")), util::OptimizationError);
  EXPECT_THROW(composite.Add(count, std::numeric_limits<double>::infinity()),
               util::OptimizationError);
  EXPECT_THROW(composite.Add(count, -std::numeric_limits<double>::infinity()),
               util::OptimizationError);
  composite.Add(count, 0.0);
  EXPECT_EQ(composite.Cost(boolcov::Cube(7, {2, 5}), campaign_, circuit_),
            0.0);
}

/// A cost function that cannot price some configuration sets.
class NanCost final : public CostFunction {
 public:
  std::string Name() const override { return "unpriceable"; }
  double Cost(const boolcov::Cube& rows, const CampaignResult&,
              const DftCircuit&) const override {
    return rows.Test(5) ? std::nan("") : 1.0;
  }
};

TEST_F(CostFunctionTest, NanCostThrowsNamingTheCost) {
  // {C1,C2} is priced but {C2,C5} is NaN: no ordering can rank it.
  DftOptimizer optimizer(circuit_, campaign_);
  try {
    optimizer.Optimize(NanCost{});
    FAIL() << "expected a NaN cost to be rejected";
  } catch (const util::OptimizationError& e) {
    EXPECT_NE(std::string(e.what()).find("unpriceable"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mcdft::core
