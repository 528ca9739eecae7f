#include "polaris/hw/cluster.hpp"

#include <gtest/gtest.h>

#include "polaris/support/check.hpp"

namespace polaris::hw {
namespace {

class ClusterDesignerTest : public ::testing::Test {
 protected:
  ClusterDesigner designer_;
};

TEST_F(ClusterDesignerTest, FixedSizeAggregatesLinearly) {
  const auto c = designer_.fixed_size(NodeArch::kConventional, 2002.0, 128);
  EXPECT_DOUBLE_EQ(c.peak_flops(), 128.0 * 9.6e9);
  EXPECT_DOUBLE_EQ(c.memory_bytes(), 128.0 * 1024.0 * 1024.0 * 1024.0);
  EXPECT_GT(c.disk_bytes, 0.0);
}

TEST_F(ClusterDesignerTest, CostIncludesInterconnectPorts) {
  const auto c = designer_.fixed_size(NodeArch::kConventional, 2002.0, 10);
  EXPECT_DOUBLE_EQ(c.cost_usd(), 10.0 * (2500.0 + 150.0));
}

TEST_F(ClusterDesignerTest, PowerIncludesInterconnect) {
  const auto c = designer_.fixed_size(NodeArch::kConventional, 2002.0, 10);
  EXPECT_DOUBLE_EQ(c.power_w(), 10.0 * (250.0 + 10.0));
}

TEST_F(ClusterDesignerTest, RackCountCeils) {
  const auto c = designer_.fixed_size(NodeArch::kConventional, 2002.0, 43);
  EXPECT_DOUBLE_EQ(c.racks(), 2.0);  // 42 x 1U per rack
  EXPECT_DOUBLE_EQ(c.floor_area_m2(), 3.0);
}

TEST_F(ClusterDesignerTest, BladesPackDenser) {
  const auto conv = designer_.fixed_size(NodeArch::kConventional, 2002.0, 256);
  const auto blade = designer_.fixed_size(NodeArch::kBlade, 2002.0, 256);
  EXPECT_LT(blade.racks(), conv.racks());
  EXPECT_GT(blade.gflops_per_rack(), conv.gflops_per_rack());
}

TEST_F(ClusterDesignerTest, FixedBudgetSpendsWithinBudget) {
  const double budget = 1e6;
  const auto c =
      designer_.fixed_budget(NodeArch::kConventional, 2002.0, budget);
  EXPECT_LE(c.cost_usd(), budget);
  // Within one node of the budget.
  EXPECT_GT(c.cost_usd(), budget - (2500.0 + 150.0));
}

TEST_F(ClusterDesignerTest, MillionDollar2002ClusterIsTeraflops) {
  const auto c = designer_.fixed_budget(NodeArch::kConventional, 2002.0, 1e6);
  EXPECT_GT(c.peak_flops(), 1e12);
  EXPECT_LT(c.peak_flops(), 1e13);
}

TEST_F(ClusterDesignerTest, SameBudgetBuysMoreFlopsLater) {
  const auto c2002 =
      designer_.fixed_budget(NodeArch::kConventional, 2002.0, 1e6);
  const auto c2008 =
      designer_.fixed_budget(NodeArch::kConventional, 2008.0, 1e6);
  EXPECT_GT(c2008.peak_flops(), 10.0 * c2002.peak_flops());
}

TEST_F(ClusterDesignerTest, CmpReachesPetaflopsByDecadeEndConventionalDoesNot) {
  // The talk's core claim: revolutionary node structures, not Moore alone,
  // carry commodity clusters into the trans-Petaflops regime.
  const auto conv =
      designer_.fixed_budget(NodeArch::kConventional, 2010.0, 4e6);
  const auto cmp = designer_.fixed_budget(NodeArch::kCmpSoc, 2010.0, 4e6);
  EXPECT_LT(conv.peak_flops(), 1e15);
  EXPECT_GT(cmp.peak_flops(), 1e15);
}

TEST_F(ClusterDesignerTest, EfficiencyMetricsPositive) {
  const auto c = designer_.fixed_size(NodeArch::kBlade, 2005.0, 64);
  EXPECT_GT(c.mflops_per_watt(), 0.0);
  EXPECT_GT(c.flops_per_dollar(), 0.0);
  EXPECT_GT(c.gflops_per_rack(), 0.0);
}

TEST_F(ClusterDesignerTest, RejectsZeroNodes) {
  EXPECT_THROW(
      (void)designer_.fixed_size(NodeArch::kConventional, 2002.0, 0),
      support::ContractViolation);
}

TEST_F(ClusterDesignerTest, RejectsBudgetBelowOneNode) {
  EXPECT_THROW(
      (void)designer_.fixed_budget(NodeArch::kConventional, 2002.0, 100.0),
      support::ContractViolation);
}

}  // namespace
}  // namespace polaris::hw
