#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/young.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace polaris::fault {
namespace {

TEST(Intervals, YoungFormula) {
  CheckpointConfig c;
  c.checkpoint_cost = 200.0;
  c.system_mtbf = 10000.0;
  EXPECT_DOUBLE_EQ(young_interval(c), std::sqrt(2.0 * 200.0 * 10000.0));
}

TEST(Intervals, DalyCloseToYoungWhenMtbfLarge) {
  CheckpointConfig c;
  c.checkpoint_cost = 60.0;
  c.system_mtbf = 1e6;
  EXPECT_NEAR(daly_interval(c) / young_interval(c), 1.0, 0.02);
}

TEST(Intervals, DalyFallsBackWhenDeltaHuge) {
  CheckpointConfig c;
  c.checkpoint_cost = 5000.0;
  c.system_mtbf = 1000.0;  // delta > 2M
  EXPECT_DOUBLE_EQ(daly_interval(c), 1000.0);
}

TEST(Efficiency, OptimalIntervalMaximizesAnalyticEfficiency) {
  CheckpointConfig c;
  c.checkpoint_cost = 300.0;
  c.restart_cost = 120.0;
  c.system_mtbf = 20000.0;
  const double tau = daly_interval(c);
  const double best = analytic_efficiency(c, tau);
  for (double f : {0.25, 0.5, 2.0, 4.0}) {
    EXPECT_GE(best + 1e-3, analytic_efficiency(c, tau * f)) << f;
  }
}

TEST(Efficiency, DegradesAsMtbfShrinks) {
  CheckpointConfig big, small;
  big.system_mtbf = 100000.0;
  small.system_mtbf = 2000.0;
  EXPECT_GT(optimal_efficiency(big), optimal_efficiency(small));
}

TEST(Efficiency, SimulationAgreesWithAnalyticInHealthyRegime) {
  CheckpointConfig c;
  c.checkpoint_cost = 300.0;
  c.restart_cost = 120.0;
  c.system_mtbf = 50000.0;
  const double tau = daly_interval(c);
  const double analytic = analytic_efficiency(c, tau);
  const double sim = simulate_efficiency(c, tau, 5e7, /*seed=*/13);
  EXPECT_NEAR(sim, analytic, 0.03);
}

TEST(Efficiency, SimulatedOptimumNearDaly) {
  CheckpointConfig c;
  c.checkpoint_cost = 300.0;
  c.restart_cost = 120.0;
  c.system_mtbf = 20000.0;
  const double tau = daly_interval(c);
  const double at_daly = simulate_efficiency(c, tau, 2e7, 17);
  EXPECT_GT(at_daly, simulate_efficiency(c, tau / 8.0, 2e7, 17) - 0.01);
  EXPECT_GT(at_daly, simulate_efficiency(c, tau * 8.0, 2e7, 17) - 0.01);
}

TEST(ScaleOutcome, SystemMtbfFallsWithScale) {
  const auto small = wall_time_at_scale(86400.0, 10.0 * 365 * 86400.0, 100,
                                        300.0, 120.0);
  const auto big = wall_time_at_scale(86400.0, 10.0 * 365 * 86400.0, 10000,
                                      300.0, 120.0);
  EXPECT_NEAR(small.system_mtbf_s / big.system_mtbf_s, 100.0, 1e-6);
}

TEST(ScaleOutcome, NoCheckpointCollapsesAtScaleDalySurvives) {
  // 24h job, 10-year node MTBF, 10k nodes: system MTBF ~8.8h.
  const double work = 86400.0;
  const double node_mtbf = 10.0 * 365 * 86400.0;
  const auto out = wall_time_at_scale(work, node_mtbf, 10000, 300.0, 120.0);
  // Without checkpointing the expected wall time balloons (e^{~2.7}).
  EXPECT_GT(out.no_checkpoint_wall, 3.0 * work);
  // Daly checkpointing keeps the stretch modest.
  EXPECT_LT(out.daly_wall, 1.5 * work);
}

TEST(ScaleOutcome, SmallMachineBarelyAffected) {
  const auto out = wall_time_at_scale(86400.0, 10.0 * 365 * 86400.0, 64,
                                      300.0, 120.0);
  EXPECT_LT(out.no_checkpoint_wall, 1.2 * 86400.0);
  EXPECT_LT(out.daly_wall, 1.1 * 86400.0);
}

TEST(Efficiency, ExtremeScaleEfficiencyApproachesZero) {
  // The talk's warning quantified: at 100k nodes with a 1-year node MTBF,
  // the system fails every ~5 minutes and even optimal checkpointing at
  // 5-minute checkpoint cost gets almost no work through.
  CheckpointConfig c;
  c.checkpoint_cost = 300.0;
  c.restart_cost = 120.0;
  c.system_mtbf = 365.0 * 86400.0 / 100000.0;  // ~315 s
  EXPECT_LT(optimal_efficiency(c), 0.05);
}

}  // namespace
}  // namespace polaris::fault
