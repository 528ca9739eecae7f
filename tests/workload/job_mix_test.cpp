// The multi-user job-mix generator: determinism, ranges, arrival rate,
// width bias, offered load, and the single-user stream that F7 replays.
#include "polaris/workload/job_mix.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

namespace polaris::workload {
namespace {

MultiUserTraceConfig single_user(std::size_t jobs) {
  MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  return cfg;
}

TEST(TraceGenerator, DeterministicForSeed) {
  MultiUserTraceConfig cfg;
  cfg.jobs = 100;
  const auto a = make_multi_user_trace(cfg, 42);
  const auto b = make_multi_user_trace(cfg, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit, b[i].submit);
    EXPECT_EQ(a[i].width, b[i].width);
    EXPECT_EQ(a[i].runtime, b[i].runtime);
    EXPECT_EQ(a[i].user, b[i].user);
  }
}

TEST(TraceGenerator, ArrivalsAreMonotone) {
  const auto jobs = make_multi_user_trace({}, 1);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].submit, jobs[i - 1].submit);
    EXPECT_EQ(jobs[i].id, i);
  }
}

TEST(TraceGenerator, FieldsWithinConfiguredRanges) {
  MultiUserTraceConfig cfg;
  cfg.jobs = 5000;
  cfg.min_width_exp = 1;
  cfg.max_width_exp = 5;
  cfg.min_runtime = 10.0;
  cfg.max_runtime = 1000.0;
  cfg.max_overestimate = 3.0;
  const auto jobs = make_multi_user_trace(cfg, 7);
  for (const rm::JobSpec& j : jobs) {
    EXPECT_GE(j.width, 1u);
    EXPECT_LE(j.width, 32u);
    EXPECT_GE(j.runtime, 10.0 - 1e-9);
    EXPECT_LE(j.runtime, 1000.0 + 1e-6);
    EXPECT_GE(j.estimate, j.runtime - 1e-9);
    EXPECT_LE(j.estimate, 3.0 * j.runtime + 1e-6);
    EXPECT_LT(j.user, cfg.users);
    EXPECT_EQ(j.account, j.user % cfg.accounts);
  }
}

TEST(TraceGenerator, MeanInterarrivalRoughlyMatches) {
  MultiUserTraceConfig cfg = single_user(20000);
  cfg.mean_interarrival = 30.0;
  const auto jobs = make_multi_user_trace(cfg, 3);
  const double span = jobs.back().submit - jobs.front().submit;
  EXPECT_NEAR(span / static_cast<double>(cfg.jobs - 1), 30.0, 1.5);
}

TEST(TraceGenerator, PowerOfTwoBias) {
  MultiUserTraceConfig cfg = single_user(10000);
  cfg.p_power_of_two = 1.0;
  const auto jobs = make_multi_user_trace(cfg, 9);
  for (const rm::JobSpec& j : jobs) {
    EXPECT_EQ(j.width & (j.width - 1), 0u) << j.width;
  }
}

TEST(TraceGenerator, SingleUserStreamPinsF7Trace) {
  // F7's 128-node grid trace.  One user draws nothing per job beyond the
  // Feitelson fields, so these are the values the F7 experiment has always
  // replayed.
  MultiUserTraceConfig cfg = single_user(10000);
  cfg.mean_interarrival = 4400.0;
  const auto jobs = make_multi_user_trace(cfg, 42);
  struct Pin {
    double submit;
    std::uint32_t width;
    double runtime;
    double estimate;
  };
  const Pin pins[] = {
      {385.39305456703732, 32, 49965.100536247563, 248187.42969364408},
      {6846.9859085480202, 64, 15235.178180043791, 50784.900880263122},
      {11894.353638350418, 64, 621.27760292907658, 2388.5637353210036},
      {21142.397270244495, 64, 10299.603996474771, 39461.049173739353},
  };
  for (std::size_t i = 0; i < std::size(pins); ++i) {
    EXPECT_EQ(jobs[i].submit, pins[i].submit) << "job " << i;
    EXPECT_EQ(jobs[i].width, pins[i].width) << "job " << i;
    EXPECT_EQ(jobs[i].runtime, pins[i].runtime) << "job " << i;
    EXPECT_EQ(jobs[i].estimate, pins[i].estimate) << "job " << i;
    EXPECT_EQ(jobs[i].user, 0u);
  }
  EXPECT_EQ(jobs.back().submit, 43987836.270093672);
  EXPECT_EQ(jobs.back().runtime, 2915.3934241731986);
}

TEST(OfferedLoad, ScalesInverselyWithNodes) {
  const auto jobs = make_multi_user_trace({}, 5);
  const double l128 = offered_load(jobs, 128);
  const double l256 = offered_load(jobs, 256);
  EXPECT_NEAR(l128 / l256, 2.0, 1e-9);
}

}  // namespace
}  // namespace polaris::workload
