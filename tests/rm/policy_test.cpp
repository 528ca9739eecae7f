// Queue policies on hand-built cases and synthetic traces.
//
// FCFS blocks behind a wide head; EASY backfills only what cannot delay
// the head (or what fits on the nodes the head leaves spare); SJF lets a
// short job jump the queue; conservative backfills only what delays no
// earlier reservation.  All run under RmConfig::textbook(policy).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/check.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

std::int64_t ticks(double seconds) { return des::from_seconds(seconds); }

JobSpec make_job(JobId id, double submit, double runtime, std::uint32_t width,
                 double estimate = 0.0) {
  JobSpec j;
  j.id = id;
  j.submit = submit;
  j.runtime = runtime;
  j.width = width;
  j.estimate = estimate > 0.0 ? estimate : runtime;
  return j;
}

struct Replay {
  std::vector<JobRecord> jobs;  ///< by id; ids are 0..n-1
  ResourceManager::Summary summary;
};

Replay replay(const std::vector<JobSpec>& specs, std::size_t nodes,
              Policy policy) {
  des::Engine engine;
  ResourceManager rm(engine, nodes, RmConfig::textbook(policy));
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();
  return {rm.accounting().query({}), rm.summary()};
}

std::vector<JobSpec> synthetic_trace(std::size_t jobs, double interarrival,
                                     std::uint64_t seed) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.max_width_exp = 6;  // <= 64 nodes
  cfg.mean_interarrival = interarrival;
  return workload::make_multi_user_trace(cfg, seed);
}

/// No two concurrently running jobs may exceed the node count.
void check_capacity(const std::vector<JobRecord>& jobs, std::size_t nodes) {
  for (const JobRecord& a : jobs) {
    ASSERT_EQ(a.state, JobState::kCompleted) << "job " << a.id << " never ran";
    ASSERT_GE(a.start, a.submit - 1e-6);  // starts are tick-rounded
    std::size_t used = 0;
    for (const JobRecord& b : jobs) {
      if (b.start <= a.start && a.start < b.finish) used += b.width;
    }
    ASSERT_LE(used, nodes) << "capacity exceeded at t=" << a.start;
  }
}

TEST(Fcfs, RunsJobsInOrderWhenSerial) {
  const Replay r = replay(
      {make_job(0, 0, 100, 4),
       make_job(1, 1, 100, 4),
       make_job(2, 2, 100, 4)},
      4, Policy::kFcfs);
  EXPECT_EQ(ticks(r.jobs[0].start), ticks(0.0));
  EXPECT_EQ(ticks(r.jobs[1].start), ticks(100.0));
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(200.0));
}

TEST(Fcfs, ParallelWhenTheyFit) {
  const Replay r = replay(
      {make_job(0, 0, 100, 2),
       make_job(1, 0, 100, 2)},
      4, Policy::kFcfs);
  EXPECT_EQ(ticks(r.jobs[1].start), ticks(0.0));
  EXPECT_NEAR(r.summary.makespan, 100.0, 1e-9);
}

TEST(Fcfs, HeadOfLineBlocking) {
  // Wide head job blocks a narrow later job even though nodes are free.
  const Replay r = replay(
      {make_job(0, 0, 100, 4),  // runs 0-100
       make_job(1, 1, 100, 4),  // needs all nodes: waits
       make_job(2, 2, 10, 1)},  // could run but FCFS blocks
      4, Policy::kFcfs);
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(200.0));  // after both wide jobs
}

TEST(EasyBackfill, BackfillsNarrowShortJob) {
  // All 4 nodes are busy until t=100, when the head takes all of them, so
  // the narrow job finds no free node until t=200.
  const Replay r = replay(
      {make_job(0, 0, 100, 4),
       make_job(1, 1, 100, 4),
       make_job(2, 2, 10, 1)},
      4, Policy::kEasyBackfill);
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(200.0));
}

TEST(EasyBackfill, BackfillUsesIdleNodesWithoutDelayingHead) {
  const Replay r = replay(
      {make_job(0, 0, 100, 3),  // 3 nodes busy 0-100, 1 free
       make_job(1, 1, 100, 4),  // head: must wait for t=100
       make_job(2, 2, 50, 1)},  // ends at 52 <= 100: backfill
      4, Policy::kEasyBackfill);
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(2.0));
  EXPECT_EQ(ticks(r.jobs[1].start), ticks(100.0));
  EXPECT_EQ(r.summary.backfilled, 1u);
  check_capacity(r.jobs, 4);
}

TEST(EasyBackfill, RefusesBackfillThatWouldDelayHead) {
  // At the shadow (100) the head needs all 4 nodes, so extra = 0, and job
  // 2's estimate crosses the shadow: refused.
  const Replay r = replay(
      {make_job(0, 0, 100, 3),
       make_job(1, 1, 100, 4),
       make_job(2, 2, 500, 1)},
      4, Policy::kEasyBackfill);
  EXPECT_GT(r.jobs[2].start, 99.0);
  check_capacity(r.jobs, 4);
}

TEST(EasyBackfill, BackfillOnExtraNodesMayCrossShadow) {
  const Replay r = replay(
      {make_job(0, 0, 100, 2),  // 2 busy, 2 free
       make_job(1, 1, 100, 3),  // head: waits for t=100
       make_job(2, 2, 500, 1)},  // extra = 4 - 3 = 1: may cross
      4, Policy::kEasyBackfill);
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(2.0));
  EXPECT_EQ(ticks(r.jobs[1].start), ticks(100.0));  // head NOT delayed
  check_capacity(r.jobs, 4);
}

TEST(Sjf, PrefersShortJobs) {
  const Replay r = replay(
      {make_job(0, 0, 100, 4),  // running 0-100
       make_job(1, 1, 300, 4),
       make_job(2, 2, 10, 4)},
      4, Policy::kSjf);
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(100.0));  // jumps the queue
  EXPECT_EQ(ticks(r.jobs[1].start), ticks(110.0));
}

TEST(Scheduler, RejectsJobWiderThanCluster) {
  des::Engine engine;
  ResourceManager rm(engine, 4, RmConfig::textbook(Policy::kFcfs));
  EXPECT_THROW(rm.submit(make_job(0, 0, 10, 100)), support::ContractViolation);
}

TEST(Scheduler, EmptyTraceYieldsZeroMetrics) {
  const Replay r = replay({}, 4, Policy::kFcfs);
  EXPECT_EQ(r.summary.jobs, 0u);
  EXPECT_EQ(r.summary.makespan, 0.0);
  EXPECT_EQ(r.summary.utilization, 0.0);
}

class PolicyComparison : public ::testing::TestWithParam<Policy> {};

TEST_P(PolicyComparison, SyntheticTraceRunsToCompletionWithinCapacity) {
  // Offered load ~0.9 on 128 nodes.
  const Replay r = replay(synthetic_trace(2000, 1250.0, 11), 128, GetParam());
  EXPECT_EQ(r.summary.completed, 2000u);
  EXPECT_GT(r.summary.utilization, 0.0);
  EXPECT_LE(r.summary.utilization, 1.0 + 1e-9);
  check_capacity(r.jobs, 128);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyComparison,
                         ::testing::Values(Policy::kFcfs, Policy::kSjf,
                                           Policy::kEasyBackfill,
                                           Policy::kConservative),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(PolicyShape, BackfillBeatsFcfsUnderLoad) {
  // The headline scheduler result: at high offered load EASY sustains
  // lower waits and slowdowns than plain FCFS.
  const std::vector<JobSpec> trace = synthetic_trace(4000, 45.0, 23);
  const ResourceManager::Summary fcfs =
      replay(trace, 128, Policy::kFcfs).summary;
  const ResourceManager::Summary easy =
      replay(trace, 128, Policy::kEasyBackfill).summary;
  EXPECT_LT(easy.mean_wait, fcfs.mean_wait);
  EXPECT_LT(easy.mean_bounded_slowdown, fcfs.mean_bounded_slowdown);
  EXPECT_GE(easy.utilization, fcfs.utilization - 1e-9);
  EXPECT_GT(easy.backfilled, 0u);
}

TEST(Conservative, BackfillsWithoutDelayingAnyReservation) {
  // Same scenario as EASY's idle-node case: conservative must also
  // backfill the narrow job (it delays nobody).
  const Replay r = replay(
      {make_job(0, 0, 100, 3),  // 3 busy 0-100, 1 free
       make_job(1, 1, 100, 4),  // reserved at t=100
       make_job(2, 2, 50, 1)},  // ends at 52 <= 100: safe
      4, Policy::kConservative);
  EXPECT_EQ(ticks(r.jobs[2].start), ticks(2.0));
  EXPECT_EQ(ticks(r.jobs[1].start), ticks(100.0));
  EXPECT_EQ(r.summary.backfilled, 1u);
  check_capacity(r.jobs, 4);
}

TEST(Conservative, RefusesBackfillThatDelaysLaterReservation) {
  // Job 2 would fit now on the idle node, but running it for 500 s would
  // push job 1's reservation (the idle node at t=100) back.
  const Replay r = replay(
      {make_job(0, 0, 100, 3),
       make_job(1, 1, 100, 4),  // head: reserved at 100
       make_job(2, 2, 500, 1)},  // would cross the reservation
      4, Policy::kConservative);
  EXPECT_GT(r.jobs[2].start, 99.0);
  check_capacity(r.jobs, 4);
}

TEST(Conservative, NeverWorseThanFcfsOnWaits) {
  // Offered load ~0.8 on 128 nodes.
  const std::vector<JobSpec> trace = synthetic_trace(1500, 1400.0, 31);
  const ResourceManager::Summary fcfs =
      replay(trace, 128, Policy::kFcfs).summary;
  const ResourceManager::Summary cons =
      replay(trace, 128, Policy::kConservative).summary;
  EXPECT_LE(cons.mean_wait, fcfs.mean_wait * 1.001);
  EXPECT_GE(cons.utilization, fcfs.utilization - 1e-9);
}

TEST(Conservative, EasyUsuallyBackfillsAtLeastAsMuch) {
  const std::vector<JobSpec> trace = synthetic_trace(1500, 1400.0, 33);
  const ResourceManager::Summary easy =
      replay(trace, 128, Policy::kEasyBackfill).summary;
  const ResourceManager::Summary cons =
      replay(trace, 128, Policy::kConservative).summary;
  // EASY's weaker guarantee admits more backfills.
  EXPECT_GE(easy.backfilled + 50, cons.backfilled);
}

}  // namespace
}  // namespace polaris::rm
