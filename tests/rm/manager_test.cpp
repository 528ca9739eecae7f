// ResourceManager scheduling semantics.
//
// The load-bearing pin: with RmConfig::textbook(policy) the DES-service
// manager reproduces the analytic reference scheduler (reference/)
// job-for-job under all four policies — exactly at tick resolution on a
// whole-second multi-user trace, and within 1 us on a non-integral
// single-user trace shaped like the F7 experiment's.  Around it: EASY
// backfill strictly helps mean wait and never loses a job, conservative
// backfill completes everything, topology placement stays contiguous, the
// summary's metric definitions hold, and the tracer renders a job Gantt.
#include "polaris/rm/manager.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/sched/scheduler.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

// Integral-second times are exact in the tick domain; comparing ticks
// sidesteps the one-ulp noise of double<->tick round trips.
std::int64_t ticks(double seconds) { return des::from_seconds(seconds); }

std::vector<sched::Job> to_reference(const std::vector<JobSpec>& specs) {
  std::vector<sched::Job> jobs;
  jobs.reserve(specs.size());
  for (const JobSpec& s : specs) {
    sched::Job j;
    j.id = s.id;
    j.submit = s.submit;
    j.runtime = s.runtime;
    j.estimate = s.estimate;
    j.width = s.width;
    jobs.push_back(j);
  }
  return jobs;
}

std::vector<JobSpec> saturating_trace(std::size_t count, std::uint64_t seed) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = count;
  cfg.users = 8;
  cfg.accounts = 2;
  cfg.mean_interarrival = 60.0;
  cfg.max_width_exp = 5;  // widths <= 32 on a 64-node machine
  cfg.min_runtime = 60.0;
  cfg.max_runtime = 2.0 * 3600.0;
  cfg.integral_times = true;
  return workload::make_multi_user_trace(cfg, seed);
}

TEST(ResourceManagerTest, LegacyFcfsEquivalenceJobForJob) {
  const std::vector<JobSpec> specs = saturating_trace(400, 42);
  constexpr std::size_t kNodes = 64;

  std::vector<sched::Job> reference = to_reference(specs);
  const sched::SchedMetrics m =
      sched::run_scheduler(reference, kNodes, sched::Policy::kFcfs);
  ASSERT_EQ(m.jobs, specs.size());

  des::Engine engine;
  ResourceManager rm(engine, kNodes, RmConfig::textbook(Policy::kFcfs));
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();

  for (const sched::Job& j : reference) {
    const JobRecord* rec = rm.accounting().find(j.id);
    ASSERT_NE(rec, nullptr) << "job " << j.id;
    EXPECT_EQ(rec->state, JobState::kCompleted) << "job " << j.id;
    EXPECT_EQ(ticks(rec->start), ticks(j.start)) << "job " << j.id;
    EXPECT_EQ(ticks(rec->finish), ticks(j.finish)) << "job " << j.id;
  }
  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, specs.size());
  EXPECT_EQ(s.backfilled, 0u);
  EXPECT_EQ(rm.queue_depth(), 0u);
  EXPECT_EQ(rm.running_jobs(), 0u);
  EXPECT_NEAR(s.mean_wait, m.mean_wait, 1e-6);
  EXPECT_NEAR(s.mean_bounded_slowdown, m.mean_bounded_slowdown, 1e-6);
}

sched::Policy reference_policy(Policy p) {
  switch (p) {
    case Policy::kFcfs:
      return sched::Policy::kFcfs;
    case Policy::kSjf:
      return sched::Policy::kSjf;
    case Policy::kEasyBackfill:
      return sched::Policy::kEasyBackfill;
    case Policy::kConservative:
      return sched::Policy::kConservative;
  }
  return sched::Policy::kFcfs;
}

class ReferenceEquivalence : public ::testing::TestWithParam<Policy> {};

TEST_P(ReferenceEquivalence, NonIntegralTraceWithinOneMicrosecond) {
  // F7's shape — one user, widths up to the whole 128-node machine, offered
  // load ~0.8 — with times left non-integral, so ticks round every event.
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = 2000;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.mean_interarrival = 4400.0;
  const std::vector<JobSpec> specs = workload::make_multi_user_trace(cfg, 42);
  constexpr std::size_t kNodes = 128;

  std::vector<sched::Job> reference = to_reference(specs);
  const sched::SchedMetrics m =
      sched::run_scheduler(reference, kNodes, reference_policy(GetParam()));

  des::Engine engine;
  ResourceManager rm(engine, kNodes, RmConfig::textbook(GetParam()));
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();

  for (const sched::Job& j : reference) {
    const JobRecord* rec = rm.accounting().find(j.id);
    ASSERT_NE(rec, nullptr) << "job " << j.id;
    ASSERT_EQ(rec->state, JobState::kCompleted) << "job " << j.id;
    ASSERT_NEAR(rec->start, j.start, 1e-6) << "job " << j.id;
    ASSERT_NEAR(rec->finish, j.finish, 1e-6) << "job " << j.id;
  }
  const ResourceManager::Summary s = rm.summary();
  EXPECT_NEAR(s.utilization, m.utilization, 1e-9 * m.utilization);
  EXPECT_NEAR(s.mean_wait, m.mean_wait, 1e-9 * m.mean_wait);
  EXPECT_NEAR(s.mean_bounded_slowdown, m.mean_bounded_slowdown,
              1e-9 * m.mean_bounded_slowdown);
  // SJF counts a start as backfilled when the queue head waits; the
  // reference counts any start ahead of the oldest arrival.
  if (GetParam() != Policy::kSjf) {
    EXPECT_EQ(s.backfilled, m.backfilled);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReferenceEquivalence,
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

TEST(ResourceManagerTest, EasyBackfillImprovesMeanWait) {
  const std::vector<JobSpec> specs = saturating_trace(400, 42);
  constexpr std::size_t kNodes = 64;

  std::vector<sched::Job> reference = to_reference(specs);
  const sched::SchedMetrics fcfs =
      sched::run_scheduler(reference, kNodes, sched::Policy::kFcfs);

  des::Engine engine;
  ResourceManager rm(engine, kNodes, RmConfig::textbook(Policy::kEasyBackfill));
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();

  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, specs.size());
  EXPECT_GT(s.backfilled, 0u);
  EXPECT_LT(s.mean_wait, fcfs.mean_wait);
  EXPECT_GT(rm.backfill_cycles(), 0u);
}

TEST(ResourceManagerTest, ConservativeBackfillCompletesEverything) {
  const std::vector<JobSpec> specs = saturating_trace(300, 7);
  RmConfig cfg = RmConfig::textbook(Policy::kConservative);
  cfg.backfill_interval = 30.0;
  des::Engine engine;
  ResourceManager rm(engine, 64, cfg);
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();
  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, specs.size());
  EXPECT_GT(s.backfilled, 0u);
}

TEST(ResourceManagerTest, RateLimitedBackfillCoalescesCycles) {
  const std::vector<JobSpec> specs = saturating_trace(300, 7);
  auto run_with_interval = [&](double interval) {
    RmConfig cfg = RmConfig::textbook(Policy::kEasyBackfill);
    cfg.backfill_interval = interval;
    des::Engine engine;
    ResourceManager rm(engine, 64, cfg);
    for (const JobSpec& s : specs) rm.submit(s);
    engine.run();
    EXPECT_EQ(rm.summary().completed, specs.size());
    return rm.backfill_cycles();
  };
  const std::uint64_t eager = run_with_interval(0.0);
  const std::uint64_t limited = run_with_interval(300.0);
  EXPECT_LT(limited, eager);
  EXPECT_GT(limited, 0u);
}

JobSpec make_spec(JobId id, double submit, double runtime,
                  std::uint32_t width) {
  JobSpec s;
  s.id = id;
  s.submit = submit;
  s.runtime = runtime;
  s.estimate = runtime;
  s.width = width;
  return s;
}

ResourceManager::Summary run_fcfs(const std::vector<JobSpec>& specs,
                                  std::size_t nodes) {
  des::Engine engine;
  ResourceManager rm(engine, nodes, RmConfig::textbook(Policy::kFcfs));
  for (const JobSpec& s : specs) rm.submit(s);
  engine.run();
  return rm.summary();
}

TEST(JobMetrics, WaitAndSlowdown) {
  // One node: job 0 runs [0, 30); job 1 waits 30 s, then runs 50 s.
  const ResourceManager::Summary s =
      run_fcfs({make_spec(0, 0.0, 30.0, 1), make_spec(1, 0.0, 50.0, 1)}, 1);
  EXPECT_NEAR(s.mean_wait, 15.0, 1e-9);
  // Bounded slowdowns 30/30 = 1 and (30 + 50)/50 = 1.6.
  EXPECT_NEAR(s.mean_bounded_slowdown, 1.3, 1e-9);
}

TEST(JobMetrics, BoundedSlowdownUsesTenSecondFloor) {
  // Job 1 (1 s) waits 9 s: (9 + 1) / max(1, 10) = 1.  Job 0 (9 s) runs at
  // once: 9 / max(9, 10) = 0.9, which the summary clamps to 1.
  const ResourceManager::Summary s =
      run_fcfs({make_spec(0, 0.0, 9.0, 1), make_spec(1, 0.0, 1.0, 1)}, 1);
  EXPECT_NEAR(s.mean_bounded_slowdown, 1.0, 1e-12);
}

TEST(JobMetrics, MakespanStartsAtFirstSubmission) {
  // Nothing arrives before t=1000, so the machine is busy for the whole
  // makespan.
  const ResourceManager::Summary s =
      run_fcfs({make_spec(0, 1000.0, 100.0, 2)}, 2);
  EXPECT_NEAR(s.makespan, 100.0, 1e-9);
  EXPECT_NEAR(s.utilization, 1.0, 1e-9);
}

TEST(Gantt, ExportsScheduledJobsAsSpans) {
  des::Engine engine;
  obs::SimClock clock(engine);
  obs::Tracer tracer(clock);
  ResourceManager rm(engine, 8, RmConfig::textbook(Policy::kFcfs));
  rm.attach_tracer(tracer);
  rm.submit(make_spec(1, 0.0, 10.0, 4));
  rm.submit(make_spec(2, 5.0, 7.0, 2));  // overlaps job 1
  engine.run();

  std::size_t spans = 0, instants = 0;
  bool found = false;
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.kind == obs::EventKind::kInstant) {
      ++instants;  // one per submission
    } else if (ev.kind == obs::EventKind::kSpan) {
      ++spans;
      if (ev.name == "job 2") {
        // Seconds map to simulated nanoseconds.
        EXPECT_EQ(ev.start_ns, 5'000'000'000LL);
        EXPECT_EQ(ev.dur_ns, 7'000'000'000LL);
        found = true;
      }
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(instants, 2u);
  EXPECT_TRUE(found);

  // Overlapping jobs render on separate lanes of one Gantt track.
  std::ostringstream os;
  tracer.write_json(os);
  EXPECT_NE(os.str().find("rm ~1"), std::string::npos);
}

struct PlacementProbe {
  ResourceManager* rm;
  bool saw_contiguous = false;

  static void check_cb(void* ctx) {
    auto& p = *static_cast<PlacementProbe*>(ctx);
    for (JobId id = 1; id <= 4; ++id) {
      const Allocation* a = p.rm->allocation_of(id);
      ASSERT_NE(a, nullptr) << "job " << id << " not running";
      EXPECT_TRUE(a->contiguous());
      EXPECT_EQ(a->nodes.size(), 16u);
    }
    p.saw_contiguous = true;
  }
};

TEST(ResourceManagerTest, TopologyPlacementIsContiguous) {
  des::Engine engine;
  fabric::Torus2D topo(8, 8);
  RmConfig cfg;  // default placement: kTopology
  ResourceManager rm(engine, topo, cfg);
  for (JobId id = 1; id <= 4; ++id) {
    JobSpec s;
    s.id = id;
    s.submit = 0.0;
    s.runtime = 100.0;
    s.estimate = 100.0;
    s.width = 16;
    rm.submit(s);
  }
  PlacementProbe probe{&rm};
  engine.schedule_raw_at(des::from_seconds(1.0), &PlacementProbe::check_cb,
                         &probe);
  engine.run();
  EXPECT_TRUE(probe.saw_contiguous);
  const ResourceManager::Summary s = rm.summary();
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.fragmented_allocs, 0u);
  EXPECT_EQ(rm.allocation_of(1), nullptr);  // released after completion
}

}  // namespace
}  // namespace polaris::rm
