// Fault integration: node crashes flow from the Injector (or the direct
// node_failed API) into the resource manager, which requeues the owning
// job, drains the node, and re-places the work once capacity returns.  A
// checkpointing job keeps its completed intervals across the requeue.
// Same-seed reruns must produce byte-identical accounting ledgers.
#include <gtest/gtest.h>

#include <cstdint>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

std::int64_t ticks(double seconds) { return des::from_seconds(seconds); }

TEST(FaultRequeueTest, CrashRequeuesOwningJobUntilRepair) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);

  RmConfig cfg;
  cfg.policy = Policy::kFcfs;
  ResourceManager rm(engine, topo, cfg);
  rm.attach_injector(injector);

  // Four jobs fill the 16-node machine.
  for (JobId id = 0; id < 4; ++id) {
    JobSpec s;
    s.id = id;
    s.submit = 0.0;
    s.runtime = 1000.0;
    s.estimate = 1000.0;
    s.width = 4;
    rm.submit(s);
  }
  injector.schedule_node_crash(/*at=*/100.0, /*node=*/0,
                               /*repair_after=*/50.0);
  engine.run();

  const AccountingStore::Totals t = rm.accounting().totals();
  EXPECT_EQ(t.jobs, 4u);
  EXPECT_EQ(t.completed, 4u);
  EXPECT_EQ(t.requeues, 1u);

  // Exactly one victim: it lost 4 nodes x 100 s, then had to wait for the
  // repair (free nodes: 3 of its own 4 until the crashed one returns).
  const JobRecord* victim = nullptr;
  for (const JobRecord& r : rm.accounting().query({})) {
    if (r.requeues > 0) {
      ASSERT_EQ(victim, nullptr) << "more than one requeued job";
      victim = rm.accounting().find(r.id);
    }
  }
  ASSERT_NE(victim, nullptr);
  EXPECT_NEAR(victim->wasted_node_seconds, 400.0, 1e-9);
  EXPECT_EQ(ticks(victim->start), ticks(150.0));
  EXPECT_EQ(ticks(victim->finish), ticks(1150.0));
  EXPECT_EQ(rm.summary().requeues, 1u);
  EXPECT_EQ(rm.allocator().drained_count(), 0u);  // repaired
}

struct NodeEvent {
  ResourceManager* rm;
  fabric::NodeId node;

  static void fail_cb(void* ctx) {
    auto& e = *static_cast<NodeEvent*>(ctx);
    e.rm->node_failed(e.node);
  }
  static void repair_cb(void* ctx) {
    auto& e = *static_cast<NodeEvent*>(ctx);
    e.rm->node_repaired(e.node);
  }
};

TEST(FaultRequeueTest, DirectNodeFailedApiWithoutInjector) {
  des::Engine engine;
  ResourceManager rm(engine, 8, RmConfig::textbook(Policy::kFcfs));
  JobSpec s;
  s.id = 1;
  s.submit = 0.0;
  s.runtime = 1000.0;
  s.estimate = 1000.0;
  s.width = 8;
  rm.submit(s);

  NodeEvent ev{&rm, 3};
  engine.schedule_raw_at(des::from_seconds(100.0), &NodeEvent::fail_cb, &ev);
  engine.schedule_raw_at(des::from_seconds(200.0), &NodeEvent::repair_cb,
                         &ev);
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_EQ(rec->requeues, 1u);
  EXPECT_NEAR(rec->wasted_node_seconds, 800.0, 1e-9);  // 8 nodes x 100 s
  EXPECT_EQ(ticks(rec->start), ticks(200.0));  // needs all 8 nodes back
  EXPECT_EQ(ticks(rec->finish), ticks(1200.0));
  EXPECT_EQ(rm.allocator().drained_count(), 0u);
}

TEST(FaultRequeueTest, CheckpointedJobKeepsCompletedIntervals) {
  des::Engine engine;
  ResourceManager rm(engine, 1, RmConfig::textbook(Policy::kFcfs));
  JobSpec s;
  s.id = 1;
  s.runtime = 1000.0;
  s.estimate = 1000.0;
  s.checkpoint_interval = 100.0;
  s.checkpoint_cost = 10.0;  // the run lasts 1000 * 1.1 = 1100 s
  rm.submit(s);

  NodeEvent ev{&rm, 0};
  engine.schedule_raw_at(des::from_seconds(250.0), &NodeEvent::fail_cb, &ev);
  engine.schedule_raw_at(des::from_seconds(300.0), &NodeEvent::repair_cb,
                         &ev);
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_EQ(rec->requeues, 1u);
  // Two 110 s segments were saved by t=250; the 30 s after them are lost.
  EXPECT_NEAR(rec->wasted_node_seconds, 30.0, 1e-9);
  // The remaining 800 s of work take 880 s from the repair at t=300.
  EXPECT_EQ(ticks(rec->start), ticks(300.0));
  EXPECT_EQ(ticks(rec->finish), ticks(1180.0));
}

TEST(FaultRequeueTest, SjfVictimResumesAheadOfEqualEstimates) {
  // Under SJF a requeued job returns in estimate order, ahead of the
  // waiting jobs whose estimate equals its own.
  des::Engine engine;
  ResourceManager rm(engine, 1, RmConfig::textbook(Policy::kSjf));
  for (JobId id = 0; id < 2; ++id) {
    JobSpec s;
    s.id = id;
    s.submit = static_cast<double>(id);
    s.runtime = 100.0;
    s.estimate = 100.0;
    rm.submit(s);
  }

  NodeEvent ev{&rm, 0};
  engine.schedule_raw_at(des::from_seconds(50.0), &NodeEvent::fail_cb, &ev);
  engine.schedule_raw_at(des::from_seconds(60.0), &NodeEvent::repair_cb, &ev);
  engine.run();

  EXPECT_EQ(ticks(rm.accounting().find(0)->start), ticks(60.0));
  EXPECT_EQ(ticks(rm.accounting().find(1)->start), ticks(160.0));
}

TEST(FaultRequeueTest, PermanentCrashDrainsNodeForGood) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  RmConfig cfg;
  cfg.policy = Policy::kFcfs;
  ResourceManager rm(engine, topo, cfg);
  rm.attach_injector(injector);

  JobSpec s;
  s.id = 1;
  s.submit = 0.0;
  s.runtime = 500.0;
  s.estimate = 500.0;
  s.width = 8;  // half the machine: a replacement block exists
  rm.submit(s);
  injector.schedule_node_crash(/*at=*/100.0, /*node=*/0,
                               /*repair_after=*/0.0);  // permanent
  engine.run();

  const JobRecord* rec = rm.accounting().find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_EQ(rec->requeues, 1u);
  // Replacement allocation happens immediately on the surviving nodes.
  EXPECT_EQ(ticks(rec->start), ticks(100.0));
  EXPECT_EQ(ticks(rec->finish), ticks(600.0));
  EXPECT_EQ(rm.allocator().drained_count(), 1u);
  for (const fabric::NodeId nd : {fabric::NodeId{0}}) {
    EXPECT_TRUE(rm.allocator().drained(nd));
  }
}

// completed_jobs() is the O(1) counter the scenario probes read; it must
// agree with the ledger summary() aggregates at every instant, requeues
// included.  The run mirrors rack-power-loss: 12 four-wide jobs on 16
// nodes, a 4-node rack down from 5 s to 35 s, sampled every 50 ms.
TEST(FaultRequeueTest, CompletedJobsMatchesSummaryAtEveryTick) {
  des::Engine engine;
  fabric::Crossbar topo(16);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  ResourceManager rm(engine, topo);
  rm.attach_injector(injector);
  for (JobId id = 0; id < 12; ++id) {
    JobSpec s;
    s.id = id;
    s.submit = static_cast<double>(id);
    s.runtime = 20.0;
    s.width = 4;
    rm.submit(s);
  }
  for (fabric::NodeId node = 4; node < 8; ++node) {
    injector.schedule_node_crash(/*at=*/5.0, node, /*repair_after=*/30.0);
  }

  struct Sampler {
    des::Engine* engine;
    ResourceManager* rm;
    std::uint64_t ticks = 0;
    std::uint64_t mismatches = 0;
    static void tick_cb(void* ctx) {
      auto& s = *static_cast<Sampler*>(ctx);
      ++s.ticks;
      if (s.rm->completed_jobs() != s.rm->summary().completed) ++s.mismatches;
      if (s.rm->completed_jobs() < 12) {
        s.engine->schedule_raw_after(des::from_seconds(0.05), &tick_cb, ctx);
      }
    }
  } sampler{&engine, &rm};
  engine.schedule_raw_at(0, &Sampler::tick_cb, &sampler);
  engine.run();

  EXPECT_EQ(sampler.mismatches, 0u);
  EXPECT_GT(sampler.ticks, 1000u);
  EXPECT_EQ(rm.completed_jobs(), 12u);
  EXPECT_GE(rm.summary().requeues, 1u);
}

struct RunResult {
  std::uint64_t fingerprint = 0;
  AccountingStore::Totals totals;
  std::uint64_t requeues = 0;
};

RunResult crashy_run(std::uint64_t seed) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);

  RmConfig cfg;
  cfg.backfill_interval = 15.0;
  ResourceManager rm(engine, topo, cfg);
  rm.attach_injector(injector);

  workload::MultiUserTraceConfig tc;
  tc.jobs = 120;
  tc.users = 4;
  tc.accounts = 2;
  tc.mean_interarrival = 200.0;
  tc.max_width_exp = 3;  // widths <= 8 on 16 nodes
  tc.min_runtime = 100.0;
  tc.max_runtime = 2000.0;
  for (const JobSpec& s : workload::make_multi_user_trace(tc, seed)) {
    rm.submit(s);
  }
  // Repeated crashes sweeping across the machine, each repaired later so
  // the widest jobs can always eventually run.
  for (int i = 0; i < 6; ++i) {
    injector.schedule_node_crash(500.0 + 2500.0 * i,
                                 static_cast<std::uint32_t>((i * 5) % 16),
                                 /*repair_after=*/250.0);
  }
  engine.run();

  RunResult out;
  out.fingerprint = rm.accounting().fingerprint();
  out.totals = rm.accounting().totals();
  out.requeues = rm.summary().requeues;
  return out;
}

TEST(FaultRequeueTest, SameSeedRunsProduceIdenticalLedgers) {
  const RunResult a = crashy_run(2002);
  const RunResult b = crashy_run(2002);
  EXPECT_EQ(a.totals.jobs, 120u);
  EXPECT_EQ(a.totals.completed, 120u);  // every requeued job finishes
  EXPECT_GE(a.requeues, 1u);            // the crashes did land on work
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.totals.requeues, b.totals.requeues);
  EXPECT_EQ(a.totals.wasted_node_seconds, b.totals.wasted_node_seconds);

  const RunResult c = crashy_run(2003);
  EXPECT_NE(a.fingerprint, c.fingerprint);  // different seed, different run
}

}  // namespace
}  // namespace polaris::rm
