// Scheduling on a failing machine: per-job checkpoints and goodput.
//
// Node crashes come from a seeded FailureTimeline through fault::Injector.
// A crash kills the job on the node; a checkpointing job keeps its
// completed intervals and is charged only the segment in progress, while a
// job without checkpoints restarts from scratch.  Goodput is the trace's
// work over the machine's capacity for the makespan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/check.hpp"
#include "polaris/workload/job_mix.hpp"

namespace polaris::rm {
namespace {

std::vector<JobSpec> trace(std::size_t jobs, double interarrival,
                           double min_runtime, double max_runtime,
                           std::uint64_t seed) {
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = jobs;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.max_width_exp = 5;  // <= 32 nodes
  cfg.mean_interarrival = interarrival;
  cfg.min_runtime = min_runtime;
  cfg.max_runtime = max_runtime;
  return workload::make_multi_user_trace(cfg, seed);
}

std::vector<JobSpec> small_trace(std::size_t jobs, double interarrival,
                                 std::uint64_t seed) {
  return trace(jobs, interarrival, 600.0, 4.0 * 3600.0, seed);
}

struct FaultRun {
  std::uint64_t crashes = 0;
  AccountingStore::Totals totals;
  std::uint64_t fingerprint = 0;
  double goodput = 0.0;  ///< trace work / (nodes * makespan)
  double busy = 0.0;     ///< (final runs + waste) / (nodes * makespan)
};

/// EASY backfill on `nodes` nodes whose crashes (1 h repair) follow an
/// exponential node MTBF.  With `checkpointing` every job writes 300 s
/// checkpoints at the Daly interval for its own width.
FaultRun run_failing(std::vector<JobSpec> jobs, std::uint32_t nodes,
                     double node_mtbf, bool checkpointing) {
  des::Engine engine;
  fabric::Crossbar topo(nodes);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  ResourceManager rm(engine, nodes, RmConfig::textbook(Policy::kEasyBackfill));
  rm.attach_injector(injector);

  double work = 0.0;
  for (JobSpec& j : jobs) {
    if (checkpointing) {
      fault::CheckpointConfig cc;
      cc.system_mtbf = fault::system_mtbf_exponential(node_mtbf, j.width);
      j.checkpoint_interval = fault::daly_interval(cc);
      j.checkpoint_cost = cc.checkpoint_cost;
    }
    work += j.runtime * j.width;
    rm.submit(j);
  }
  fault::FailureTimeline timeline(fault::FailureModel::exponential(node_mtbf),
                                  nodes, /*seed=*/2002);
  // Crashes are loaded a day at a time until the last job completes.
  for (double horizon = 86400.0;
       rm.accounting().totals().completed < jobs.size(); horizon += 86400.0) {
    injector.load_node_timeline(timeline, horizon, /*repair_after=*/3600.0);
    engine.run_until(des::from_seconds(horizon));
  }

  FaultRun out;
  out.crashes = injector.crashes();
  out.totals = rm.accounting().totals();
  out.fingerprint = rm.accounting().fingerprint();
  const double capacity = nodes * rm.summary().makespan;
  out.goodput = work / capacity;
  out.busy =
      (out.totals.node_seconds + out.totals.wasted_node_seconds) / capacity;
  return out;
}

TEST(FaultAware, NoFailuresMatchesPlainScheduling) {
  // With an astronomically reliable machine the failing-machine run is
  // plain EASY backfill: zero kills, no waste, the same ledger.
  const std::vector<JobSpec> jobs = small_trace(300, 400.0, 1);
  const FaultRun m = run_failing(jobs, 64, 1e15, /*checkpointing=*/false);

  des::Engine engine;
  ResourceManager plain(engine, 64, RmConfig::textbook(Policy::kEasyBackfill));
  for (const JobSpec& j : jobs) plain.submit(j);
  engine.run();

  EXPECT_EQ(m.crashes, 0u);
  EXPECT_EQ(m.totals.completed, 300u);
  EXPECT_EQ(m.totals.requeues, 0u);
  EXPECT_EQ(m.totals.wasted_node_seconds, 0.0);
  EXPECT_NEAR(m.goodput, m.busy, 1e-9);
  EXPECT_EQ(m.fingerprint, plain.accounting().fingerprint());
}

TEST(FaultAware, AllJobsEventuallyComplete) {
  const FaultRun m = run_failing(small_trace(200, 500.0, 2), 64,
                                 30.0 * 86400.0,  // monthly node failures
                                 /*checkpointing=*/false);
  EXPECT_EQ(m.totals.completed, 200u);
  EXPECT_GT(m.crashes, 0u);
  EXPECT_GT(m.goodput, 0.0);
  EXPECT_LE(m.goodput, 1.0);
}

TEST(FaultAware, FailuresCreateWaste) {
  const FaultRun m = run_failing(small_trace(200, 500.0, 3), 64,
                                 20.0 * 86400.0, /*checkpointing=*/false);
  EXPECT_GT(m.totals.requeues, 0u);
  EXPECT_GT(m.totals.wasted_node_seconds, 0.0);
  EXPECT_LT(m.goodput, m.busy);
}

TEST(FaultAware, CheckpointingImprovesGoodputUnderHeavyFailures) {
  // Long jobs + failing nodes: restart-from-scratch hemorrhages work;
  // Daly checkpointing recovers most of it.
  const std::vector<JobSpec> jobs =
      trace(120, 1500.0, 6.0 * 3600.0, 24.0 * 3600.0, 4);
  constexpr double kMtbf = 60.0 * 86400.0;  // ~1 failure/day on 64 nodes
  const FaultRun naked = run_failing(jobs, 64, kMtbf, false);
  const FaultRun ckpt = run_failing(jobs, 64, kMtbf, true);

  EXPECT_GT(naked.totals.requeues, 0u);
  EXPECT_GT(ckpt.goodput, naked.goodput);
  EXPECT_LT(ckpt.totals.wasted_node_seconds, naked.totals.wasted_node_seconds);
}

TEST(FaultAware, DeterministicForSeed) {
  const std::vector<JobSpec> jobs = small_trace(100, 600.0, 5);
  const FaultRun a = run_failing(jobs, 32, 10.0 * 86400.0, true);
  const FaultRun b = run_failing(jobs, 32, 10.0 * 86400.0, true);
  EXPECT_GT(a.totals.requeues, 0u);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.goodput, b.goodput);
}

TEST(FaultAware, RejectsOversizedJob) {
  des::Engine engine;
  ResourceManager rm(engine, 4, RmConfig::textbook(Policy::kEasyBackfill));
  JobSpec wide;
  wide.width = 100;
  wide.runtime = wide.estimate = 10.0;
  EXPECT_THROW(rm.submit(wide), support::ContractViolation);
  JobSpec bad_checkpoint;
  bad_checkpoint.runtime = 10.0;
  bad_checkpoint.checkpoint_interval = -1.0;
  EXPECT_THROW(rm.submit(bad_checkpoint), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::rm
