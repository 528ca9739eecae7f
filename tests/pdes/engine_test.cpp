#include "polaris/pdes/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "polaris/obs/metrics.hpp"
#include "polaris/support/check.hpp"

namespace polaris::pdes {
namespace {

Config halo_cfg(std::size_t w, std::size_t h, std::uint32_t iters) {
  Config cfg;
  cfg.workload.kind = AppKind::kHalo;
  cfg.workload.grid_w = w;
  cfg.workload.grid_h = h;
  cfg.workload.iters = iters;
  return cfg;
}

TEST(ShardedEngine, HaloCompletesEveryRank) {
  Config cfg = halo_cfg(8, 8, 4);
  const Result r = run(cfg);
  EXPECT_EQ(r.ranks_ok, 64u);
  EXPECT_EQ(r.ranks_failed, 0u);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.windows, 0u);
  EXPECT_GT(r.sim_seconds, 0.0);
  // Every rank sends 4 neighbor messages per iteration.
  EXPECT_EQ(r.msgs_intra + r.msgs_cross, 64u * 4u * 4u);
  EXPECT_EQ(r.nacks, 0u);
}

TEST(ShardedEngine, SingleShardHasNoCrossTraffic) {
  Config cfg = halo_cfg(8, 8, 2);
  cfg.shards = 1;
  const Result r = run(cfg);
  EXPECT_EQ(r.msgs_cross, 0u);
  EXPECT_GT(r.msgs_intra, 0u);
}

TEST(ShardedEngine, MultiShardSplitsTraffic) {
  Config cfg = halo_cfg(8, 8, 2);
  cfg.shards = 4;
  const Result r = run(cfg);
  EXPECT_GT(r.msgs_cross, 0u);
  EXPECT_GT(r.msgs_intra, 0u);
  EXPECT_EQ(r.shards, 4u);
}

TEST(ShardedEngine, AllreduceCompletes) {
  Config cfg;
  cfg.workload.kind = AppKind::kAllreduce;
  cfg.workload.grid_w = 6;
  cfg.workload.grid_h = 5;  // 30 ranks: non-power-of-two hypercube
  cfg.workload.iters = 3;
  const Result r = run(cfg);
  EXPECT_EQ(r.ranks_ok, 30u);
  EXPECT_EQ(r.ranks_failed, 0u);
}

TEST(ShardedEngine, CgCompletes) {
  Config cfg;
  cfg.workload.kind = AppKind::kCg;
  cfg.workload.grid_w = 4;
  cfg.workload.grid_h = 4;
  cfg.workload.iters = 2;
  cfg.shards = 2;
  const Result r = run(cfg);
  EXPECT_EQ(r.ranks_ok, 16u);
  EXPECT_EQ(r.ranks_failed, 0u);
}

TEST(ShardedEngine, SingleRankFinishesInstantly) {
  Config cfg = halo_cfg(1, 1, 3);
  const Result r = run(cfg);
  // A 1x1 torus has no distinct neighbors: nothing to wait for.
  EXPECT_EQ(r.ranks_ok, 1u);
  EXPECT_EQ(r.msgs_intra + r.msgs_cross, 0u);
}

TEST(ShardedEngine, WorkerCountIsRequestOrCoresCappedAtShards) {
  Config cfg = halo_cfg(8, 8, 1);
  cfg.shards = 4;
  EXPECT_EQ(run(cfg).workers,
            std::min<std::size_t>(
                4, std::max(1u, std::thread::hardware_concurrency())));
  cfg.shards = 2;
  cfg.workers = 3;
  EXPECT_EQ(run(cfg).workers, 2u);
  cfg.workers = 1;
  EXPECT_EQ(run(cfg).workers, 1u);
}

TEST(ShardedEngine, ZeroIterationsIsEmptyRun) {
  Config cfg = halo_cfg(4, 4, 0);
  const Result r = run(cfg);
  EXPECT_EQ(r.ranks_ok, 16u);
  EXPECT_DOUBLE_EQ(r.sim_seconds, 0.0);
  EXPECT_EQ(r.msgs_intra + r.msgs_cross, 0u);
}

TEST(ShardedEngine, SimTimeCoversComputeAndWire) {
  Config cfg = halo_cfg(4, 4, 2);
  cfg.workload.compute_s = 1e-3;
  const Result r = run(cfg);
  // Two iterations pay at least the inter-iteration compute block plus
  // message flights (compute is modeled between iterations, not before
  // the first).
  EXPECT_GT(r.sim_seconds, 1e-3);
  EXPECT_LT(r.sim_seconds, 1.0);
}

TEST(ShardedEngine, LookaheadMatchesPartition) {
  Config cfg = halo_cfg(8, 8, 1);
  cfg.shards = 4;
  ShardedEngine engine(cfg);
  EXPECT_DOUBLE_EQ(engine.partition().lookahead_s,
                   cfg.fabric.path_latency(2));
  const Result r = engine.run();
  EXPECT_DOUBLE_EQ(r.lookahead_s, engine.partition().lookahead_s);
}

TEST(ShardedEngine, RunIsOneShot) {
  Config cfg = halo_cfg(4, 4, 1);
  ShardedEngine engine(cfg);
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), support::ContractViolation);
}

TEST(ShardedEngine, ExportMetricsPublishesCountersAndHistograms) {
  Config cfg = halo_cfg(8, 8, 2);
  cfg.shards = 2;
  const Result r = run(cfg);
  obs::MetricsRegistry reg;
  export_metrics(r, reg);
  EXPECT_EQ(reg.counter("pdes.events").value(), r.events);
  EXPECT_EQ(reg.counter("pdes.windows").value(), r.windows);
  EXPECT_EQ(reg.log_histogram("pdes.window_events").count(),
            r.window_events.count());
  EXPECT_GT(reg.log_histogram("pdes.window_ns").count(), 0u);
}

TEST(ShardedEngine, HistogramsSeeEveryWindow) {
  Config cfg = halo_cfg(8, 8, 3);
  cfg.shards = 2;
  const Result r = run(cfg);
  // One window_ns / window_events sample per shard per window.
  EXPECT_EQ(r.window_ns.count(), r.windows * 2);
  EXPECT_EQ(r.window_events.count(), r.windows * 2);
}

}  // namespace
}  // namespace polaris::pdes
