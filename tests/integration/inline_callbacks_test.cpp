// Every callback the simulators schedule fits the engine's 32-byte inline
// buffer, so an event node stays one cache line and scheduling never
// allocates for a capture.  A simrt job with faults armed, a serving run
// with a shard crash, and an injector fault timeline with overlapping
// repairs each end with zero small-buffer misses.
#include <gtest/gtest.h>

#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/serve/serve.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/workload/apps.hpp"

namespace polaris {
namespace {

TEST(InlineCallbacks, SimrtJobWithFaultsArmed) {
  workload::CgConfig cfg;
  cfg.local_rows = 20000;
  cfg.iterations = 3;
  workload::AppResult res;
  simrt::SimWorld world(16, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.recv_timeout = 1.0;  // armed on every queued receive
  world.enable_faults(injector, policy);
  world.launch(workload::make_cg(cfg, 16, &res));
  world.run();
  const des::EngineStats s = world.engine().stats();
  EXPECT_GT(s.scheduled, 1000u);
  EXPECT_EQ(s.sbo_misses, 0u);
}

TEST(InlineCallbacks, ServeRunWithShardCrash) {
  serve::ServeConfig cfg;
  cfg.frontends = 2;
  cfg.shards = 4;
  cfg.service_mean_s = 10e-6;
  cfg.arrival = support::ArrivalSpec::poisson(0.6 * 4 / 10e-6 / 2);
  cfg.request_bytes = 128;
  cfg.response_bytes = 128;
  cfg.lb = serve::LbPolicy::kPo2c;
  cfg.fabric = fabric::fabrics::myrinet2000();
  cfg.duration_s = 0.05;
  cfg.warmup_s = 0.01;
  cfg.seed = 0xBEEF;
  serve::ServeSim sim(cfg);
  sim.injector().schedule_node_crash(0.02, sim.shard_node(0),
                                     /*repair_after=*/0.015);
  const serve::ServeResult r = sim.run();
  EXPECT_GT(r.failovers, 0u);
  EXPECT_EQ(sim.engine().stats().sbo_misses, 0u);
}

TEST(InlineCallbacks, InjectorTimelineWithOverlappingRepairs) {
  des::Engine engine;
  fabric::Crossbar topo(8);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector inj(engine, net);
  fault::FailureTimeline nodes(fault::FailureModel::exponential(25.0), 100,
                               /*seed=*/5);
  fault::FailureTimeline links(fault::FailureModel::exponential(25.0), 100,
                               /*seed=*/6);
  const std::size_t scheduled =
      inj.load_node_timeline(nodes, /*horizon=*/20.0, /*repair_after=*/1.0) +
      inj.load_link_timeline(links, /*horizon=*/20.0, /*repair_after=*/1.0);
  engine.run();
  EXPECT_GT(scheduled, 100u);
  EXPECT_GT(inj.overlapped_faults(), 0u);
  EXPECT_EQ(engine.stats().sbo_misses, 0u);
}

}  // namespace
}  // namespace polaris
