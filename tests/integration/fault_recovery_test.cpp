// End-to-end fault injection through the fast data path.
//
// Four properties pin the tentpole down:
//   1. A SimWorld with the fault machinery ARMED but no fault scheduled is
//      bit-identical to the seed golden run (final time + exported trace).
//      Arming only adds timers that are always cancelled before firing, and
//      cancelled timers shift nothing.
//   2. A seeded node crash mid-exchange surfaces as error statuses on the
//      survivors: a rendezvous send to the dead rank fails after exactly
//      max_retries backoffs, and a posted receive from it times out with
//      kPeerDown instead of hanging the simulation.
//   3. A rendezvous the sender abandoned while the receiver was down fails
//      the receive that matches it later, instead of hanging it; one to a
//      live rank that never receives times out once instead of keeping
//      the engine busy forever.
//   4. FailureTimeline::until() and ::next() describe the same stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/workload/apps.hpp"

namespace polaris {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// Same scenario and constants as tests/workload/golden_trace_test.cpp
// (halo2d, 16 ranks, myrinet2000, 3 iterations, seed commit e7b97ed).
// Engine event counts are deliberately NOT compared: armed-then-cancelled
// receive timers add scheduled events without moving a single span.
constexpr des::SimTime kGoldenFinalTime = 4076382;
constexpr std::uint64_t kGoldenTraceHash = 10557979453123585435ULL;
constexpr std::size_t kGoldenTraceBytes = 103794;

TEST(FaultRecovery, ArmedButEmptyInjectorKeepsGoldenTrace) {
  workload::Halo2DConfig cfg;
  cfg.iterations = 3;
  workload::AppResult res;
  simrt::SimWorld world(16, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.recv_timeout = 1.0;  // armed on every queued receive, never fires
  world.enable_faults(injector, policy);
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch(workload::make_halo2d(cfg, 16, &res));
  world.run();
  std::ostringstream trace;
  tracer.write_json(trace);
  EXPECT_EQ(world.engine().now(), kGoldenFinalTime);
  EXPECT_EQ(trace.str().size(), kGoldenTraceBytes);
  EXPECT_EQ(fnv1a(trace.str()), kGoldenTraceHash);
  EXPECT_EQ(world.msg_retries(), 0u);
  EXPECT_EQ(world.msg_drops(), 0u);
  EXPECT_EQ(world.recv_timeouts(), 0u);
}

TEST(FaultRecovery, NodeCrashMidExchangeSurfacesOnSurvivors) {
  simrt::SimWorld world(4, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff = 0.01;
  policy.backoff_factor = 2.0;
  policy.recv_timeout = 0.05;
  world.enable_faults(injector, policy);
  injector.schedule_node_crash(/*at=*/0.005, /*node=*/1);  // permanent

  simrt::SimStatus send_status = simrt::SimStatus::kOk;
  double send_elapsed = -1.0;
  simrt::SimRecvStatus recv_status;
  double recv_elapsed = -1.0;

  world.launch([&](simrt::SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      // Let the crash land first, then talk to the corpse.  1 MiB forces
      // rendezvous: the RTS is refused at inject, retried with the
      // configured backoffs, then the send fails.
      co_await c.sleep(0.01);
      const double t0 = c.now();
      send_status = co_await c.send(1, /*tag=*/7, 1 << 20);
      send_elapsed = c.now() - t0;
      // An eager send to the dead rank still "completes" (buffered
      // semantics); its wire chain retries and drops in the background.
      co_await c.send(1, /*tag=*/8, 64);
    } else if (c.rank() == 2) {
      // A receive from the dead rank must fail, not hang.
      const double t0 = c.now();
      simrt::SimRequest r = c.irecv(1, /*tag=*/9);
      recv_status = co_await c.wait(r);
      recv_elapsed = c.now() - t0;
    }
    co_return;
  });
  world.run();

  EXPECT_EQ(send_status, simrt::SimStatus::kPeerDown);
  // Refused injections cost no wire time, so the failed send's latency is
  // the backoff ladder: 0.01 + 0.02 + 0.04.
  EXPECT_NEAR(send_elapsed, 0.07, 0.01);
  EXPECT_EQ(recv_status.status, simrt::SimStatus::kPeerDown);
  EXPECT_FALSE(recv_status.ok());
  EXPECT_NEAR(recv_elapsed, policy.recv_timeout, 0.01);

  // Exactly two failed messages: 3 retries each for the rendezvous RTS and
  // the eager wire leg, one timed-out receive.
  EXPECT_EQ(world.msg_retries(), 6u);
  EXPECT_EQ(world.msg_drops(), 2u);
  EXPECT_EQ(world.recv_timeouts(), 1u);
  EXPECT_EQ(injector.crashes(), 1u);
  EXPECT_EQ(injector.downed_at(1), 0.005);
  EXPECT_FALSE(injector.node_up(1));
}

TEST(FaultRecovery, RecoveredPeerCompletesAfterRetries) {
  // A transient outage: the node comes back before the retry budget runs
  // out, so the same exchange completes with kOk — recovery, not failure.
  simrt::SimWorld world(4, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff = 0.01;
  policy.backoff_factor = 2.0;
  world.enable_faults(injector, policy);
  injector.schedule_node_crash(/*at=*/0.005, /*node=*/1,
                               /*repair_after=*/0.02);

  simrt::SimStatus send_status = simrt::SimStatus::kPeerDown;
  simrt::SimRecvStatus recv_status;
  world.launch([&](simrt::SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.sleep(0.01);  // inside the outage window
      send_status = co_await c.send(1, /*tag=*/7, 1 << 20);
    } else if (c.rank() == 1) {
      recv_status = co_await c.recv(0, /*tag=*/7);
    }
    co_return;
  });
  world.run();

  EXPECT_EQ(send_status, simrt::SimStatus::kOk);
  EXPECT_EQ(recv_status.status, simrt::SimStatus::kOk);
  EXPECT_EQ(recv_status.bytes, 1u << 20);
  EXPECT_GE(world.msg_retries(), 1u);
  EXPECT_EQ(world.msg_drops(), 0u);
  EXPECT_TRUE(injector.node_up(1));
}

TEST(FaultRecovery, LateReceiveOfAbandonedRendezvousFails) {
  // The RTS lands just before node 1 crashes; the sender's match wait
  // then times out against a dead peer and gives up.  The envelope waits
  // in rank 1's matcher, and rank 1's program keeps running through the
  // outage: its receive after the repair takes the envelope at once, so
  // no receive timeout is armed.  It must return the failure, not wait
  // for a payload that will never come.
  simrt::SimWorld world(4, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff = 0.01;
  policy.backoff_factor = 2.0;
  policy.recv_timeout = 0.05;
  world.enable_faults(injector, policy);
  injector.schedule_node_crash(/*at=*/0.001, /*node=*/1,
                               /*repair_after=*/0.2);

  simrt::SimStatus send_status = simrt::SimStatus::kOk;
  simrt::SimRecvStatus recv_status;
  world.launch([&](simrt::SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      send_status = co_await c.send(1, /*tag=*/7, 1 << 20);
    } else if (c.rank() == 1) {
      co_await c.sleep(0.3);
      recv_status = co_await c.recv(0, /*tag=*/7);
    }
    co_return;
  });
  world.run();

  EXPECT_EQ(send_status, simrt::SimStatus::kPeerDown);
  EXPECT_EQ(recv_status.status, simrt::SimStatus::kPeerDown);
  EXPECT_EQ(world.ranks_finished(), world.ranks_launched());
  EXPECT_EQ(world.inflight_in_use(), 0u);
}

TEST(FaultRecovery, RendezvousToSilentLiveRankTimesOutOnce) {
  // Rank 1 stays up but never posts its receive.  The sender's match wait
  // must fail once with kTimeout, as a posted receive's timeout does; a
  // deadline re-armed for as long as the peer is up never lets the engine
  // drain.  run_until bounds the run, so that defect fails here instead of
  // hanging the test.
  simrt::SimWorld world(2, fabric::fabrics::myrinet2000());
  fault::Injector injector(world.engine(), world.network());
  simrt::RetryPolicy policy;
  policy.recv_timeout = 0.05;
  world.enable_faults(injector, policy);

  simrt::SimStatus send_status = simrt::SimStatus::kOk;
  world.launch([&](simrt::SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) send_status = co_await c.send(1, /*tag=*/7, 1 << 20);
    co_return;
  });
  world.engine().run_until(des::from_seconds(10.0));

  EXPECT_TRUE(world.engine().empty());
  EXPECT_EQ(send_status, simrt::SimStatus::kTimeout);
  EXPECT_EQ(world.ranks_finished(), 2u);
}

TEST(FaultTimeline, UntilAndNextDescribeTheSameStream) {
  const fault::FailureModel model = fault::FailureModel::exponential(3600.0);
  fault::FailureTimeline a(model, 64, /*seed=*/42);
  fault::FailureTimeline b(model, 64, /*seed=*/42);

  // Drain `a` through until() with increasing horizons, `b` through
  // next(); the merged streams must agree event for event.
  std::vector<fault::FailureTimeline::Event> from_until;
  for (double horizon = 500.0; from_until.size() < 100;
       horizon += 500.0) {
    for (const auto& ev : a.until(horizon)) from_until.push_back(ev);
  }
  for (const auto& ev : from_until) {
    const fault::FailureTimeline::Event n = b.next();
    EXPECT_DOUBLE_EQ(n.time, ev.time);
    EXPECT_EQ(n.node, ev.node);
  }
}

}  // namespace
}  // namespace polaris
