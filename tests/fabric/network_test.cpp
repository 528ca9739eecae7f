#include "polaris/fabric/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "polaris/des/task.hpp"

namespace polaris::fabric {
namespace {

/// Runs a transfer and returns its completion time in seconds.
double timed_transfer(SimNetwork& net, NodeId src, NodeId dst,
                      std::uint64_t bytes) {
  double done = -1.0;
  net.engine().spawn([](SimNetwork& n, NodeId s, NodeId d, std::uint64_t b,
                        double& out) -> des::Task<void> {
    const des::SimTime t0 = n.engine().now();
    co_await n.transfer(s, d, b);
    out = des::to_seconds(n.engine().now() - t0);
  }(net, src, dst, bytes, done));
  net.engine().run();
  return done;
}

class NetworkTest : public ::testing::Test {
 protected:
  des::Engine engine_;
  Crossbar topo_{8};
};

TEST_F(NetworkTest, UncongestedMatchesAnalyticModel) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  for (std::uint64_t bytes : {1ull, 100ull, 4096ull, 65536ull, 1048576ull}) {
    const double expected = net.uncongested_seconds(0, 1, bytes);
    const double measured = timed_transfer(net, 0, 1, bytes);
    EXPECT_NEAR(measured, expected, expected * 0.01 + 1e-9) << bytes;
  }
}

TEST_F(NetworkTest, LargerMessagesTakeLonger) {
  SimNetwork net(engine_, fabrics::gig_ethernet(), topo_);
  const double t_small = timed_transfer(net, 0, 1, 1024);
  const double t_big = timed_transfer(net, 0, 1, 1024 * 1024);
  EXPECT_GT(t_big, 10.0 * t_small);
}

TEST_F(NetworkTest, BandwidthApproachesLinkRate) {
  SimNetwork net(engine_, fabrics::infiniband_4x(), topo_);
  const std::uint64_t bytes = 16 * 1024 * 1024;
  const double t = timed_transfer(net, 0, 1, bytes);
  const double bw = static_cast<double>(bytes) / t;
  EXPECT_GT(bw, 0.9 * net.params().link_bw);
  EXPECT_LE(bw, net.params().link_bw * 1.001);
}

TEST_F(NetworkTest, SelfTransferUsesCopyBandwidth) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  const std::uint64_t bytes = 1024 * 1024;
  const double t = timed_transfer(net, 3, 3, bytes);
  EXPECT_NEAR(t, static_cast<double>(bytes) / net.params().copy_bw, 1e-9);
}

TEST_F(NetworkTest, SharedDownlinkSerializes) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  const std::uint64_t bytes = 1024 * 1024;
  // Two senders to the same destination: the shared downlink halves
  // per-flow bandwidth -> finish in ~2x single-flow time.
  const double single = net.uncongested_seconds(0, 2, bytes);
  std::vector<double> done(2, -1.0);
  for (int i = 0; i < 2; ++i) {
    engine_.spawn([](SimNetwork& n, NodeId s, std::uint64_t b,
                     double& out) -> des::Task<void> {
      co_await n.transfer(s, 2, b);
      out = des::to_seconds(n.engine().now());
    }(net, static_cast<NodeId>(i), bytes, done[i]));
  }
  engine_.run();
  const double last = std::max(done[0], done[1]);
  EXPECT_GT(last, 1.8 * single);
  EXPECT_LT(last, 2.3 * single);
}

TEST_F(NetworkTest, DisjointPairsDoNotInterfere) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  const std::uint64_t bytes = 1024 * 1024;
  const double single = net.uncongested_seconds(0, 1, bytes);
  std::vector<double> done(2, -1.0);
  engine_.spawn([](SimNetwork& n, double& out) -> des::Task<void> {
    co_await n.transfer(0, 1, 1024 * 1024);
    out = des::to_seconds(n.engine().now());
  }(net, done[0]));
  engine_.spawn([](SimNetwork& n, double& out) -> des::Task<void> {
    co_await n.transfer(2, 3, 1024 * 1024);
    out = des::to_seconds(n.engine().now());
  }(net, done[1]));
  engine_.run();
  EXPECT_NEAR(done[0], single, single * 0.02);
  EXPECT_NEAR(done[1], single, single * 0.02);
}

TEST_F(NetworkTest, ZeroByteTransferPaysPropagationOnly) {
  // A zero-byte message is a pure latency probe: wire + switch forwarding
  // per hop, no serialization anywhere (the old model charged each hop a
  // fake 1-byte packet).  Pinned exactly: 2 hops on a crossbar.
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  const double t = timed_transfer(net, 0, 1, 0);
  EXPECT_DOUBLE_EQ(
      t, des::to_seconds(des::from_seconds(net.params().wire_latency +
                                           net.params().switch_latency) +
                         des::from_seconds(net.params().wire_latency)));
  EXPECT_EQ(net.stats().total_link_busy_s, 0.0);
  EXPECT_EQ(net.stats().packets, 1u);
}

TEST_F(NetworkTest, UncontendedTransfersAllBypass) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  for (int i = 0; i < 5; ++i) timed_transfer(net, 0, 1, 64 * 1024);
  EXPECT_EQ(net.stats().messages_bypassed, 5u);
  EXPECT_EQ(net.stats().messages_walked, 0u);
  EXPECT_EQ(net.stats().flights_materialized, 0u);
  EXPECT_EQ(net.stats().walker_hop_events, 0u);
  EXPECT_EQ(net.stats().bypass_rate(), 1.0);
}

TEST_F(NetworkTest, ContendedTransfersDemoteToWalkers) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  // Two senders to one destination overlap on the shared downlink: the
  // first message starts as a flight and is materialized when the second
  // injects; the second walks from the start.  Every non-self message is
  // accounted to exactly one tier-outcome bucket.
  for (int i = 0; i < 2; ++i) {
    engine_.spawn([](SimNetwork& n, NodeId s) -> des::Task<void> {
      co_await n.transfer(s, 2, 1024 * 1024);
    }(net, static_cast<NodeId>(i)));
  }
  engine_.run();
  EXPECT_EQ(net.stats().flights_materialized, 1u);
  EXPECT_EQ(net.stats().messages_walked, 1u);
  EXPECT_EQ(net.stats().messages_bypassed, 0u);
  EXPECT_GT(net.stats().walker_hop_events, 0u);
  EXPECT_EQ(net.stats().messages_bypassed + net.stats().messages_walked +
                net.stats().flights_materialized,
            net.stats().messages);
}

TEST_F(NetworkTest, StatsAccumulate) {
  SimNetwork net(engine_, fabrics::gig_ethernet(), topo_);
  timed_transfer(net, 0, 1, 3000);  // 2 packets at mtu 1500
  EXPECT_EQ(net.stats().messages, 1u);
  EXPECT_EQ(net.stats().bytes, 3000u);
  EXPECT_EQ(net.stats().packets, 2u);
  EXPECT_GT(net.stats().total_link_busy_s, 0.0);
}

TEST_F(NetworkTest, PacketCountIsCapped) {
  SimNetwork net(engine_, fabrics::gig_ethernet(), topo_);
  timed_transfer(net, 0, 1, 64 * 1024 * 1024);
  EXPECT_EQ(net.stats().packets, SimNetwork::kMaxPackets);
}

TEST(OpticalNetwork, FirstTransferPaysCircuitSetup) {
  des::Engine engine;
  Crossbar topo(8);
  SimNetwork net(engine, fabrics::optical_ocs(), topo);
  const double cold = timed_transfer(net, 0, 1, 4096);
  const double warm = timed_transfer(net, 0, 1, 4096);
  EXPECT_GT(cold, net.params().circuit_setup);
  EXPECT_LT(warm, net.params().circuit_setup);
  EXPECT_EQ(net.stats().circuit_misses, 1u);
  EXPECT_EQ(net.stats().circuit_hits, 1u);
}

TEST(OpticalNetwork, CircuitCacheEvictsLru) {
  des::Engine engine;
  Crossbar topo(8);
  SimNetwork net(engine, fabrics::optical_ocs(), topo);
  // Fill the 4-way cache with dst 1..4, then touch 5 (evicts 1).
  for (NodeId d = 1; d <= 5; ++d) timed_transfer(net, 0, d, 64);
  EXPECT_EQ(net.stats().circuit_misses, 5u);
  timed_transfer(net, 0, 1, 64);  // miss again
  EXPECT_EQ(net.stats().circuit_misses, 6u);
  timed_transfer(net, 0, 5, 64);  // still cached
  EXPECT_EQ(net.stats().circuit_hits, 1u);
}

TEST(NetworkOnFatTree, CrossPodSlowerThanSameEdge) {
  des::Engine engine;
  FatTree topo(4);
  SimNetwork net(engine, fabrics::infiniband_4x(), topo);
  const double near = timed_transfer(net, 0, 1, 1024);
  const double far = timed_transfer(net, 0, 15, 1024);
  EXPECT_GT(far, near);
}

TEST(NetworkOnTorus, TimeGrowsWithDistance) {
  des::Engine engine;
  Torus2D topo(8, 8);
  SimNetwork net(engine, fabrics::myrinet2000(), topo);
  const double t1 = timed_transfer(net, 0, 1, 4096);
  const double t4 = timed_transfer(net, 0, 4, 4096);
  EXPECT_GT(t4, t1);
}

// ------------------------------------------------------------------- faults

/// Runs a transfer and returns (completion time in seconds, status).
struct XferResult {
  double seconds = -1.0;
  XferStatus status = XferStatus::kOk;
};

XferResult status_transfer(SimNetwork& net, NodeId src, NodeId dst,
                           std::uint64_t bytes) {
  XferResult r;
  net.engine().spawn([](SimNetwork& n, NodeId s, NodeId d, std::uint64_t b,
                        XferResult& out) -> des::Task<void> {
    const des::SimTime t0 = n.engine().now();
    out.status = co_await n.transfer(s, d, b);
    out.seconds = des::to_seconds(n.engine().now() - t0);
  }(net, src, dst, bytes, r));
  net.engine().run();
  return r;
}

TEST_F(NetworkTest, TransferToDownNodeRefusedAtInject) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  net.set_node_up(1, false);
  const XferResult r = status_transfer(net, 0, 1, 4096);
  EXPECT_EQ(r.status, XferStatus::kNodeDown);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  // Refusal is delivered through a scheduled event, never re-entrantly,
  // but costs no simulated time.
  EXPECT_EQ(r.seconds, 0.0);
  net.set_node_up(1, true);
  EXPECT_EQ(status_transfer(net, 0, 1, 4096).status, XferStatus::kOk);
}

TEST_F(NetworkTest, TransferOverDownLinkRefusedAtInject) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  const LinkId l = topo_.route(0, 1).front();
  net.set_link_up(l, false);
  EXPECT_EQ(status_transfer(net, 0, 1, 4096).status, XferStatus::kLinkDown);
  net.set_link_up(l, true);
  EXPECT_EQ(status_transfer(net, 0, 1, 4096).status, XferStatus::kOk);
}

TEST_F(NetworkTest, NodeDeathMidFlightKillsBypassTier) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  net.enable_faults();
  const std::uint64_t bytes = 16 * 1024 * 1024;
  const double full = net.uncongested_seconds(0, 1, bytes);
  const double kill_at = full / 2;
  engine_.schedule_at(des::from_seconds(kill_at),
                      [&net] { net.set_node_up(1, false); });
  const XferResult r = status_transfer(net, 0, 1, bytes);
  EXPECT_EQ(r.status, XferStatus::kNodeDown);
  // The in-flight message dies when the node does, not at its would-be
  // completion time.
  EXPECT_NEAR(r.seconds, kill_at, 1e-9);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, LinkDeathMidFlightKillsBypassTier) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  net.enable_faults();
  const std::uint64_t bytes = 16 * 1024 * 1024;
  const double full = net.uncongested_seconds(0, 1, bytes);
  const LinkId l = topo_.route(0, 1).back();
  engine_.schedule_at(des::from_seconds(full / 2),
                      [&net, l] { net.set_link_up(l, false); });
  const XferResult r = status_transfer(net, 0, 1, bytes);
  EXPECT_EQ(r.status, XferStatus::kLinkDown);
  EXPECT_NEAR(r.seconds, full / 2, 1e-9);
}

TEST_F(NetworkTest, NodeDeathKillsContendedWalkers) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  net.enable_faults();
  // Two senders to one destination: contention demotes the messages to
  // the packet-walker tier; the kill must chase the walkers' pending hop
  // events, not just the analytic completion.
  const std::uint64_t bytes = 16 * 1024 * 1024;
  const double full = net.uncongested_seconds(0, 2, bytes);
  std::vector<XferStatus> st(2, XferStatus::kOk);
  for (int i = 0; i < 2; ++i) {
    engine_.spawn([](SimNetwork& n, NodeId s,
                     XferStatus& out) -> des::Task<void> {
      out = co_await n.transfer(s, 2, 16 * 1024 * 1024);
    }(net, static_cast<NodeId>(i), st[i]));
  }
  engine_.schedule_at(des::from_seconds(full / 2),
                      [&net] { net.set_node_up(2, false); });
  engine_.run();
  EXPECT_EQ(st[0], XferStatus::kNodeDown);
  EXPECT_EQ(st[1], XferStatus::kNodeDown);
  EXPECT_EQ(net.stats().messages_dropped, 2u);
  EXPECT_LE(des::to_seconds(engine_.now()), full);
}

// -- transfer() is transfer_raw() --------------------------------------------

struct Xfer {
  NodeId src;
  NodeId dst;
  std::uint64_t bytes;
};

/// Completion tick of each transfer and the events the engine ran.
struct Outcome {
  std::vector<des::SimTime> done;
  std::uint64_t events = 0;
  NetworkStats stats;
};

/// Starts every transfer at t = 0, in list order, each from a spawned
/// coroutine that awaits transfer().
Outcome run_awaited(const FabricParams& params, const Topology& topo,
                    const std::vector<Xfer>& xfers) {
  des::Engine engine;
  SimNetwork net(engine, params, topo);
  Outcome out;
  out.done.assign(xfers.size(), -1);
  for (std::size_t i = 0; i < xfers.size(); ++i) {
    engine.spawn([](SimNetwork& n, Xfer x,
                    des::SimTime& at) -> des::Task<void> {
      co_await n.transfer(x.src, x.dst, x.bytes);
      at = n.engine().now();
    }(net, xfers[i], out.done[i]));
  }
  engine.run();
  out.events = engine.events_executed();
  out.stats = net.stats();
  return out;
}

/// The same transfers through transfer_raw(), each issued from a zero-delay
/// raw event (the counterpart of spawn's start event).
Outcome run_raw(const FabricParams& params, const Topology& topo,
                const std::vector<Xfer>& xfers) {
  des::Engine engine;
  SimNetwork net(engine, params, topo);
  Outcome out;
  out.done.assign(xfers.size(), -1);
  struct Ctx {
    SimNetwork* net;
    Xfer x;
    des::SimTime* at;
  };
  std::vector<Ctx> ctxs;
  for (std::size_t i = 0; i < xfers.size(); ++i) {
    ctxs.push_back({&net, xfers[i], &out.done[i]});
  }
  for (Ctx& c : ctxs) {
    engine.schedule_raw_after(
        0,
        [](void* start) {
          auto& ctx = *static_cast<Ctx*>(start);
          ctx.net->transfer_raw(
              ctx.x.src, ctx.x.dst, ctx.x.bytes,
              [](void* done, XferStatus) {
                auto& d = *static_cast<Ctx*>(done);
                *d.at = d.net->engine().now();
              },
              &ctx);
        },
        &c);
  }
  engine.run();
  out.events = engine.events_executed();
  out.stats = net.stats();
  return out;
}

Outcome expect_same_forms(const FabricParams& params,
                          const std::vector<Xfer>& xfers) {
  const Crossbar topo(8);
  const Outcome awaited = run_awaited(params, topo, xfers);
  const Outcome raw = run_raw(params, topo, xfers);
  EXPECT_EQ(awaited.done, raw.done);
  EXPECT_EQ(awaited.events, raw.events);
  for (const des::SimTime t : raw.done) EXPECT_GE(t, 0);
  return raw;
}

TEST(TransferForms, IdlePairMatches) {
  const Outcome o = expect_same_forms(fabrics::myrinet2000(), {{0, 1, 65536}});
  EXPECT_EQ(o.stats.messages_bypassed, 1u);
}

TEST(TransferForms, ContendedPairMatches) {
  const Outcome o = expect_same_forms(
      fabrics::myrinet2000(), {{0, 2, 1 << 20}, {1, 2, 1 << 20}});
  EXPECT_EQ(o.stats.flights_materialized + o.stats.messages_walked, 2u);
}

TEST(TransferForms, CircuitMissThenHitMatches) {
  const Outcome o =
      expect_same_forms(fabrics::optical_ocs(), {{0, 1, 4096}, {0, 1, 4096}});
  EXPECT_EQ(o.stats.circuit_misses, 1u);
  EXPECT_EQ(o.stats.circuit_hits, 1u);
}

TEST(TransferForms, SelfCopyMatches) {
  const Outcome o =
      expect_same_forms(fabrics::myrinet2000(), {{3, 3, 1 << 20}});
  EXPECT_EQ(o.stats.packets, 0u);
}

TEST(TransferForms, ZeroByteTransferMatches) {
  const Outcome o = expect_same_forms(fabrics::myrinet2000(), {{0, 1, 0}});
  EXPECT_EQ(o.stats.packets, 1u);
}

TEST_F(NetworkTest, FaultsEnabledButIdleChangesNothing) {
  SimNetwork net(engine_, fabrics::myrinet2000(), topo_);
  net.enable_faults();
  for (std::uint64_t bytes : {100ull, 4096ull, 1048576ull}) {
    const double expected = net.uncongested_seconds(0, 1, bytes);
    const XferResult r = status_transfer(net, 0, 1, bytes);
    EXPECT_EQ(r.status, XferStatus::kOk);
    EXPECT_NEAR(r.seconds, expected, expected * 0.01 + 1e-9) << bytes;
  }
  EXPECT_EQ(net.stats().messages_dropped, 0u);
}

}  // namespace
}  // namespace polaris::fabric
