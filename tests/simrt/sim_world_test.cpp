#include "polaris/simrt/sim_world.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "polaris/fabric/topology.hpp"
#include "polaris/msg/protocol.hpp"
#include "heap_count.hpp"

namespace polaris::simrt {
namespace {

using fabric::fabrics::gig_ethernet;
using fabric::fabrics::infiniband_4x;
using fabric::fabrics::myrinet2000;
using fabric::fabrics::optical_ocs;

/// One-way latency of a single b-byte message between two ranks.
double one_way_seconds(fabric::FabricParams p, std::uint64_t bytes,
                       std::uint32_t eager_override = 0) {
  SimWorld world(2, std::move(p), nullptr,
                 hw::NodeDesigner().design(hw::NodeArch::kConventional, 2002.0),
                 eager_override);
  double t_done = -1.0;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, bytes);
    } else {
      co_await c.recv(0, 0);
      t_done = c.now();
    }
  });
  world.run();
  return t_done;
}

TEST(SimWorldP2P, SmallMessageLatencyMatchesEra) {
  // Published 2002-era MPI-level small-message latencies: kernel GigE tens
  // of microseconds; user-level Myrinet/IB single-digit microseconds.
  const double eth = one_way_seconds(gig_ethernet(), 8);
  const double myri = one_way_seconds(myrinet2000(), 8);
  const double ib = one_way_seconds(infiniband_4x(), 8);
  EXPECT_GT(eth, 40e-6);
  EXPECT_LT(eth, 120e-6);
  EXPECT_GT(myri, 2e-6);
  EXPECT_LT(myri, 15e-6);
  EXPECT_GT(ib, 1.5e-6);
  EXPECT_LT(ib, 12e-6);
  EXPECT_GT(eth / ib, 8.0);  // the user-level messaging story
}

TEST(SimWorldP2P, LargeMessageBandwidthApproachesWire) {
  const std::uint64_t bytes = 8 << 20;
  const double t = one_way_seconds(infiniband_4x(), bytes);
  const double bw = static_cast<double>(bytes) / t;
  EXPECT_GT(bw, 0.75 * infiniband_4x().link_bw);
}

TEST(SimWorldP2P, KernelPathCapsBandwidthBelowWire) {
  // GigE kernel path: copies cost 2x bytes/copy_bw on top of the wire,
  // so delivered bandwidth is well under link rate.
  const std::uint64_t bytes = 8 << 20;
  const double t = one_way_seconds(gig_ethernet(), bytes);
  const double bw = static_cast<double>(bytes) / t;
  EXPECT_LT(bw, 0.9 * gig_ethernet().link_bw);
}

TEST(SimWorldP2P, EagerVsRendezvousCounters) {
  SimWorld world(2, infiniband_4x());
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 64);          // eager
      co_await c.send(1, 0, 1 << 20);     // rdma rendezvous
    } else {
      co_await c.recv(0, 0);
      co_await c.recv(0, 0);
    }
  });
  world.run();
  EXPECT_EQ(world.comm(0).eager_count(), 1u);
  EXPECT_EQ(world.comm(0).rendezvous_count(), 1u);
}

TEST(SimWorldP2P, EagerThresholdOverrideChangesProtocol) {
  SimWorld world(2, infiniband_4x(), nullptr,
                 hw::NodeDesigner().design(hw::NodeArch::kConventional,
                                           2002.0),
                 /*eager_override=*/1 << 20);
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 64 * 1024);  // below the overridden threshold
    } else {
      co_await c.recv(0, 0);
    }
  });
  world.run();
  EXPECT_EQ(world.comm(0).eager_count(), 1u);
}

TEST(SimWorldP2P, MessagesDoNotOvertake) {
  // A large eager message followed by a small one, same tag: the receiver
  // must see them in send order despite different wire times.
  SimWorld world(2, myrinet2000(), nullptr,
                 hw::NodeDesigner().design(hw::NodeArch::kConventional,
                                           2002.0),
                 /*eager_override=*/4 << 20);
  std::vector<std::uint64_t> sizes;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 1 << 20);
      co_await c.send(1, 0, 8);
    } else {
      const auto a = co_await c.recv(0, 0);
      const auto b = co_await c.recv(0, 0);
      sizes = {a.bytes, b.bytes};
    }
  });
  world.run();
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u << 20);
  EXPECT_EQ(sizes[1], 8u);
}

TEST(SimWorldP2P, UnexpectedMessageMatchesLateRecv) {
  SimWorld world(2, infiniband_4x());
  double recv_done = -1;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 5, 128);
    } else {
      co_await c.sleep(1e-3);  // message arrives long before the recv
      const auto st = co_await c.recv(0, 5);
      EXPECT_EQ(st.bytes, 128u);
      recv_done = c.now();
    }
  });
  world.run();
  // Receive completes nearly immediately after being posted.
  EXPECT_NEAR(recv_done, 1e-3, 0.1e-3);
}

TEST(SimWorldP2P, RendezvousWaitsForReceiver) {
  SimWorld world(2, myrinet2000());
  double send_done = -1;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 1 << 20);  // rendezvous
      send_done = c.now();
    } else {
      co_await c.sleep(5e-3);
      co_await c.recv(0, 0);
    }
  });
  world.run();
  EXPECT_GT(send_done, 5e-3);  // sender stalled on the handshake
}

TEST(SimWorldP2P, RegistrationCacheAmortizes) {
  SimWorld world(2, infiniband_4x());
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) co_await c.send(1, 0, 1 << 20);
    } else {
      for (int i = 0; i < 10; ++i) co_await c.recv(0, 0);
    }
  });
  world.run();
  EXPECT_EQ(world.comm(0).reg_stats().misses, 1u);
  EXPECT_EQ(world.comm(0).reg_stats().hits, 9u);
}

TEST(SimWorldP2P, OpticalPaysSetupOnce) {
  const double cold = one_way_seconds(optical_ocs(), 4096);
  EXPECT_GT(cold, optical_ocs().circuit_setup);

  SimWorld world(2, optical_ocs());
  std::vector<double> gaps;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) co_await c.send(1, 0, 4096);
    } else {
      double last = 0;
      for (int i = 0; i < 3; ++i) {
        co_await c.recv(0, 0);
        gaps.push_back(c.now() - last);
        last = c.now();
      }
    }
  });
  world.run();
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_GT(gaps[0], 500e-6);  // cold circuit
  EXPECT_LT(gaps[1], 100e-6);  // warm
  EXPECT_LT(gaps[2], 100e-6);
}

TEST(SimWorldP2P, ComputeUsesRoofline) {
  SimWorld world(2, infiniband_4x());
  double t = -1;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.compute(9.6e9, 0.0);  // exactly 1 s at 2002 peak
      t = c.now();
    }
  });
  world.run();
  EXPECT_NEAR(t, 1.0, 1e-6);
}

TEST(SimWorldP2P, WildcardRecvInSimulation) {
  SimWorld world(3, infiniband_4x());
  int seen_src = -1;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 2) {
      const auto st = co_await c.recv(msg::kAnySource, 7);
      seen_src = st.src;
    } else if (c.rank() == 1) {
      co_await c.send(2, 7, 32);
    }
  });
  world.run();
  EXPECT_EQ(seen_src, 1);
}


TEST(SimWorldP2P, NonOvertakingStressThroughHoldRings) {
  // Many same-tag eager messages with wildly different sizes: small ones
  // finish their wire leg before earlier large ones, so network-order
  // completions are heavily out of order and must be re-sequenced through
  // the per-source hold rings before reaching the matcher.
  SimWorld world(3, myrinet2000(), nullptr,
                 hw::NodeDesigner().design(hw::NodeArch::kConventional,
                                           2002.0),
                 /*eager_override=*/8 << 20);
  constexpr int kPerSource = 64;
  std::vector<std::uint64_t> sent[2];
  std::vector<std::uint64_t> got[2];
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() < 2) {
      std::vector<SimRequest> reqs;
      std::uint64_t state = 0x9E3779B9u * (c.rank() + 1);
      for (int i = 0; i < kPerSource; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Alternate huge and tiny so later sends routinely complete first.
        const std::uint64_t bytes =
            (i % 2 == 0) ? (1u << 20) + (state % 4096) : 8 + (state % 64);
        sent[c.rank()].push_back(bytes);
        reqs.push_back(c.isend(2, 0, bytes));
      }
      co_await c.wait_all(reqs);
    } else {
      for (int i = 0; i < 2 * kPerSource; ++i) {
        const auto st = co_await c.recv(msg::kAnySource, 0);
        got[st.src].push_back(st.bytes);
      }
    }
  });
  world.run();
  EXPECT_EQ(got[0], sent[0]);  // per-source program order, exactly
  EXPECT_EQ(got[1], sent[1]);
  // The scenario is only a real test if the rings actually held messages.
  EXPECT_GT(world.comm(2).max_held_depth(), 0u);
}

TEST(SimWorldP2P, PoolsReachSteadyState) {
  // Long-running traffic with bounded concurrency must not grow the
  // in-flight, request or matcher slabs after warmup: the steady-state
  // message path is allocation-free.
  SimWorld world(2, infiniband_4x());
  std::size_t inflight_cap = 0, req_cap = 0, match_cap = 0;
  world.launch([&](SimComm& c) -> des::Task<void> {
    for (int round = 0; round < 400; ++round) {
      if (round == 100 && c.rank() == 0) {
        inflight_cap = world.inflight_pool_capacity();
        req_cap = c.request_pool_capacity();
        match_cap = c.matcher_pool_capacity() +
                    world.comm(1).matcher_pool_capacity();
      }
      if (c.rank() == 0) {
        SimRequest r = c.irecv(1, 1);
        co_await c.send(1, 0, 4096);
        co_await c.wait(r);
      } else {
        SimRequest r = c.irecv(0, 0);
        co_await c.send(0, 1, 4096);
        co_await c.wait(r);
      }
    }
  });
  world.run();
  EXPECT_GT(inflight_cap, 0u);
  EXPECT_EQ(world.inflight_pool_capacity(), inflight_cap);
  EXPECT_EQ(world.comm(0).request_pool_capacity(), req_cap);
  EXPECT_EQ(world.comm(0).matcher_pool_capacity() +
                world.comm(1).matcher_pool_capacity(),
            match_cap);
  EXPECT_EQ(world.inflight_in_use(), 0u);  // everything drained back
}

TEST(SimWorldNonblocking, IsendIrecvWaitAll) {
  SimWorld world(2, infiniband_4x());
  std::vector<std::uint64_t> sizes;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      std::vector<SimRequest> reqs;
      reqs.push_back(c.isend(1, 0, 1024));
      reqs.push_back(c.isend(1, 1, 2048));
      co_await c.wait_all(std::move(reqs));
    } else {
      SimRequest a = c.irecv(0, 0);
      SimRequest b = c.irecv(0, 1);
      const auto sa = co_await c.wait(a);
      const auto sb = co_await c.wait(b);
      sizes = {sa.bytes, sb.bytes};
    }
  });
  world.run();
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1024, 2048}));
}

TEST(SimWorldNonblocking, MixedBlockingAndNonblockingPreserveOrder) {
  // isend issued before a blocking send must be matched first.
  SimWorld world(2, infiniband_4x());
  std::vector<std::uint64_t> sizes;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      SimRequest r = c.isend(1, 0, 111);
      co_await c.send(1, 0, 222);
      co_await c.wait(r);
    } else {
      const auto a = co_await c.recv(0, 0);
      const auto b = co_await c.recv(0, 0);
      sizes = {a.bytes, b.bytes};
    }
  });
  world.run();
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{111, 222}));
}

TEST(SimWorldNonblocking, IrecvPostingOrderIsProgramOrder) {
  // irecv then blocking recv with the same signature: the first posted
  // receive must match the first arrival.
  SimWorld world(2, infiniband_4x());
  std::uint64_t first = 0, second = 0;
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 10);
      co_await c.send(1, 0, 20);
    } else {
      SimRequest r = c.irecv(0, 0);
      const auto b = co_await c.recv(0, 0);
      const auto a = co_await c.wait(r);
      first = a.bytes;
      second = b.bytes;
    }
  });
  world.run();
  EXPECT_EQ(first, 10u);
  EXPECT_EQ(second, 20u);
}

TEST(SimWorldNonblocking, ConcurrentExchangeOverlaps) {
  // Four-way nonblocking exchange completes in ~one message time, not four.
  SimWorld world(5, infiniband_4x());
  double elapsed = -1;
  world.launch([&](SimComm& c) -> des::Task<void> {
    const std::uint64_t bytes = 256 * 1024;
    if (c.rank() == 0) {
      std::vector<SimRequest> reqs;
      for (int peer = 1; peer <= 4; ++peer) {
        reqs.push_back(c.irecv(peer, 0));
        reqs.push_back(c.isend(peer, 0, bytes));
      }
      co_await c.wait_all(std::move(reqs));
      elapsed = c.now();
    } else {
      SimRequest r = c.irecv(0, 0);
      co_await c.send(0, 0, bytes);
      co_await c.wait(r);
    }
  });
  world.run();
  // Serial would be ~8 message times; overlap should beat 6.
  SimWorld ref(2, infiniband_4x());
  double one = -1;
  ref.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 256 * 1024);
    } else {
      co_await c.recv(0, 0);
      one = c.now();
    }
  });
  ref.run();
  EXPECT_LT(elapsed, 6.0 * one);
}

/// Heap bytes per rank to build (and tear down) a side x side Myrinet
/// torus world, topology included.
double construction_bytes_per_rank(std::size_t side) {
  const std::uint64_t before = bench::heap_bytes();
  {
    SimWorld world(side * side, myrinet2000(),
                   std::make_unique<fabric::Torus2D>(side, side));
  }
  return static_cast<double>(bench::heap_bytes() - before) /
         static_cast<double>(side * side);
}

TEST(SimWorld, ConstructionBytesPerRankStayFlat) {
  // Per-rank state that grew with the world (one entry per peer) would
  // quadruple here; sequencing records made per communicating pair do not.
  const double at256 = construction_bytes_per_rank(16);
  const double at1024 = construction_bytes_per_rank(32);
  EXPECT_LE(at1024, 1.25 * at256) << at256 << " B/rank at 256 ranks, "
                                  << at1024 << " B/rank at 1,024";
}

}  // namespace
}  // namespace polaris::simrt
