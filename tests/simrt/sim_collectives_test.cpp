#include <gtest/gtest.h>

#include <vector>

#include "polaris/simrt/sim_world.hpp"

namespace polaris::simrt {
namespace {

using fabric::fabrics::gig_ethernet;
using fabric::fabrics::infiniband_4x;

/// Time for all ranks to complete one collective schedule.
double timed_schedule(std::size_t ranks, fabric::FabricParams p,
                      const coll::Schedule& schedule,
                      std::size_t elem_bytes = 8) {
  SimWorld world(ranks, std::move(p));
  world.launch([&](SimComm& c) -> des::Task<void> {
    co_await c.run_schedule(schedule, elem_bytes);
  });
  return world.run();
}

TEST(SimCollectives, BarrierCompletesAllRanks) {
  for (std::size_t p : {2u, 3u, 8u, 16u}) {
    SimWorld world(p, infiniband_4x());
    std::size_t through = 0;
    world.launch([&](SimComm& c) -> des::Task<void> {
      co_await c.barrier();
      ++through;
    });
    const double t = world.run();
    EXPECT_EQ(through, p);
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 1e-3);
  }
}

TEST(SimCollectives, BarrierScalesLogarithmically) {
  const double t4 =
      timed_schedule(4, infiniband_4x(), coll::barrier(4), 1);
  const double t64 =
      timed_schedule(64, infiniband_4x(), coll::barrier(64), 1);
  EXPECT_LT(t64, 5.0 * t4);  // log2(64)/log2(4) = 3, plus congestion
}

TEST(SimCollectives, BinomialBroadcastBeatsLinearAtScale) {
  const std::size_t p = 32;
  const double lin = timed_schedule(
      p, infiniband_4x(), coll::broadcast(p, 1024, 0, coll::Algorithm::kLinear));
  const double bin = timed_schedule(
      p, infiniband_4x(),
      coll::broadcast(p, 1024, 0, coll::Algorithm::kBinomial));
  EXPECT_LT(bin, 0.6 * lin);
}

TEST(SimCollectives, RingAllreduceWinsLargePayloads) {
  const std::size_t p = 16;
  const std::size_t n = 1 << 17;  // 1 MiB of doubles
  const double ring = timed_schedule(p, infiniband_4x(),
                                     coll::allreduce(p, n, coll::Algorithm::kRing));
  const double rd = timed_schedule(
      p, infiniband_4x(),
      coll::allreduce(p, n, coll::Algorithm::kRecursiveDoubling));
  EXPECT_LT(ring, rd);
}

TEST(SimCollectives, RecursiveDoublingWinsTinyPayloads) {
  const std::size_t p = 16;
  const double ring = timed_schedule(
      p, infiniband_4x(), coll::allreduce(p, 1, coll::Algorithm::kRing));
  const double rd = timed_schedule(
      p, infiniband_4x(),
      coll::allreduce(p, 1, coll::Algorithm::kRecursiveDoubling));
  EXPECT_LT(rd, ring);
}

TEST(SimCollectives, EthernetCollectivesFarSlowerThanIb) {
  const std::size_t p = 16;
  const auto schedule = coll::allreduce(p, 1024, coll::Algorithm::kRing);
  const double eth = timed_schedule(p, gig_ethernet(), schedule);
  const double ib = timed_schedule(p, infiniband_4x(), schedule);
  EXPECT_GT(eth / ib, 5.0);
}

TEST(SimCollectives, ConvenienceCollectivesComplete) {
  SimWorld world(8, infiniband_4x());
  int done = 0;
  world.launch([&](SimComm& c) -> des::Task<void> {
    co_await c.broadcast(4096, 0);
    co_await c.allreduce(8 * 1024);
    co_await c.run_schedule(
        world.collective_schedule(coll::Collective::kAllgather, 1024, 0), 1);
    co_await c.run_schedule(
        world.collective_schedule(coll::Collective::kAlltoall, 512, 0), 1);
    ++done;
  });
  world.run();
  EXPECT_EQ(done, 8);
}

TEST(SimCollectives, NonPowerOfTwoRanksWork) {
  SimWorld world(11, infiniband_4x());
  int done = 0;
  world.launch([&](SimComm& c) -> des::Task<void> {
    co_await c.allreduce(4096);
    co_await c.barrier();
    ++done;
  });
  world.run();
  EXPECT_EQ(done, 11);
}

TEST(SimCollectives, AlltoallCongestsMoreThanAllgatherOnTorus) {
  // On a mesh, alltoall's long-distance shifts contend for mesh links
  // while ring allgather only ever talks to neighbours.  (On a crossbar
  // both are per-step permutations and legitimately tie.)
  const std::size_t p = 16;
  auto run = [&](const coll::Schedule& s) {
    SimWorld world(p, infiniband_4x(),
                   std::make_unique<fabric::Torus2D>(4, 4));
    world.launch([&](SimComm& c) -> des::Task<void> {
      co_await c.run_schedule(s, 1);
    });
    return world.run();
  };
  const double a2a = run(coll::alltoall(p, 8192, coll::Algorithm::kPairwise));
  const double ag = run(coll::allgather(p, 8192, coll::Algorithm::kRing));
  EXPECT_GT(a2a, 1.2 * ag);
}

TEST(SimCollectives, DeterministicReplay) {
  const auto schedule = coll::allreduce(8, 1 << 14, coll::Algorithm::kRing);
  const double t1 = timed_schedule(8, infiniband_4x(), schedule);
  const double t2 = timed_schedule(8, infiniband_4x(), schedule);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(SimCollectives, SendRecvStepWaitsForItsSlowerHalf) {
  // Rank 0's one step sends 1 MiB (rendezvous) to rank 1, which posts its
  // receive only after 1 ms, and receives 8 B from rank 2 at once.  The
  // step must not finish with its receive: it joins both halves.
  coll::Schedule schedule;
  schedule.ranks = 3;
  schedule.per_rank.resize(3);
  coll::CommStep both = coll::CommStep::send(1, 0, 1 << 20);
  both.recv_peer = 2;
  both.recv_count = 8;
  schedule.per_rank[0] = {both};
  coll::CommStep recv_only;
  recv_only.recv_peer = 0;
  recv_only.recv_count = 1 << 20;
  schedule.per_rank[1] = {recv_only};
  schedule.per_rank[2] = {coll::CommStep::send(0, 0, 8)};

  SimWorld world(3, infiniband_4x());
  std::vector<double> done(3, 0.0);
  world.launch([&](SimComm& c) -> des::Task<void> {
    if (c.rank() == 1) co_await c.sleep(1e-3);
    const SimStatus st = co_await c.run_schedule(schedule, 1);
    EXPECT_EQ(st, SimStatus::kOk);
    done[static_cast<std::size_t>(c.rank())] = c.now();
  });
  world.run();
  EXPECT_LT(done[2], 1e-4);
  EXPECT_GT(done[0], 1e-3);
  EXPECT_GE(done[0], done[1] - 1e-4);
}

TEST(SimCollectives, TorusVsFatTreeForNeighborExchange) {
  // A ring allgather maps perfectly onto a torus; both should complete,
  // and the torus should not be catastrophically worse.
  const std::size_t p = 16;
  const auto schedule = coll::allgather(p, 4096, coll::Algorithm::kRing);
  SimWorld tree(p, infiniband_4x());
  SimWorld torus(p, infiniband_4x(),
                 std::make_unique<fabric::Torus2D>(4, 4));
  for (SimWorld* w : {&tree, &torus}) {
    w->launch([&](SimComm& c) -> des::Task<void> {
      co_await c.run_schedule(schedule, 8);
    });
  }
  const double t_tree = tree.run();
  const double t_torus = torus.run();
  EXPECT_GT(t_tree, 0.0);
  EXPECT_GT(t_torus, 0.0);
  EXPECT_LT(t_torus, 10.0 * t_tree);
}

}  // namespace
}  // namespace polaris::simrt
