// Collectives executed for real over OS threads: the same schedules the
// local executor proved correct, now through the shared-memory transport.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "polaris/rt/runtime.hpp"

namespace polaris::rt {
namespace {

TEST(RtCollectives, BarrierCompletesAtManyRankCounts) {
  for (int p : {1, 2, 3, 8}) {
    ShmWorld world(p);
    std::atomic<int> through{0};
    world.run([&](Communicator& c) {
      c.barrier();
      ++through;
      c.barrier();
    });
    EXPECT_EQ(through.load(), p);
  }
}

TEST(RtCollectives, BroadcastFromEveryRoot) {
  constexpr int kRanks = 5;
  ShmWorld world(kRanks);
  for (coll::Algorithm a :
       coll::algorithms_for(coll::Collective::kBroadcast, kRanks)) {
    for (int root = 0; root < kRanks; ++root) {
      const auto schedule = coll::broadcast(kRanks, 16, root, a);
      std::array<std::vector<double>, kRanks> out;
      world.run([&](Communicator& c) {
        std::vector<double> buf(16, c.rank() == root ? 3.25 : -1.0);
        c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
        out[c.rank()] = buf;
      });
      for (int r = 0; r < kRanks; ++r) {
        for (double v : out[r]) {
          EXPECT_DOUBLE_EQ(v, 3.25)
              << coll::to_string(a) << " root=" << root;
        }
      }
    }
  }
}

TEST(RtCollectives, AllreduceSumAcrossSizes) {
  for (int p : {2, 4, 7}) {
    for (std::size_t n : {1u, 64u, 5000u}) {
      ShmWorld world(p);
      std::vector<std::vector<double>> results(p);
      world.run([&](Communicator& c) {
        std::vector<double> buf(n);
        for (std::size_t i = 0; i < n; ++i) {
          buf[i] = static_cast<double>(c.rank() + 1) * (i + 1);
        }
        c.allreduce(buf, coll::ReduceOp::kSum);
        results[c.rank()] = buf;
      });
      const double ranksum = p * (p + 1) / 2.0;
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(results[r][i], ranksum * (i + 1), 1e-9)
              << "p=" << p << " n=" << n;
        }
      }
    }
  }
}

TEST(RtCollectives, AllreduceMax) {
  constexpr int kRanks = 4;
  ShmWorld world(kRanks);
  std::array<double, kRanks> results{};
  world.run([&](Communicator& c) {
    std::vector<double> buf{static_cast<double>(c.rank() * 10)};
    c.allreduce(buf, coll::ReduceOp::kMax);
    results[c.rank()] = buf[0];
  });
  for (double v : results) EXPECT_DOUBLE_EQ(v, 30.0);
}

TEST(RtCollectives, ReduceToNonZeroRoot) {
  constexpr int kRanks = 6;
  ShmWorld world(kRanks);
  for (coll::Algorithm a :
       coll::algorithms_for(coll::Collective::kReduce, kRanks)) {
    const auto schedule = coll::reduce(kRanks, 1, /*root=*/4, a);
    double root_result = 0;
    world.run([&](Communicator& c) {
      std::vector<double> buf{1.0};
      c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
      if (c.rank() == 4) root_result = buf[0];
    });
    EXPECT_DOUBLE_EQ(root_result, 6.0) << coll::to_string(a);
  }
}

TEST(RtCollectives, AllgatherAssemblesAllBlocks) {
  constexpr int kRanks = 4;
  constexpr std::size_t kBlock = 3;
  ShmWorld world(kRanks);
  for (coll::Algorithm a :
       coll::algorithms_for(coll::Collective::kAllgather, kRanks)) {
    const auto schedule = coll::allgather(kRanks, kBlock, a);
    std::array<std::vector<double>, kRanks> results;
    world.run([&](Communicator& c) {
      std::vector<double> buf(kRanks * kBlock, -1.0);
      for (std::size_t i = 0; i < kBlock; ++i) {
        buf[c.rank() * kBlock + i] = c.rank() * 100.0 + i;
      }
      c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
      results[c.rank()] = buf;
    });
    for (int r = 0; r < kRanks; ++r) {
      for (int s = 0; s < kRanks; ++s) {
        for (std::size_t i = 0; i < kBlock; ++i) {
          ASSERT_DOUBLE_EQ(results[r][s * kBlock + i], s * 100.0 + i)
              << coll::to_string(a);
        }
      }
    }
  }
}

TEST(RtCollectives, AlltoallTransposesBlocks) {
  constexpr int kRanks = 4;
  constexpr std::size_t kBlock = 2;
  ShmWorld world(kRanks);
  const auto schedule =
      coll::alltoall(kRanks, kBlock, coll::Algorithm::kPairwise);
  std::array<std::vector<double>, kRanks> results;
  world.run([&](Communicator& c) {
    std::vector<double> in(kRanks * kBlock), out(kRanks * kBlock, -1.0);
    for (int d = 0; d < kRanks; ++d) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        in[d * kBlock + i] = c.rank() * 1000.0 + d * 10.0 + i;
      }
    }
    c.run_schedule(schedule, out, coll::ReduceOp::kSum, in);
    results[c.rank()] = out;
  });
  for (int r = 0; r < kRanks; ++r) {
    for (int s = 0; s < kRanks; ++s) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        ASSERT_DOUBLE_EQ(results[r][s * kBlock + i],
                         s * 1000.0 + r * 10.0 + i);
      }
    }
  }
}

TEST(RtCollectives, ExplicitScheduleRunsAllAlgorithms) {
  // Force each allreduce algorithm through the real transport.
  constexpr int kRanks = 8;
  for (coll::Algorithm a :
       coll::algorithms_for(coll::Collective::kAllreduce, kRanks)) {
    ShmWorld world(kRanks);
    std::array<double, kRanks> results{};
    const auto schedule = coll::allreduce(kRanks, 257, a);  // odd count
    world.run([&](Communicator& c) {
      std::vector<double> buf(257, 1.0);
      c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
      results[c.rank()] = buf[128];
    });
    for (double v : results) {
      EXPECT_DOUBLE_EQ(v, kRanks) << coll::to_string(a);
    }
  }
}

TEST(RtCollectives, LargeAllreduceUsesRendezvous) {
  ShmOptions opts;
  opts.eager_threshold = 1024;
  ShmWorld world(4, opts);
  std::atomic<std::uint64_t> rdv{0};
  world.run([&](Communicator& c) {
    std::vector<double> buf(1 << 16, 1.0);  // 512 KiB
    c.allreduce(buf, coll::ReduceOp::kSum);
    EXPECT_NEAR(buf[0], 4.0, 1e-9);
    rdv += c.rendezvous_sends();
  });
  EXPECT_GT(rdv.load(), 0u);
}

TEST(RtCollectives, RepeatedCollectivesOnSameWorld) {
  ShmWorld world(4);
  for (int iter = 0; iter < 5; ++iter) {
    world.run([&](Communicator& c) {
      std::vector<double> buf{1.0};
      c.allreduce(buf, coll::ReduceOp::kSum);
      EXPECT_DOUBLE_EQ(buf[0], 4.0);
    });
  }
}

TEST(RtCollectives, ReduceScatterLeavesOwnBlockReduced) {
  constexpr int kRanks = 4;
  constexpr std::size_t kBlock = 3;
  ShmWorld world(kRanks);
  for (coll::Algorithm a :
       coll::algorithms_for(coll::Collective::kReduceScatter, kRanks)) {
    const auto schedule = coll::reduce_scatter(kRanks, kBlock, a);
    std::array<std::vector<double>, kRanks> results;
    world.run([&](Communicator& c) {
      std::vector<double> buf(kRanks * kBlock);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<double>(c.rank() + 1) * (i + 1);
      }
      c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
      results[c.rank()] = buf;
    });
    const double ranksum = kRanks * (kRanks + 1) / 2.0;
    for (int r = 0; r < kRanks; ++r) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        const std::size_t idx = r * kBlock + i;
        ASSERT_NEAR(results[r][idx], ranksum * (idx + 1), 1e-9)
            << coll::to_string(a) << " " << r << i;
      }
    }
  }
}

TEST(RtCollectives, ScanComputesInclusivePrefix) {
  constexpr int kRanks = 6;
  ShmWorld world(kRanks);
  const auto schedule = coll::scan(kRanks, 1);
  std::array<double, kRanks> results{};
  world.run([&](Communicator& c) {
    std::vector<double> buf{static_cast<double>(c.rank() + 1)};
    c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
    results[c.rank()] = buf[0];
  });
  for (int r = 0; r < kRanks; ++r) {
    ASSERT_DOUBLE_EQ(results[r], (r + 1) * (r + 2) / 2.0) << r;
  }
}

TEST(RtCollectives, BruckAllgatherOverThreads) {
  constexpr int kRanks = 5;  // non-power-of-two: Bruck's home turf
  constexpr std::size_t kBlock = 2;
  ShmWorld world(kRanks);
  const auto schedule =
      coll::allgather(kRanks, kBlock, coll::Algorithm::kBruck);
  std::array<std::vector<double>, kRanks> results;
  world.run([&](Communicator& c) {
    std::vector<double> buf(kRanks * kBlock, -1.0);
    for (std::size_t i = 0; i < kBlock; ++i) {
      buf[c.rank() * kBlock + i] = c.rank() * 10.0 + i;
    }
    c.run_schedule(schedule, buf, coll::ReduceOp::kSum);
    results[c.rank()] = buf;
  });
  for (int r = 0; r < kRanks; ++r) {
    for (int s = 0; s < kRanks; ++s) {
      for (std::size_t i = 0; i < kBlock; ++i) {
        ASSERT_DOUBLE_EQ(results[r][s * kBlock + i], s * 10.0 + i);
      }
    }
  }
}

}  // namespace
}  // namespace polaris::rt
