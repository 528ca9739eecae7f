// Holds the LogGP executor and algorithm selection to their references in
// tests/oracles: predicted times bit-identical to the map-and-deque
// executor, selections identical to building and predicting every
// candidate, and the ring allreduce floor selection skips by never above
// the ring's predicted time.  The allocation budget shows the skip at
// work: a small allreduce at 1,024 ranks never builds the ring schedule.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "polaris/coll/algorithms.hpp"
#include "polaris/coll/cost.hpp"
#include "polaris/coll/reference_cost.hpp"
#include "polaris/fabric/loggp.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "heap_count.hpp"

namespace polaris::coll {
namespace {

constexpr Collective kAllCollectives[] = {
    Collective::kBarrier,   Collective::kBroadcast,
    Collective::kReduce,    Collective::kAllreduce,
    Collective::kAllgather, Collective::kAlltoall,
    Collective::kGather,    Collective::kScatter,
    Collective::kReduceScatter, Collective::kScan};

/// Roots a rooted collective is checked from: 0 and p - 1, except that
/// binomial gather and scatter exist only for root 0.
std::vector<int> roots_for(Collective kind, Algorithm a, std::size_t p) {
  const bool rooted = kind == Collective::kBroadcast ||
                      kind == Collective::kReduce ||
                      kind == Collective::kGather ||
                      kind == Collective::kScatter;
  const bool root0_only = a == Algorithm::kBinomial &&
                          (kind == Collective::kGather ||
                           kind == Collective::kScatter);
  if (!rooted || root0_only || p == 1) return {0};
  return {0, static_cast<int>(p) - 1};
}

std::vector<fabric::LogGPParams> nets(std::initializer_list<int> hops) {
  std::vector<fabric::LogGPParams> out;
  for (const auto& preset : fabric::fabrics::all()) {
    for (int h : hops) out.push_back(fabric::extract_loggp(preset, h));
  }
  return out;
}

TEST(PredictedSecondsReference, BitIdenticalForEveryCollectiveAndAlgorithm) {
  const auto grid_nets = nets({3});
  std::size_t compared = 0;
  for (std::size_t p : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 13u, 16u, 17u, 32u, 33u,
                        64u}) {
    for (Collective kind : kAllCollectives) {
      for (Algorithm a : algorithms_for(kind, p)) {
        for (std::size_t n : {0u, 1u, 3u, 64u, 1000u, 65536u}) {
          if (kind == Collective::kBarrier && n != 0) continue;
          for (int root : roots_for(kind, a, p)) {
            const Schedule s = make_schedule(kind, a, p, n, root);
            for (const auto& net : grid_nets) {
              for (std::size_t eb : {1u, 8u}) {
                const double got = predicted_seconds(s, net, eb);
                const double want = reference_predicted_seconds(s, net, eb);
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                          std::bit_cast<std::uint64_t>(want))
                    << s.name << " p=" << p << " n=" << n << " root=" << root
                    << " eb=" << eb << ": " << got << " vs " << want;
                ++compared;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 10'000u);
}

// The selection grid: every fabric preset at 1 and 3 hops; barrier,
// broadcast (roots 0 and p - 1) and allreduce; element counts from 0 to
// 1 Mi of 1- and 8-byte elements.
constexpr std::size_t kGridRanks[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 32,
                                      64, 100, 128};
constexpr std::size_t kGridCounts[] = {0, 1, 16, 1000, 65536,
                                       std::size_t{1} << 20};

TEST(SelectionReference, MatchesExhaustiveSelectionOnGrid) {
  const auto grid_nets = nets({1, 3});
  std::size_t calls = 0;
  std::size_t ring_wins = 0;
  for (std::size_t p : kGridRanks) {
    for (const auto& net : grid_nets) {
      EXPECT_EQ(select_algorithm(Collective::kBarrier, p, 0, 1, net),
                reference_select_algorithm(Collective::kBarrier, p, 0, 1, net));
      ++calls;
      for (std::size_t n : kGridCounts) {
        for (std::size_t eb : {1u, 8u}) {
          const Algorithm ar =
              select_algorithm(Collective::kAllreduce, p, n, eb, net);
          ASSERT_EQ(ar, reference_select_algorithm(Collective::kAllreduce, p,
                                                   n, eb, net))
              << "allreduce p=" << p << " n=" << n << " eb=" << eb;
          ring_wins += ar == Algorithm::kRing;
          ++calls;
          for (int root : {0, static_cast<int>(p) - 1}) {
            ASSERT_EQ(
                select_algorithm(Collective::kBroadcast, p, n, eb, net, root),
                reference_select_algorithm(Collective::kBroadcast, p, n, eb,
                                           net, root))
                << "broadcast p=" << p << " n=" << n << " eb=" << eb
                << " root=" << root;
            ++calls;
          }
        }
      }
    }
  }
  EXPECT_GT(calls, 4'000u);
  // Ring still wins where its floor does not lose (large payloads on
  // non-power-of-two rank counts), so the grid exercises both branches.
  EXPECT_GT(ring_wins, 0u);
}

TEST(SelectionReference, RingFloorNeverExceedsRingTime) {
  const auto grid_nets = nets({1, 3});
  for (std::size_t p : kGridRanks) {
    for (std::size_t n : kGridCounts) {
      const Schedule ring = allreduce(p, n, Algorithm::kRing);
      for (const auto& net : grid_nets) {
        const double floor = ring_allreduce_floor(p, net);
        for (std::size_t eb : {1u, 8u}) {
          ASSERT_LE(floor, reference_predicted_seconds(ring, net, eb))
              << "p=" << p << " n=" << n << " eb=" << eb;
        }
      }
    }
  }
}

TEST(Selection, SmallAllreduceBuildsNoRingSchedule) {
  // simrt's first CG allreduce on a 32x32 Myrinet torus: 16 elements of
  // 1 byte, priced at the hop count SimWorld::loggp() reads.
  const fabric::Torus2D torus(32, 32);
  const auto net = fabric::extract_loggp(
      fabric::fabrics::myrinet2000(),
      static_cast<int>(torus.switch_hops(0, 1023)));
  const std::uint64_t before = bench::heap_bytes();
  const Algorithm a = select_algorithm(Collective::kAllreduce, 1024, 16, 1, net);
  const std::uint64_t bytes = bench::heap_bytes() - before;
  EXPECT_EQ(a, Algorithm::kRecursiveDoubling);
  // Ring's 2 x 1,023 steps per rank alone would be ~130 MB.
  EXPECT_LT(bytes, std::uint64_t{16} << 20);
}

}  // namespace
}  // namespace polaris::coll
