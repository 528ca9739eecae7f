// BlockAllocator: buddy allocation over locality-preserving linearizations.
//
// The properties pinned here are the ones the resource manager's placement
// quality rests on: aligned power-of-two runs of the linear order are
// compact sub-bricks of the torus (subtrees of the fat tree), allocation
// never fails while enough non-drained nodes are free, contiguity holds
// whenever a large-enough aligned block exists, and the free structure
// survives arbitrary churn (randomized invariant checks + determinism).
#include "polaris/rm/block_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "polaris/fabric/topology.hpp"
#include "polaris/support/rng.hpp"

namespace polaris::rm {
namespace {

TEST(LinearOrderTest, IdentityIsIdentity) {
  const LinearOrder o = LinearOrder::identity(8);
  ASSERT_EQ(o.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(o.to_node[i], i);
    EXPECT_EQ(o.to_linear[i], i);
  }
}

void expect_permutation(const LinearOrder& o, std::size_t n) {
  ASSERT_EQ(o.to_node.size(), n);
  ASSERT_EQ(o.to_linear.size(), n);
  std::vector<fabric::NodeId> sorted = o.to_node;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(sorted[i], i);
    EXPECT_EQ(o.to_linear[o.to_node[i]], i);
  }
}

// Every aligned power-of-two run of the linear order must be a compact
// sub-brick: the bounding box of its coordinates has volume == run length.
void expect_brick_runs(const fabric::Topology& topo) {
  const std::vector<std::size_t> dims = topo.dims();
  ASSERT_FALSE(dims.empty());
  const LinearOrder o = LinearOrder::for_topology(topo);
  const std::size_t n = topo.node_count();
  expect_permutation(o, n);
  for (std::uint32_t len = 1; len <= n; len *= 2) {
    for (std::uint32_t start = 0; start + len <= n; start += len) {
      std::array<std::size_t, 3> mn{n, n, n};
      std::array<std::size_t, 3> mx{0, 0, 0};
      for (std::uint32_t i = start; i < start + len; ++i) {
        std::size_t id = o.to_node[i];
        for (std::size_t a = 0; a < dims.size(); ++a) {
          const std::size_t c = id % dims[a];
          id /= dims[a];
          mn[a] = std::min(mn[a], c);
          mx[a] = std::max(mx[a], c);
        }
      }
      std::size_t volume = 1;
      for (std::size_t a = 0; a < dims.size(); ++a) {
        volume *= mx[a] - mn[a] + 1;
      }
      EXPECT_EQ(volume, len) << "run [" << start << ", " << start + len
                             << ") is not a compact brick";
    }
  }
}

TEST(LinearOrderTest, Torus2DRunsAreBricks) {
  expect_brick_runs(fabric::Torus2D(8, 8));
}

TEST(LinearOrderTest, RectangularTorusRunsAreBricks) {
  expect_brick_runs(fabric::Torus2D(16, 4));
}

TEST(BlockAllocatorTest, AlignedPow2AllocationsAreContiguous) {
  fabric::Torus2D topo(16, 16);
  BlockAllocator alloc(topo);
  for (std::uint32_t width = 1; width <= 256; width *= 2) {
    Allocation a;
    ASSERT_TRUE(alloc.allocate(width, /*owner=*/7, a));
    EXPECT_TRUE(a.contiguous()) << "width " << width;
    EXPECT_EQ(a.nodes.size(), width);
    alloc.check_invariants();
    alloc.release(a);
    alloc.check_invariants();
    EXPECT_EQ(alloc.free_count(), 256u);
  }
  EXPECT_EQ(alloc.stats().fragmented, 0u);
}

TEST(BlockAllocatorTest, NonPow2WidthsStayContiguousOnEmptyMachine) {
  BlockAllocator alloc(fabric::Torus2D(16, 16));
  for (const std::uint32_t width : {3u, 5u, 19u, 100u, 255u}) {
    Allocation a;
    ASSERT_TRUE(alloc.allocate(width, /*owner=*/1, a));
    EXPECT_TRUE(a.contiguous()) << "width " << width;
    EXPECT_EQ(a.nodes.size(), width);
    alloc.release(a);
    alloc.check_invariants();
  }
}

TEST(BlockAllocatorTest, ExhaustionFailsCleanly) {
  BlockAllocator alloc(64);
  Allocation all;
  ASSERT_TRUE(alloc.allocate(64, 1, all));
  EXPECT_EQ(alloc.free_count(), 0u);
  Allocation one;
  EXPECT_FALSE(alloc.allocate(1, 2, one));
  alloc.release(all);
  EXPECT_TRUE(alloc.allocate(1, 2, one));
  alloc.check_invariants();
}

TEST(BlockAllocatorTest, FragmentedFallbackNeverFailsWhileFree) {
  BlockAllocator alloc(64);
  std::vector<Allocation> jobs(16);
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(alloc.allocate(4, i, jobs[i]));
  }
  // Free every other job: 32 free nodes in 8 islands of 4.
  for (std::uint32_t i = 0; i < 16; i += 2) alloc.release(jobs[i]);
  alloc.check_invariants();
  EXPECT_EQ(alloc.free_count(), 32u);
  Allocation wide;
  ASSERT_TRUE(alloc.allocate(20, 99, wide));
  EXPECT_EQ(wide.nodes.size(), 20u);
  EXPECT_GT(wide.fragments(), 1u);
  EXPECT_GE(alloc.stats().fragmented, 1u);
  alloc.check_invariants();
  EXPECT_EQ(alloc.free_count(), 12u);
}

TEST(BlockAllocatorTest, FullCoalesceAfterChurn) {
  BlockAllocator alloc(128);
  support::Random rng(11);
  std::vector<Allocation> live;
  std::uint32_t tag = 0;
  while (alloc.free_count() > 0) {
    const auto width = static_cast<std::uint32_t>(rng.uniform_int(
        1, std::min<std::int64_t>(
               static_cast<std::int64_t>(alloc.free_count()), 9)));
    Allocation a;
    ASSERT_TRUE(alloc.allocate(width, tag++, a));
    live.push_back(a);
  }
  while (!live.empty()) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    alloc.release(live[i]);
    live[i] = live.back();
    live.pop_back();
  }
  alloc.check_invariants();
  EXPECT_EQ(alloc.free_count(), 128u);
  // Buddy coalescing must have restored the single maximal block.
  Allocation whole;
  ASSERT_TRUE(alloc.allocate(128, 1, whole));
  EXPECT_TRUE(whole.contiguous());
  EXPECT_GE(alloc.stats().merges, 1u);
}

// Random alloc/release churn with an external ownership mirror; returns a
// flat log of every granted node (and a release marker) so two same-seed
// runs can be compared for determinism.
std::vector<std::uint32_t> churn(BlockAllocator& alloc, std::uint64_t seed,
                                 int steps) {
  constexpr std::uint32_t kReleaseMarker = 0xfffffffeu;
  support::Random rng(seed);
  std::vector<Allocation> live;
  std::vector<std::uint32_t> tags;
  std::vector<std::uint32_t> mirror(alloc.node_count(), kNilIndex);
  std::vector<std::uint32_t> log;
  std::uint32_t next_tag = 0;
  for (int i = 0; i < steps; ++i) {
    const bool can_alloc = alloc.free_count() > 0;
    if (live.empty() || (can_alloc && rng.bernoulli(0.55))) {
      const auto width = static_cast<std::uint32_t>(rng.uniform_int(
          1, std::min<std::int64_t>(
                 static_cast<std::int64_t>(alloc.free_count()), 16)));
      Allocation a;
      const std::uint32_t tag = next_tag++;
      EXPECT_TRUE(alloc.allocate(width, tag, a));
      EXPECT_EQ(a.nodes.size(), width);
      for (const fabric::NodeId nd : a.nodes) {
        EXPECT_EQ(mirror[nd], kNilIndex) << "double allocation of " << nd;
        mirror[nd] = tag;
        EXPECT_EQ(alloc.owner_of(nd), tag);
        log.push_back(nd);
      }
      live.push_back(a);
      tags.push_back(tag);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      for (const fabric::NodeId nd : live[pick].nodes) {
        EXPECT_EQ(alloc.owner_of(nd), tags[pick]);
        mirror[nd] = kNilIndex;
      }
      alloc.release(live[pick]);
      live[pick] = live.back();
      live.pop_back();
      tags[pick] = tags.back();
      tags.pop_back();
      log.push_back(kReleaseMarker);
    }
    alloc.check_invariants();
    const auto mirror_free = static_cast<std::size_t>(
        std::count(mirror.begin(), mirror.end(), kNilIndex));
    EXPECT_EQ(alloc.free_count() + alloc.drained_count(), mirror_free);
  }
  for (const Allocation& a : live) alloc.release(a);
  alloc.check_invariants();
  EXPECT_EQ(alloc.free_count(), alloc.node_count());
  return log;
}

TEST(BlockAllocatorTest, RandomizedInvariantsTorus) {
  BlockAllocator alloc(fabric::Torus2D(8, 8));
  churn(alloc, 42, 600);
}

TEST(BlockAllocatorTest, RandomizedInvariantsNonPow2Torus) {
  BlockAllocator alloc(fabric::Torus2D(6, 6));
  churn(alloc, 43, 600);
}

TEST(BlockAllocatorTest, RandomizedInvariantsFatTree) {
  BlockAllocator alloc(fabric::FatTree(4));
  churn(alloc, 44, 400);
}

TEST(BlockAllocatorTest, DeterministicAcrossRuns) {
  fabric::Torus2D topo(8, 8);
  BlockAllocator a(topo);
  BlockAllocator b(topo);
  EXPECT_EQ(churn(a, 1234, 500), churn(b, 1234, 500));
}

TEST(BlockAllocatorTest, DrainIdleNodeLeavesFreePool) {
  BlockAllocator alloc(64);
  alloc.drain(10);
  EXPECT_TRUE(alloc.drained(10));
  EXPECT_EQ(alloc.free_count(), 63u);
  EXPECT_EQ(alloc.drained_count(), 1u);
  alloc.check_invariants();
  Allocation a;
  EXPECT_FALSE(alloc.allocate(64, 1, a));
  ASSERT_TRUE(alloc.allocate(63, 1, a));
  EXPECT_EQ(std::count(a.nodes.begin(), a.nodes.end(), fabric::NodeId{10}),
            0);
  alloc.release(a);
  alloc.undrain(10);
  EXPECT_EQ(alloc.free_count(), 64u);
  alloc.check_invariants();
}

TEST(BlockAllocatorTest, DrainBusyNodeWithheldOnRelease) {
  BlockAllocator alloc(64);
  Allocation a;
  ASSERT_TRUE(alloc.allocate(4, 1, a));
  const fabric::NodeId victim = a.nodes[0];
  alloc.drain(victim);
  EXPECT_TRUE(alloc.drained(victim));
  EXPECT_EQ(alloc.owner_of(victim), 1u);  // still owned while running
  alloc.release(a);
  alloc.check_invariants();
  EXPECT_EQ(alloc.free_count(), 63u);  // drained node withheld
  EXPECT_EQ(alloc.owner_of(victim), kNilIndex);
  alloc.undrain(victim);
  EXPECT_EQ(alloc.free_count(), 64u);
  alloc.check_invariants();
}

TEST(BlockAllocatorTest, FatTreeBlockStaysInsideOnePod) {
  fabric::FatTree topo(4);  // 16 hosts, 4 per pod
  BlockAllocator alloc(topo);
  Allocation a;
  ASSERT_TRUE(alloc.allocate(4, 1, a));
  ASSERT_TRUE(a.contiguous());
  for (const fabric::NodeId x : a.nodes) {
    for (const fabric::NodeId y : a.nodes) {
      if (x == y) continue;
      // Intra-pod routes never climb to a core switch (<= 4 links);
      // cross-pod routes take 6.
      EXPECT_LE(topo.switch_hops(x, y), 4u);
    }
  }
}

TEST(BlockAllocatorTest, TorusBlockTighterThanScatter) {
  fabric::Torus2D topo(16, 16);
  BlockAllocator alloc(topo);
  Allocation a;
  ASSERT_TRUE(alloc.allocate(16, 1, a));
  ASSERT_TRUE(a.contiguous());
  auto max_hops = [&](const std::vector<fabric::NodeId>& nodes) {
    std::size_t worst = 0;
    for (const fabric::NodeId x : nodes) {
      for (const fabric::NodeId y : nodes) {
        if (x != y) worst = std::max(worst, topo.switch_hops(x, y));
      }
    }
    return worst;
  };
  std::vector<fabric::NodeId> scatter;
  for (std::uint32_t i = 0; i < 16; ++i) {
    scatter.push_back((i * 83) % 256);  // deterministic spread
  }
  EXPECT_LT(max_hops(a.nodes), max_hops(scatter));
}

}  // namespace
}  // namespace polaris::rm
