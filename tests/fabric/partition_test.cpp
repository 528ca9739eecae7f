#include "polaris/fabric/partition.hpp"

#include <gtest/gtest.h>

#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/support/check.hpp"

namespace polaris::fabric {
namespace {

TEST(Partition, BlockSplitIsContiguousAndBalanced) {
  const auto p =
      make_block_partition(100, {10, 10}, fabrics::myrinet2000(), 8);
  ASSERT_EQ(p.first_node.size(), 9u);
  EXPECT_EQ(p.first_node.front(), 0u);
  EXPECT_EQ(p.first_node.back(), 100u);
  std::size_t min_sz = 100, max_sz = 0;
  for (std::size_t s = 0; s < 8; ++s) {
    min_sz = std::min(min_sz, p.shard_size(s));
    max_sz = std::max(max_sz, p.shard_size(s));
  }
  EXPECT_LE(max_sz - min_sz, 1u);  // near-equal blocks
}

TEST(Partition, ShardOfAgreesWithTheBlockTable) {
  for (const std::size_t shards : {1u, 3u, 7u, 8u}) {
    const auto p =
        make_block_partition(53, {}, fabrics::myrinet2000(), shards);
    for (NodeId n = 0; n < 53; ++n) {
      const std::size_t s = p.shard_of(n);
      ASSERT_LT(s, shards);
      EXPECT_GE(n, p.first_node[s]);
      EXPECT_LT(n, p.first_node[s + 1]);
    }
  }
}

TEST(Partition, LookaheadComesFromTheMinCutPath) {
  const auto params = fabrics::myrinet2000();
  const auto torus = make_block_partition(64, {8, 8}, params, 4);
  EXPECT_EQ(torus.min_cut_switch_hops, 2u);
  EXPECT_DOUBLE_EQ(torus.lookahead_s, params.path_latency(2));
  // Flat (single-switch / tree) fabrics may join two hosts at one switch.
  const auto flat = make_block_partition(64, {}, params, 4);
  EXPECT_EQ(flat.min_cut_switch_hops, 1u);
  EXPECT_DOUBLE_EQ(flat.lookahead_s, params.path_latency(1));
  EXPECT_GT(torus.lookahead_s, 0.0);
  EXPECT_LT(flat.lookahead_s, torus.lookahead_s);
}

TEST(Partition, MinCutHopsIsASoundBoundOnTheRealTorus) {
  // Every cross-shard pair of a real torus must pay at least the claimed
  // min-cut switch hops — that bound is what makes the lookahead safe.
  const Torus2D topo(8, 8);
  const auto p = make_block_partition(topo.node_count(), topo.dims(),
                                      fabrics::myrinet2000(), 4);
  std::size_t observed_min = ~std::size_t{0};
  for (NodeId a = 0; a < 64; ++a) {
    for (NodeId b = 0; b < 64; ++b) {
      if (p.shard_of(a) == p.shard_of(b)) continue;
      observed_min = std::min(observed_min, topo.switch_hops(a, b));
    }
  }
  EXPECT_GE(observed_min, p.min_cut_switch_hops);
  EXPECT_EQ(observed_min, 2u);  // adjacent rows achieve the bound exactly
}

TEST(Partition, RejectsDegenerateShardCounts) {
  EXPECT_THROW(make_block_partition(4, {}, fabrics::myrinet2000(), 0),
               support::ContractViolation);
  EXPECT_THROW(make_block_partition(4, {}, fabrics::myrinet2000(), 5),
               support::ContractViolation);
}

}  // namespace
}  // namespace polaris::fabric
