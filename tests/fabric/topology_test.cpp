#include "polaris/fabric/topology.hpp"

#include <gtest/gtest.h>

#include <set>

#include "polaris/fabric/diameter_scan.hpp"
#include "polaris/support/check.hpp"

namespace polaris::fabric {
namespace {

TEST(Crossbar, TwoHopsBetweenAnyDistinctPair) {
  Crossbar x(8);
  EXPECT_EQ(x.node_count(), 8u);
  EXPECT_EQ(x.switch_count(), 1u);
  EXPECT_EQ(x.link_count(), 16u);  // up+down per host
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_EQ(x.hop_count(a, b), a == b ? 0u : 2u);
    }
  }
}

TEST(Crossbar, SharedDownlinkIsSameLink) {
  Crossbar x(4);
  // Routes 0->3 and 1->3 must share the switch->3 downlink.
  const auto r0 = x.route(0, 3);
  const auto r1 = x.route(1, 3);
  EXPECT_EQ(r0.back(), r1.back());
  EXPECT_NE(r0.front(), r1.front());
}

TEST(Crossbar, SelfRouteIsEmpty) {
  Crossbar x(4);
  EXPECT_TRUE(x.route(2, 2).empty());
}

TEST(FatTree, SizesMatchFormula) {
  FatTree t(4);
  EXPECT_EQ(t.node_count(), 16u);      // k^3/4
  EXPECT_EQ(t.switch_count(), 20u);    // k^2 + k^2/4
  FatTree t8(8);
  EXPECT_EQ(t8.node_count(), 128u);
}

TEST(FatTree, HopCountsByLocality) {
  FatTree t(4);  // pods of 4 hosts, edges of 2 hosts
  EXPECT_EQ(t.hop_count(0, 1), 2u);   // same edge switch
  EXPECT_EQ(t.hop_count(0, 2), 4u);   // same pod, different edge
  EXPECT_EQ(t.hop_count(0, 15), 6u);  // cross-pod via core
}

TEST(FatTree, RouteEndsAreConsistent) {
  FatTree t(4);
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      if (a == b) continue;
      const auto& path = t.route(a, b);
      EXPECT_GE(path.size(), 2u);
      EXPECT_LE(path.size(), 6u);
      // No repeated links within a path (loop-free routing).
      std::set<LinkId> seen(path.begin(), path.end());
      EXPECT_EQ(seen.size(), path.size());
    }
  }
}

TEST(FatTree, DestinationSpreadsAcrossCores) {
  // Different destinations from one source should not all share one core
  // uplink (D-mod-k spreading).
  FatTree t(4);
  std::set<LinkId> first_uplinks;
  for (NodeId dst = 4; dst < 16; ++dst) {  // cross-pod from host 0
    const auto& path = t.route(0, dst);
    if (path.size() == 6) first_uplinks.insert(path[1]);  // edge->agg choice
  }
  EXPECT_GT(first_uplinks.size(), 1u);
}

TEST(FatTree, RadixForCoversRequestedNodes) {
  EXPECT_EQ(FatTree::radix_for(16), 4u);
  EXPECT_EQ(FatTree::radix_for(17), 6u);
  EXPECT_EQ(FatTree::radix_for(128), 8u);
  EXPECT_EQ(FatTree::radix_for(1024), 16u);
}

TEST(FatTree, OddRadixRejected) {
  EXPECT_THROW(FatTree(5), support::ContractViolation);
}

TEST(Torus2D, HopCountIsManhattanPlusEndpoints) {
  Torus2D t(4, 4);
  EXPECT_EQ(t.node_count(), 16u);
  // (0,0) -> (1,0): inject + 1 mesh hop + eject = 3 links.
  EXPECT_EQ(t.hop_count(0, 1), 3u);
  // (0,0) -> (2,2): inject + 4 + eject.
  EXPECT_EQ(t.hop_count(0, 10), 6u);
}

TEST(Torus2D, WraparoundTakesShortestDirection) {
  Torus2D t(8, 2);
  // 0 -> 7 in x: wrap backwards = 1 mesh hop, not 7.
  EXPECT_EQ(t.hop_count(0, 7), 3u);
}

TEST(Torus2D, DiameterMatchesTheory) {
  Torus2D t(4, 4);
  // Max mesh distance = 2+2, + inject/eject.
  EXPECT_EQ(t.diameter(), 6u);
}

TEST(Topology, ClosedFormDiameterMatchesScanAtSmallScale) {
  // The closed forms must agree with brute force wherever brute force is
  // exact (node_count <= the scan cap).
  const Crossbar x(16);
  EXPECT_EQ(x.diameter(), scan_diameter(x));
  const FatTree ft(4);
  EXPECT_EQ(ft.diameter(), scan_diameter(ft));
  const Torus2D t2(4, 6);
  EXPECT_EQ(t2.diameter(), scan_diameter(t2));
}

TEST(Topology, ClosedFormDiameterIsExactBeyondScanCap) {
  // A 32x32 torus has 1024 hosts; the old sampled scan looked at the
  // first 128 only — a corner of the mesh — and under-reported.
  const Torus2D big(32, 32);
  EXPECT_EQ(big.diameter(), 2u + 16u + 16u);
  EXPECT_LT(scan_diameter(big, 128), big.diameter());
  // Fat trees are immune by construction (6 links at any radix), but the
  // closed form must still hold at scale.
  const FatTree ft16(16);  // 1024 hosts
  EXPECT_EQ(ft16.diameter(), 6u);
}

TEST(Topology, RouteRejectsOutOfRangeHosts) {
  Crossbar x(4);
  EXPECT_THROW((void)x.route(0, 4), support::ContractViolation);
}

TEST(MakeDefaultTopology, SmallGetsCrossbarLargeGetsFatTree) {
  auto small = make_default_topology(8);
  EXPECT_EQ(small->name(), "crossbar");
  auto large = make_default_topology(100);
  EXPECT_EQ(large->name(), "fat-tree-k8");
  EXPECT_GE(large->node_count(), 100u);
}

TEST(Topology, RouteCacheReturnsSameObject) {
  FatTree t(4);
  const auto& r1 = t.route(0, 5);
  const auto& r2 = t.route(0, 5);
  EXPECT_EQ(&r1, &r2);
}

}  // namespace
}  // namespace polaris::fabric
