// Multipath enumeration (Topology::route_choices / route_k) and the
// SimNetwork adaptive routing mode built on it.
//
// The contract under test, in order of importance:
//   1. Choice 0 IS the oblivious route — same cached object, not a copy —
//      so consumers that never ask for k > 0 replay history exactly.
//   2. Every alternate is minimal (same hop count as the oblivious path)
//      and a real path (distinct from its siblings, cached stably).
//   3. Adaptive selection is a pure function of simulator state: two
//      identical runs make identical decisions, and under a synthetic
//      incast it spreads load across equal-cost uplinks that oblivious
//      routing would leave idle.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/support/check.hpp"

namespace polaris::fabric {
namespace {

// ---------------------------------------------------------------------------
// Path-set enumeration.

TEST(RouteChoices, SinglePathTopologiesReportOne) {
  const Crossbar xbar(8);
  for (NodeId a = 0; a < 8; ++a) {
    for (NodeId b = 0; b < 8; ++b) {
      EXPECT_EQ(xbar.route_choices(a, b), 1u);
    }
  }
}

TEST(RouteChoices, FatTreeWidthFollowsLocality) {
  const FatTree t(4);  // 16 hosts, 4 per pod, 2 per edge switch
  EXPECT_EQ(t.route_choices(0, 0), 1u);   // self
  EXPECT_EQ(t.route_choices(0, 1), 1u);   // same edge switch
  EXPECT_EQ(t.route_choices(0, 2), 2u);   // same pod: k/2 agg choices
  EXPECT_EQ(t.route_choices(0, 4), 4u);   // cross-pod: (k/2)^2 cores
  EXPECT_EQ(t.route_choices(15, 0), 4u);
}

TEST(RouteChoices, TorusWidthCountsMovingDimensions) {
  const Torus2D t2(4, 4);
  EXPECT_EQ(t2.route_choices(0, 0), 1u);
  EXPECT_EQ(t2.route_choices(0, 1), 1u);   // x only
  EXPECT_EQ(t2.route_choices(0, 4), 1u);   // y only
  EXPECT_EQ(t2.route_choices(0, 5), 2u);   // both: XY and YX
}

TEST(RouteK, ChoiceZeroIsTheObliviousRouteObject) {
  const FatTree ft(4);
  const Torus2D t2(4, 4);
  // Same cached vector, by address — not merely an equal copy.
  EXPECT_EQ(&ft.route_k(0, 4, 0), &ft.route(0, 4));
  EXPECT_EQ(&t2.route_k(0, 5, 0), &t2.route(0, 5));
}

TEST(RouteK, AlternateReferencesAreStable) {
  const FatTree t(4);
  const std::vector<LinkId>* first = &t.route_k(0, 4, 3);
  EXPECT_EQ(first, &t.route_k(0, 4, 3));
}

TEST(RouteK, OutOfRangeChoiceIsAContractViolation) {
  const FatTree t(4);
  EXPECT_THROW(t.route_k(0, 1, 1), support::ContractViolation);
  EXPECT_THROW(t.route_k(0, 4, 4), support::ContractViolation);
}

/// Every alternate must be minimal (same hop count as the oblivious path)
/// and the choices must be pairwise distinct.
void expect_minimal_distinct(const Topology& t, NodeId src, NodeId dst) {
  const std::size_t choices = t.route_choices(src, dst);
  const std::size_t hops = t.route(src, dst).size();
  std::set<std::vector<LinkId>> seen;
  for (std::size_t k = 0; k < choices; ++k) {
    const std::vector<LinkId>& path = t.route_k(src, dst, k);
    EXPECT_EQ(path.size(), hops) << t.name() << " " << src << "->" << dst
                                 << " k=" << k;
    EXPECT_TRUE(seen.insert(path).second)
        << "duplicate path " << src << "->" << dst << " k=" << k;
  }
  EXPECT_EQ(seen.size(), choices);
}

TEST(RouteK, FatTreeAlternatesAreMinimalAndDistinct) {
  const FatTree t(4);
  for (NodeId src = 0; src < 16; ++src) {
    for (NodeId dst : {NodeId{2}, NodeId{5}, NodeId{10}, NodeId{15}}) {
      if (src == dst) continue;
      expect_minimal_distinct(t, src, dst);
    }
  }
}

TEST(RouteK, TorusAlternatesAreMinimalAndDistinct) {
  const Torus2D t2(4, 4);
  expect_minimal_distinct(t2, 0, 5);
  expect_minimal_distinct(t2, 3, 12);
  expect_minimal_distinct(t2, 1, 14);
}

TEST(RouteK, CrossPodAlternatesSpreadOverBothUplinks) {
  const FatTree t(4);
  // The second link of a cross-pod path is the edge->aggregation uplink;
  // the 4 core choices must exercise both of the edge switch's uplinks.
  std::set<LinkId> uplinks;
  for (std::size_t k = 0; k < t.route_choices(0, 4); ++k) {
    uplinks.insert(t.route_k(0, 4, k)[1]);
  }
  EXPECT_EQ(uplinks.size(), 2u);  // k/2 aggregation switches
}

// ---------------------------------------------------------------------------
// Adaptive routing on a live network.

struct DoneCount {
  int ok = 0;
  int node_down = 0;
  int link_down = 0;

  static void cb(void* ctx, XferStatus status) {
    auto& d = *static_cast<DoneCount*>(ctx);
    switch (status) {
      case XferStatus::kOk: ++d.ok; break;
      case XferStatus::kNodeDown: ++d.node_down; break;
      case XferStatus::kLinkDown: ++d.link_down; break;
    }
  }
};

/// The synthetic incast: hosts 0 and 1 (same edge switch, pod 0) each send
/// to hosts 4 and 6 (pod 1).  Both destinations map to the SAME oblivious
/// edge->agg uplink (dst-mod selection), so oblivious routing funnels all
/// four messages through one uplink while its equal-cost twin sits idle.
struct IncastRun {
  des::SimTime final_time = 0;
  NetworkStats stats{};
  double busy_oblivious_uplink = 0.0;
  double busy_alternate_uplink = 0.0;
  DoneCount done{};
};

IncastRun run_incast(const FatTree& topo, RoutingMode mode) {
  des::Engine engine;
  SimNetwork net(engine, fabrics::myrinet2000(), topo);
  net.set_routing(mode);

  // Identify the two edge0 uplinks from the enumerated path set.
  const LinkId oblivious_up = topo.route(0, 4)[1];
  LinkId alternate_up = oblivious_up;
  for (std::size_t k = 1; k < topo.route_choices(0, 4); ++k) {
    const LinkId l = topo.route_k(0, 4, k)[1];
    if (l != oblivious_up) {
      alternate_up = l;
      break;
    }
  }
  EXPECT_NE(alternate_up, oblivious_up);

  IncastRun out;
  constexpr std::uint64_t kBytes = 256 * 1024;
  for (NodeId src : {NodeId{0}, NodeId{1}}) {
    for (NodeId dst : {NodeId{4}, NodeId{6}}) {
      net.transfer_raw(src, dst, kBytes, &DoneCount::cb, &out.done);
    }
  }
  engine.run();

  out.final_time = engine.now();
  out.stats = net.stats();
  out.busy_oblivious_uplink = net.link_busy_seconds(oblivious_up);
  out.busy_alternate_uplink = net.link_busy_seconds(alternate_up);
  return out;
}

TEST(AdaptiveRouting, ObliviousFunnelsIncastThroughOneUplink) {
  const FatTree topo(4);
  const IncastRun r = run_incast(topo, RoutingMode::kOblivious);
  EXPECT_EQ(r.done.ok, 4);
  EXPECT_GT(r.busy_oblivious_uplink, 0.0);
  EXPECT_EQ(r.busy_alternate_uplink, 0.0);
  EXPECT_EQ(r.stats.adaptive_decisions, 0u);
  EXPECT_EQ(r.stats.adaptive_rerouted, 0u);
}

TEST(AdaptiveRouting, AdaptiveSpreadsIncastAcrossEqualCostUplinks) {
  const FatTree topo(4);
  const IncastRun adaptive = run_incast(topo, RoutingMode::kAdaptive);
  EXPECT_EQ(adaptive.done.ok, 4);
  EXPECT_GT(adaptive.stats.adaptive_decisions, 0u);
  EXPECT_GT(adaptive.stats.adaptive_rerouted, 0u);
  EXPECT_GT(adaptive.busy_oblivious_uplink, 0.0);
  EXPECT_GT(adaptive.busy_alternate_uplink, 0.0);

  // Dodging the hot uplink must not make anyone slower than the funnel.
  const IncastRun oblivious = run_incast(topo, RoutingMode::kOblivious);
  EXPECT_LE(adaptive.final_time, oblivious.final_time);
}

TEST(AdaptiveRouting, DecisionsAreDeterministic) {
  const FatTree topo(4);
  const IncastRun a = run_incast(topo, RoutingMode::kAdaptive);
  const IncastRun b = run_incast(topo, RoutingMode::kAdaptive);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.stats.adaptive_rerouted, b.stats.adaptive_rerouted);
  EXPECT_EQ(a.stats.messages_bypassed, b.stats.messages_bypassed);
  EXPECT_EQ(a.stats.flights_materialized, b.stats.flights_materialized);
  EXPECT_DOUBLE_EQ(a.busy_oblivious_uplink, b.busy_oblivious_uplink);
  EXPECT_DOUBLE_EQ(a.busy_alternate_uplink, b.busy_alternate_uplink);
}

TEST(AdaptiveRouting, ReroutesAroundDownedLinkObliviousRefuses) {
  const FatTree topo(4);
  const LinkId oblivious_up = topo.route(0, 4)[1];

  for (const RoutingMode mode :
       {RoutingMode::kOblivious, RoutingMode::kAdaptive}) {
    des::Engine engine;
    SimNetwork net(engine, fabrics::myrinet2000(), topo);
    net.set_routing(mode);
    net.enable_faults();
    net.set_link_up(oblivious_up, false);

    DoneCount done;
    net.transfer_raw(0, 4, 4096, &DoneCount::cb, &done);
    engine.run();

    if (mode == RoutingMode::kOblivious) {
      EXPECT_EQ(done.link_down, 1);  // deterministic route hits the dead link
      EXPECT_EQ(done.ok, 0);
    } else {
      EXPECT_EQ(done.ok, 1);  // candidates crossing the dead link are skipped
      EXPECT_EQ(done.link_down, 0);
      EXPECT_GE(net.stats().adaptive_rerouted, 1u);
    }
  }
}

}  // namespace
}  // namespace polaris::fabric
