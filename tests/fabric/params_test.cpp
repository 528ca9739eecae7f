#include "polaris/fabric/params.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace polaris::fabric {
namespace {

TEST(FabricPresets, AllHaveSixEntries) {
  EXPECT_EQ(fabrics::all().size(), 6u);
}

TEST(FabricPresets, NamesAreUniqueAndLookupable) {
  for (const auto& p : fabrics::all()) {
    EXPECT_EQ(fabrics::by_name(p.name).name, p.name);
  }
  EXPECT_THROW((void)fabrics::by_name("token-ring"), std::invalid_argument);
}

TEST(FabricPresets, BandwidthOrderingMatchesEra) {
  EXPECT_LT(fabrics::fast_ethernet().link_bw, fabrics::gig_ethernet().link_bw);
  EXPECT_LT(fabrics::gig_ethernet().link_bw, fabrics::myrinet2000().link_bw);
  EXPECT_LT(fabrics::myrinet2000().link_bw, fabrics::infiniband_4x().link_bw);
  EXPECT_LT(fabrics::infiniband_4x().link_bw, fabrics::optical_ocs().link_bw);
}

TEST(FabricPresets, UserLevelFabricsHaveMicrosecondOverheads) {
  for (const auto& p : fabrics::all()) {
    if (p.os_bypass) {
      EXPECT_LT(p.o_send, 2e-6) << p.name;
    } else {
      EXPECT_GT(p.o_send, 10e-6) << p.name;  // kernel crossing dominates
    }
  }
}

TEST(FabricPresets, RdmaImpliesOsBypass) {
  for (const auto& p : fabrics::all()) {
    if (p.rdma) {
      EXPECT_TRUE(p.os_bypass) << p.name;
    }
  }
}

TEST(FabricPresets, OnlyOpticalHasCircuitSetup) {
  for (const auto& p : fabrics::all()) {
    if (p.name == "optical-ocs") {
      EXPECT_GT(p.circuit_setup, 0.0);
    } else {
      EXPECT_EQ(p.circuit_setup, 0.0) << p.name;
    }
  }
}

TEST(FabricParams, PathLatencyComposition) {
  FabricParams p;
  p.wire_latency = 1e-6;
  p.switch_latency = 10e-6;
  // one switch hop: 2 wire traversals + 1 switch
  EXPECT_DOUBLE_EQ(p.path_latency(1), 12e-6);
  // zero switches: back-to-back cable
  EXPECT_DOUBLE_EQ(p.path_latency(0), 1e-6);
}

TEST(FabricPresets, EthernetLatencyAnOrderAboveInfiniband) {
  const auto eth = fabrics::gig_ethernet();
  const auto ib = fabrics::infiniband_4x();
  const double eth_lat = eth.o_send + eth.path_latency(1) + eth.o_recv;
  const double ib_lat = ib.o_send + ib.path_latency(1) + ib.o_recv;
  EXPECT_GT(eth_lat / ib_lat, 8.0);
}

}  // namespace
}  // namespace polaris::fabric
