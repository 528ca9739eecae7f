#include "polaris/fabric/loggp.hpp"

#include <gtest/gtest.h>

namespace polaris::fabric {
namespace {

TEST(LogGP, ExtractionCopiesHostOverheads) {
  const auto p = fabrics::infiniband_4x();
  const auto lg = extract_loggp(p, 1);
  EXPECT_DOUBLE_EQ(lg.o_s, p.o_send);
  EXPECT_DOUBLE_EQ(lg.o_r, p.o_recv);
  EXPECT_DOUBLE_EQ(lg.g, p.gap);
  EXPECT_DOUBLE_EQ(lg.L, p.path_latency(1));
}

TEST(LogGP, KernelPathInflatesG) {
  const auto eth = extract_loggp(fabrics::gig_ethernet(), 1);
  // Wire alone would be 8 ns/byte; copies push G well above that.
  EXPECT_GT(eth.G, 1.0 / fabrics::gig_ethernet().link_bw * 1.3);
  const auto ib = extract_loggp(fabrics::infiniband_4x(), 1);
  EXPECT_DOUBLE_EQ(ib.G, 1.0 / fabrics::infiniband_4x().link_bw);
}

TEST(LogGP, MessageRateBottleneckedByMaxOfGapAndOverhead) {
  LogGPParams lg;
  lg.o_s = 2e-6;
  lg.g = 1e-6;
  EXPECT_DOUBLE_EQ(lg.message_rate(), 5e5);
  lg.g = 4e-6;
  EXPECT_DOUBLE_EQ(lg.message_rate(), 2.5e5);
}

TEST(LogGP, UserLevelMessageRateOrderOfMagnitudeHigher) {
  const auto eth = extract_loggp(fabrics::gig_ethernet(), 1);
  const auto myri = extract_loggp(fabrics::myrinet2000(), 1);
  EXPECT_GT(myri.message_rate() / eth.message_rate(), 8.0);
}

TEST(LogGP, BandwidthIsInverseG) {
  const auto ib = extract_loggp(fabrics::infiniband_4x(), 1);
  EXPECT_DOUBLE_EQ(ib.bandwidth(), fabrics::infiniband_4x().link_bw);
}

TEST(LogGP, MoreSwitchHopsRaiseLOnly) {
  const auto one = extract_loggp(fabrics::myrinet2000(), 1);
  const auto five = extract_loggp(fabrics::myrinet2000(), 5);
  EXPECT_GT(five.L, one.L);
  EXPECT_DOUBLE_EQ(five.G, one.G);
  EXPECT_DOUBLE_EQ(five.o_s, one.o_s);
}

}  // namespace
}  // namespace polaris::fabric
