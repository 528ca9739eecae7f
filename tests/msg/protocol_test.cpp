#include "polaris/msg/protocol.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "polaris/support/check.hpp"

namespace polaris::msg {
namespace {

using fabric::fabrics::gig_ethernet;
using fabric::fabrics::infiniband_4x;
using fabric::fabrics::myrinet2000;

TEST(ChooseProtocol, SmallMessagesGoEager) {
  EXPECT_EQ(choose_protocol(infiniband_4x(), 8), Protocol::kEager);
  EXPECT_EQ(choose_protocol(infiniband_4x(), 8 * 1024), Protocol::kEager);
}

TEST(ChooseProtocol, LargeMessagesUseRdmaWhenAvailable) {
  EXPECT_EQ(choose_protocol(infiniband_4x(), 1 << 20), Protocol::kRdma);
  EXPECT_EQ(choose_protocol(myrinet2000(), 1 << 20), Protocol::kRendezvous);
}

TEST(ChooseProtocol, ThresholdOverrideApplies) {
  EXPECT_EQ(choose_protocol(infiniband_4x(), 100, 64), Protocol::kRdma);
  EXPECT_EQ(choose_protocol(infiniband_4x(), 100, 128), Protocol::kEager);
}

TEST(CostModel, EagerPaysCopiesBothSides) {
  const auto p = infiniband_4x();
  const std::uint64_t bytes = 1 << 20;
  const auto c = cost_model(p, Protocol::kEager, bytes);
  const double copy = static_cast<double>(bytes) / p.copy_bw;
  EXPECT_NEAR(c.send_overhead, p.o_send + copy, 1e-12);
  EXPECT_NEAR(c.recv_overhead, p.o_recv + copy, 1e-12);
  EXPECT_EQ(c.handshake, 0.0);
}

TEST(CostModel, RendezvousPaysHandshakeNotCopies) {
  const auto p = myrinet2000();
  const auto c = cost_model(p, Protocol::kRendezvous, 1 << 20);
  EXPECT_GT(c.handshake, 0.0);
  EXPECT_DOUBLE_EQ(c.send_overhead, p.o_send);
  EXPECT_DOUBLE_EQ(c.recv_overhead, p.o_recv);
}

TEST(CostModel, RdmaFreesReceiverCpu) {
  const auto c = cost_model(infiniband_4x(), Protocol::kRdma, 1 << 20);
  EXPECT_EQ(c.recv_overhead, 0.0);
  EXPECT_GT(c.handshake, 0.0);
}

TEST(CostModel, RdmaOnNonRdmaFabricRejected) {
  EXPECT_THROW((void)cost_model(myrinet2000(), Protocol::kRdma, 1024),
               support::ContractViolation);
}

TEST(CostModel, ColdRegistrationCharged) {
  const auto p = infiniband_4x();
  const auto warm = cost_model(p, Protocol::kRdma, 1 << 20, 1, true);
  const auto cold = cost_model(p, Protocol::kRdma, 1 << 20, 1, false);
  EXPECT_EQ(warm.registration, 0.0);
  EXPECT_GT(cold.registration, 0.0);
  EXPECT_GT(cold.total(), warm.total());
}

TEST(CostModel, KernelPathRendezvousStillCopies) {
  const auto p = gig_ethernet();
  const auto c = cost_model(p, Protocol::kRendezvous, 1 << 20);
  EXPECT_GT(c.send_overhead, p.o_send);  // copy included
}

TEST(CostModel, EagerBeatsRendezvousForSmall) {
  const auto p = infiniband_4x();
  const auto e = cost_model(p, Protocol::kEager, 256);
  const auto r = cost_model(p, Protocol::kRdma, 256);
  EXPECT_LT(e.total(), r.total());
}

TEST(CostModel, RendezvousBeatsEagerForLarge) {
  const auto p = infiniband_4x();
  const auto e = cost_model(p, Protocol::kEager, 4 << 20);
  const auto r = cost_model(p, Protocol::kRdma, 4 << 20);
  EXPECT_LT(r.total(), e.total());
}

TEST(Crossover, UserLevelFabricsHaveFiniteCrossover) {
  for (const auto name : {"myrinet-2000", "quadrics-qsnet", "infiniband-4x"}) {
    const auto p = fabric::fabrics::by_name(name);
    const auto x = crossover_bytes(p);
    EXPECT_NE(x, std::numeric_limits<std::uint64_t>::max()) << name;
    EXPECT_GT(x, 128u) << name;
    EXPECT_LT(x, 4u << 20) << name;
  }
}

TEST(Crossover, KernelFabricsNeverCross) {
  // With copies on both protocols, rendezvous only adds a handshake.
  EXPECT_EQ(crossover_bytes(gig_ethernet()),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Crossover, DefaultThresholdsNearCrossover) {
  // The preset eager thresholds should sit within an order of magnitude of
  // the analytic crossover (sanity link between config and model).
  for (const auto name : {"myrinet-2000", "infiniband-4x"}) {
    const auto p = fabric::fabrics::by_name(name);
    const double x = static_cast<double>(crossover_bytes(p));
    const double thr = static_cast<double>(p.eager_threshold);
    EXPECT_GT(thr / x, 0.05) << name;
    EXPECT_LT(thr / x, 20.0) << name;
  }
}

}  // namespace
}  // namespace polaris::msg
