#include "polaris/workload/apps.hpp"

#include <gtest/gtest.h>

namespace polaris::workload {
namespace {

using fabric::fabrics::gig_ethernet;
using fabric::fabrics::infiniband_4x;

TEST(ProcessGrid, NearSquareFactorization) {
  EXPECT_EQ(process_grid(1), (std::pair<std::size_t, std::size_t>{1, 1}));
  EXPECT_EQ(process_grid(4), (std::pair<std::size_t, std::size_t>{2, 2}));
  EXPECT_EQ(process_grid(12), (std::pair<std::size_t, std::size_t>{3, 4}));
  EXPECT_EQ(process_grid(16), (std::pair<std::size_t, std::size_t>{4, 4}));
  EXPECT_EQ(process_grid(7), (std::pair<std::size_t, std::size_t>{1, 7}));
}

TEST(PingPong, LatencyGrowsWithSize) {
  PingPongConfig cfg;
  cfg.sizes = {8, 4096, 1048576};
  PingPongResult res;
  simrt::SimWorld world(2, infiniband_4x());
  world.launch(make_pingpong(cfg, &res));
  world.run();
  ASSERT_EQ(res.half_rtt.size(), 3u);
  EXPECT_GT(res.half_rtt[0], 0.0);
  EXPECT_LT(res.half_rtt[0], res.half_rtt[1]);
  EXPECT_LT(res.half_rtt[1], res.half_rtt[2]);
}

TEST(PingPong, UserLevelBeatsKernelPath) {
  PingPongConfig cfg;
  cfg.sizes = {8};
  PingPongResult ib_res, eth_res;
  {
    simrt::SimWorld w(2, infiniband_4x());
    w.launch(make_pingpong(cfg, &ib_res));
    w.run();
  }
  {
    simrt::SimWorld w(2, gig_ethernet());
    w.launch(make_pingpong(cfg, &eth_res));
    w.run();
  }
  EXPECT_GT(eth_res.half_rtt[0] / ib_res.half_rtt[0], 8.0);
}

TEST(Halo2D, CompletesOnVariousRankCounts) {
  for (std::size_t p : {1u, 4u, 9u, 16u}) {
    Halo2DConfig cfg;
    cfg.iterations = 3;
    AppResult res;
    simrt::SimWorld world(p, infiniband_4x());
    world.launch(make_halo2d(cfg, p, &res));
    world.run();
    EXPECT_GT(res.elapsed, 0.0) << p;
    EXPECT_GE(res.comm_fraction, 0.0);
    EXPECT_LE(res.comm_fraction, 1.0);
  }
}

TEST(Halo2D, WeakScalingHoldsOnFastFabric) {
  // Same per-rank grid: time should grow only mildly from 4 to 16 ranks.
  Halo2DConfig cfg;
  cfg.iterations = 5;
  AppResult r4, r16;
  {
    simrt::SimWorld w(4, infiniband_4x());
    w.launch(make_halo2d(cfg, 4, &r4));
    w.run();
  }
  {
    simrt::SimWorld w(16, infiniband_4x());
    w.launch(make_halo2d(cfg, 16, &r16));
    w.run();
  }
  EXPECT_LT(r16.elapsed, 1.5 * r4.elapsed);
}

TEST(Cg, CommunicationFractionGrowsWithScaleOnSlowFabric) {
  CgConfig cfg;
  cfg.iterations = 10;
  AppResult r2, r32;
  {
    simrt::SimWorld w(2, gig_ethernet());
    w.launch(make_cg(cfg, 2, &r2));
    w.run();
  }
  {
    simrt::SimWorld w(32, gig_ethernet());
    w.launch(make_cg(cfg, 32, &r32));
    w.run();
  }
  EXPECT_GT(r32.comm_fraction, r2.comm_fraction);
}

TEST(Cg, FastFabricReducesCommFraction) {
  CgConfig cfg;
  cfg.iterations = 10;
  AppResult eth, ib;
  {
    simrt::SimWorld w(16, gig_ethernet());
    w.launch(make_cg(cfg, 16, &eth));
    w.run();
  }
  {
    simrt::SimWorld w(16, infiniband_4x());
    w.launch(make_cg(cfg, 16, &ib));
    w.run();
  }
  EXPECT_LT(ib.comm_fraction, eth.comm_fraction);
  EXPECT_LT(ib.elapsed, eth.elapsed);
}

TEST(Ep, NearPerfectScaling) {
  EpConfig cfg;
  AppResult r1, r32;
  {
    simrt::SimWorld w(2, gig_ethernet());
    w.launch(make_ep(cfg, &r1));
    w.run();
  }
  {
    simrt::SimWorld w(32, gig_ethernet());
    w.launch(make_ep(cfg, &r32));
    w.run();
  }
  // Same per-rank work: elapsed nearly equal, tiny comm fraction.
  EXPECT_NEAR(r32.elapsed, r1.elapsed, 0.1 * r1.elapsed);
  EXPECT_LT(r32.comm_fraction, 0.05);
}


TEST(ProcessGrid3, CubicFactorization) {
  EXPECT_EQ(process_grid3(8), (std::tuple<std::size_t, std::size_t,
                                          std::size_t>{2, 2, 2}));
  EXPECT_EQ(process_grid3(27), (std::tuple<std::size_t, std::size_t,
                                           std::size_t>{3, 3, 3}));
  EXPECT_EQ(process_grid3(1), (std::tuple<std::size_t, std::size_t,
                                          std::size_t>{1, 1, 1}));
  // Product always equals ranks.
  for (std::size_t p : {2u, 6u, 12u, 17u, 64u}) {
    const auto [x, y, z] = process_grid3(p);
    EXPECT_EQ(x * y * z, p) << p;
  }
}

TEST(Halo3D, CompletesAndWeakScales) {
  workload::Halo3DConfig cfg;
  cfg.iterations = 3;
  AppResult r8, r27;
  {
    simrt::SimWorld w(8, infiniband_4x());
    w.launch(make_halo3d(cfg, 8, &r8));
    w.run();
  }
  {
    simrt::SimWorld w(27, infiniband_4x());
    w.launch(make_halo3d(cfg, 27, &r27));
    w.run();
  }
  EXPECT_GT(r8.elapsed, 0.0);
  EXPECT_LT(r27.elapsed, 1.6 * r8.elapsed);
}

TEST(Incast, DownlinkSerializesTheFanIn) {
  // N-to-1: rank 0's downlink is the bottleneck, so time scales ~linearly
  // with sender count.
  workload::IncastConfig cfg;
  cfg.rounds = 2;
  AppResult r4, r16;
  {
    simrt::SimWorld w(4, infiniband_4x());
    w.launch(make_incast(cfg, &r4));
    w.run();
  }
  {
    simrt::SimWorld w(16, infiniband_4x());
    w.launch(make_incast(cfg, &r16));
    w.run();
  }
  EXPECT_GT(r16.elapsed, 3.0 * r4.elapsed);
}

}  // namespace
}  // namespace polaris::workload
