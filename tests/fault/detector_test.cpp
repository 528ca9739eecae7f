#include "polaris/fault/detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "heap_count.hpp"
#include "polaris/fault/phi_reference.hpp"
#include "polaris/support/check.hpp"

namespace polaris::fault {
namespace {

TEST(TimeoutDetector, SuspectsAfterSilence) {
  TimeoutDetector d(5.0);
  d.heartbeat(10.0);
  EXPECT_FALSE(d.suspect(12.0));
  EXPECT_FALSE(d.suspect(15.0));
  EXPECT_TRUE(d.suspect(15.1));
}

TEST(TimeoutDetector, HeartbeatResetsSuspicion) {
  TimeoutDetector d(5.0);
  d.heartbeat(0.0);
  EXPECT_TRUE(d.suspect(6.0));
  d.heartbeat(6.0);
  EXPECT_FALSE(d.suspect(10.0));
}

// Regression: a node first registered at T > timeout used to be instantly
// suspected (last_ defaulted to 0.0, an implicit heartbeat at the epoch).
// The silence clock must start at registration.
TEST(TimeoutDetector, LateRegistrationGetsFullGrace) {
  TimeoutDetector d(5.0, /*registered_at=*/100.0);
  EXPECT_FALSE(d.suspect(100.1));
  EXPECT_FALSE(d.suspect(105.0));
  EXPECT_TRUE(d.suspect(105.1));
  EXPECT_FALSE(d.has_heartbeat());
  EXPECT_DOUBLE_EQ(d.last_heartbeat(), 100.0);
  d.heartbeat(105.2);
  EXPECT_TRUE(d.has_heartbeat());
  EXPECT_FALSE(d.suspect(106.0));
}

TEST(PhiAccrual, ZeroBeforeAnyHeartbeat) {
  PhiAccrualDetector d;
  EXPECT_DOUBLE_EQ(d.phi(100.0), 0.0);
}

// Regression: one heartbeat then permanent silence used to keep phi at 0
// forever (empty interval window) — such a crash was never detected.  With
// no bootstrap interval, suspicion now escalates after a grace multiple of
// min_stddev.
TEST(PhiAccrual, SingleHeartbeatEscalatesAfterGrace) {
  PhiAccrualDetector d;  // min_stddev 1e-3 -> grace of 10 s
  d.heartbeat(0.0);
  EXPECT_DOUBLE_EQ(d.phi(5.0), 0.0);
  EXPECT_DOUBLE_EQ(d.phi(100.0), PhiAccrualDetector::kMaxPhi);
}

// With a bootstrap interval, the first heartbeat seeds the window and phi
// behaves like a trained detector immediately.
TEST(PhiAccrual, BootstrapIntervalArmsFirstHeartbeat) {
  PhiAccrualDetector d(/*window=*/100, /*min_stddev=*/1e-3,
                       /*bootstrap_interval=*/1.0);
  d.heartbeat(0.0);
  EXPECT_EQ(d.samples(), 1u);
  EXPECT_LT(d.phi(0.5), 1.0);    // silence shorter than the expected period
  EXPECT_GT(d.phi(10.0), 8.0);   // ten periods of silence: confidently dead
}

TEST(PhiAccrual, GrowsWithSilence) {
  PhiAccrualDetector d;
  for (int i = 0; i < 50; ++i) d.heartbeat(i * 1.0);
  const double at_expected = d.phi(49.0 + 1.0);
  const double late = d.phi(49.0 + 3.0);
  const double very_late = d.phi(49.0 + 10.0);
  EXPECT_LT(at_expected, late);
  EXPECT_LE(late, very_late);  // both may sit at the saturation cap
  EXPECT_GT(very_late, 8.0);  // confidently dead
}

TEST(PhiAccrual, AdaptsToJitter) {
  // A stream with high jitter should produce lower phi for the same
  // absolute silence than a regular stream.
  PhiAccrualDetector regular, jittery;
  support::Random rng(5);
  double tr = 0, tj = 0;
  for (int i = 0; i < 100; ++i) {
    tr += 1.0;
    regular.heartbeat(tr);
    tj += rng.uniform(0.25, 1.75);
    jittery.heartbeat(tj);
  }
  const double silence = 2.5;
  EXPECT_GT(regular.phi(tr + silence), jittery.phi(tj + silence));
}

TEST(PhiAccrual, SuspectThreshold) {
  PhiAccrualDetector d;
  for (int i = 0; i < 20; ++i) d.heartbeat(i * 1.0);
  EXPECT_FALSE(d.suspect(19.5));
  EXPECT_TRUE(d.suspect(40.0));
}

TEST(PhiAccrual, WindowBounded) {
  PhiAccrualDetector d(/*window=*/10);
  for (int i = 0; i < 100; ++i) d.heartbeat(i * 1.0);
  EXPECT_EQ(d.samples(), 10u);
}

// The running-moment phi against the two-pass reference, over lognormal
// jitter streams at windows from 2 to 1,000, with and without a bootstrap
// interval.  Each heartbeat is preceded by two queries: at its own arrival
// (a healthy node) and after a random silence of up to four periods (phi
// from 0 up to saturation).
TEST(PhiAccrual, MatchesTwoPassReference) {
  constexpr double kPeriod = 1.0;
  constexpr double kMinStddev = kPeriod / 100.0;
  const double mu = std::log(kPeriod / 20.0);
  for (const std::size_t window : {2, 10, 100, 1000}) {
    for (const double bootstrap : {0.0, kPeriod}) {
      PhiAccrualDetector det(window, kMinStddev, bootstrap);
      ReferencePhiAccrualDetector ref(window, kMinStddev, bootstrap);
      support::Random rng(window + (bootstrap > 0.0 ? 1 : 0));
      std::size_t off = 0, flips = 0;
      double worst = 0.0;
      double last = 0.0;
      det.heartbeat(last);
      ref.heartbeat(last);
      for (std::size_t i = 1; i <= 100'000; ++i) {
        const double arrival = std::max(
            static_cast<double>(i) * kPeriod + rng.lognormal(mu, 0.8), last);
        const double silent = last + rng.uniform(0.0, 4.0 * kPeriod);
        for (const double t : {arrival, silent}) {
          const double a = det.phi(t);
          const double b = ref.phi(t);
          const double delta = std::abs(a - b);
          if (!(delta <= 1e-8)) ++off;  // NaN counts as off
          worst = std::max(worst, delta);
          for (const double th : {1.0, 2.0, 4.0, 8.0, 12.0}) {
            if ((a > th) != (b > th)) ++flips;
          }
        }
        det.heartbeat(arrival);
        ref.heartbeat(arrival);
        last = arrival;
      }
      EXPECT_EQ(off, 0u) << "window " << window << " bootstrap " << bootstrap
                         << " worst |dphi| " << worst;
      EXPECT_EQ(flips, 0u) << "window " << window << " bootstrap "
                           << bootstrap;
      EXPECT_EQ(det.samples(), window);
      EXPECT_EQ(det.samples(), ref.samples());
    }
  }
}

// Re-centring bounds the running sums' rounding error: after the period
// drops 10^4-fold, the slid-out 100 s intervals leave (x - shift)^2 sums
// whose cancellation would swamp the new jitter without it.  Once the
// window has turned over, phi matches the reference again.
TEST(PhiAccrual, RecentringRecoversPrecisionAfterAPeriodChange) {
  PhiAccrualDetector det(/*window=*/100, /*min_stddev=*/1e-6);
  ReferencePhiAccrualDetector ref(/*window=*/100, /*min_stddev=*/1e-6);
  support::Random rng(7);
  double now = 0.0;
  std::size_t off = 0;
  for (int i = 0; i < 3000; ++i) {
    now += (i < 1000 ? 100.0 : 0.01) * rng.uniform(0.9, 1.1);
    if (i >= 1200 && !(std::abs(det.phi(now) - ref.phi(now)) <= 1e-8)) {
      ++off;
    }
    det.heartbeat(now);
    ref.heartbeat(now);
  }
  EXPECT_EQ(off, 0u);
}

// A perfectly regular stream has zero variance, so phi rests on the
// min_stddev floor.  Here the bootstrap sample (0.3) leaves the window and
// the running variance rounds slightly below zero; unclamped, its square
// root would make phi NaN.
TEST(PhiAccrual, RegularStreamIsFlooredByMinStddev) {
  constexpr double kMinStddev = 1e-3;
  PhiAccrualDetector d(/*window=*/10, kMinStddev, /*bootstrap_interval=*/0.3);
  // P(interval > mean + 2 sd) under the normal fit.
  const double two_sd = -std::log10(0.5 * std::erfc(2.0 / std::sqrt(2.0)));
  for (int i = 0; i <= 200; ++i) {
    const double now = static_cast<double>(i);
    d.heartbeat(now);
    const double p = d.phi(now + 1.0 + 2.0 * kMinStddev);
    ASSERT_TRUE(std::isfinite(p)) << "heartbeat " << i;
    if (i > 10) {
      EXPECT_NEAR(p, two_sd, 1e-9) << "heartbeat " << i;
    }
  }
}

TEST(PhiAccrual, HeartbeatAllocatesNothingOnceWindowIsFull) {
  PhiAccrualDetector d(/*window=*/100);
  double now = 0.0;
  for (int i = 0; i <= 100; ++i) d.heartbeat(now += 1.0);
  const std::uint64_t before = bench::heap_allocations();
  for (int i = 0; i < 1000; ++i) {
    d.heartbeat(now += 1.0 + 0.01 * (i % 7));
  }
  const std::uint64_t allocs = bench::heap_allocations() - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(d.samples(), 100u);
}

TEST(PhiAccrual, RejectsDegenerateConfig) {
  EXPECT_THROW(PhiAccrualDetector(1), support::ContractViolation);
  EXPECT_THROW(PhiAccrualDetector(10, 0.0), support::ContractViolation);
  EXPECT_THROW(PhiAccrualDetector(10, 1e-3, -1.0), support::ContractViolation);
}

TEST(EvaluateTimeout, TighterTimeoutMeansFasterDetectionMoreFalseAlarms) {
  const double period = 1.0, sigma = 1.0;
  const auto tight =
      evaluate_timeout_detector(period, sigma, 1.2, 50000, 21);
  const auto loose =
      evaluate_timeout_detector(period, sigma, 5.0, 50000, 21);
  EXPECT_LT(tight.detection_latency, loose.detection_latency);
  EXPECT_GT(tight.false_positive_rate, loose.false_positive_rate);
  EXPECT_LT(loose.false_positive_rate, 1e-3);
}

TEST(EvaluateTimeout, GenerousTimeoutHasNoFalsePositives) {
  const auto q = evaluate_timeout_detector(1.0, 0.5, 10.0, 20000, 22);
  EXPECT_DOUBLE_EQ(q.false_positive_rate, 0.0);
  EXPECT_GE(q.detection_latency, 10.0);
}


TEST(EvaluatePhi, HigherThresholdSlowerButSafer) {
  const auto low = evaluate_phi_detector(1.0, 0.5, 3.0, 20000, 31);
  const auto high = evaluate_phi_detector(1.0, 0.5, 10.0, 20000, 31);
  EXPECT_LE(low.detection_latency, high.detection_latency);
  EXPECT_GE(low.false_positive_rate, high.false_positive_rate);
}

TEST(EvaluatePhi, AdaptsDetectionToJitter) {
  // With more jitter the detector must wait longer before accusing.
  const auto calm = evaluate_phi_detector(1.0, 0.2, 8.0, 20000, 32);
  const auto noisy = evaluate_phi_detector(1.0, 1.5, 8.0, 20000, 32);
  EXPECT_LT(calm.detection_latency, noisy.detection_latency);
}

TEST(EvaluatePhi, ReasonableOperatingPoint) {
  const auto q = evaluate_phi_detector(1.0, 0.8, 8.0, 50000, 33);
  EXPECT_LT(q.false_positive_rate, 5e-3);
  EXPECT_GT(q.detection_latency, 1.0);
  EXPECT_LT(q.detection_latency, 60.0);
}

// Regression: the rate used to divide by heartbeats-1 even though only
// arrivals past the 10-heartbeat warmup are judged, biasing it low.  A
// threshold every judged arrival crosses must report a rate of exactly 1.
TEST(EvaluatePhi, RateIsOverObservedWindowOnly) {
  const auto q = evaluate_phi_detector(1.0, 0.5, 1e-9, 20, 34);
  EXPECT_DOUBLE_EQ(q.false_positive_rate, 1.0);
}

// F8e's threshold sweep (bench_f8_faults), bit for bit: each run slides
// the 100-sample window through about 1,000 refreshes, and both results
// are counts of phi > threshold decisions.
TEST(EvaluatePhi, F8eOperatingPointsArePinned) {
  struct Point {
    double threshold, false_positive_rate, detection_latency;
  };
  for (const Point& p : {Point{2.0, 0.023122543479782775, 1.2400000002526212},
                         Point{4.0, 0.0066607326805948651, 1.3600000002770685},
                         Point{8.0, 0.0017101881206932762, 1.5600000003178138},
                         Point{12.0, 0.00074008140895498507,
                               1.680000000342261}}) {
    const auto q = evaluate_phi_detector(1.0, 0.8, p.threshold, 100000, 5);
    EXPECT_EQ(q.false_positive_rate, p.false_positive_rate) << p.threshold;
    EXPECT_EQ(q.detection_latency, p.detection_latency) << p.threshold;
  }
}

TEST(EvaluatePhi, RejectsAllWarmupRuns) {
  // 11 heartbeats leave zero judged arrivals — no rate to report.
  EXPECT_THROW(evaluate_phi_detector(1.0, 0.5, 8.0, 11, 35),
               support::ContractViolation);
}

}  // namespace
}  // namespace polaris::fault
