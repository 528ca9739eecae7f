#include "polaris/support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "polaris/support/rng.hpp"

namespace polaris::support {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSinglePass) {
  Random r(1);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(3.0, 7.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Summary, PercentilesOfKnownData) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-12);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-12);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-12);
  EXPECT_NEAR(s.percentile(99), 99.01, 0.1);
}

TEST(Summary, SingleSampleAllPercentilesEqual) {
  Summary s;
  s.add(42.0);
  EXPECT_EQ(s.percentile(0), 42.0);
  EXPECT_EQ(s.percentile(50), 42.0);
  EXPECT_EQ(s.percentile(100), 42.0);
}

TEST(Summary, MeanAndStddev) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, PercentileRejectsOutOfRange) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-1), ContractViolation);
  EXPECT_THROW((void)s.percentile(101), ContractViolation);
}

TEST(Summary, AddAfterPercentileResorts) {
  Summary s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.median(), 15.0);
  s.add(0.0);
  EXPECT_DOUBLE_EQ(s.median(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
}

}  // namespace
}  // namespace polaris::support
