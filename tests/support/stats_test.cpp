#include "polaris/support/stats.hpp"

#include <gtest/gtest.h>


#include "polaris/support/check.hpp"

namespace polaris::support {
namespace {

TEST(Summary, PercentilesOfKnownData) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
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

TEST(Summary, MeanOfSamples) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
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
  EXPECT_DOUBLE_EQ(s.percentile(0), 0.0);
}

}  // namespace
}  // namespace polaris::support
