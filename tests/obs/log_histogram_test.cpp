#include <gtest/gtest.h>

#include <cstdint>

#include "polaris/obs/metrics.hpp"

namespace polaris::obs {
namespace {

TEST(LogHistogram, EmptyReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
}

TEST(LogHistogram, SmallValuesAreExact) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < LogHistogram::kSub; ++v) h.record(v);
  EXPECT_EQ(h.count(), LogHistogram::kSub);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), LogHistogram::kSub - 1);
  EXPECT_EQ(h.sum(), (LogHistogram::kSub - 1) * LogHistogram::kSub / 2);
  // Values below kSub land in dedicated unit-width buckets.
  for (std::uint64_t v = 0; v < LogHistogram::kSub; ++v) {
    EXPECT_EQ(LogHistogram::bucket_index(v), v);
    EXPECT_EQ(LogHistogram::bucket_floor(v), v);
    EXPECT_EQ(LogHistogram::bucket_width(v), 1u);
  }
}

TEST(LogHistogram, BucketMappingIsMonotoneAndCovering) {
  std::size_t prev = 0;
  for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v = v * 2 + v / 3 + 1) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_GE(i, prev) << "v=" << v;
    prev = i;
    // v lies inside its bucket's [floor, floor+width) span.
    EXPECT_LE(LogHistogram::bucket_floor(i), v) << "v=" << v;
    EXPECT_GT(LogHistogram::bucket_floor(i) + LogHistogram::bucket_width(i), v)
        << "v=" << v;
  }
}

TEST(LogHistogram, RelativeQuantizationErrorIsBounded) {
  // 32 sub-buckets per octave bound the quantization at 1/32 ~ 3.1%.
  for (std::uint64_t v = LogHistogram::kSub; v < (std::uint64_t{1} << 50);
       v = v * 5 / 3) {
    const std::size_t i = LogHistogram::bucket_index(v);
    const double width = static_cast<double>(LogHistogram::bucket_width(i));
    const double floor = static_cast<double>(LogHistogram::bucket_floor(i));
    EXPECT_LE(width / floor, 1.0 / 16.0 + 1e-12) << "v=" << v;
  }
}

TEST(LogHistogram, PercentileWalksTheDistribution) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_NEAR(h.percentile(50.0), 500.0, 500.0 / 16.0);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 990.0 / 16.0);
  EXPECT_NEAR(h.percentile(100.0), 1000.0, 1000.0 / 16.0);
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(LogHistogram, MergeAccumulatesAtBucketResolution) {
  LogHistogram a, b;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v < 1100; ++v) b.record(v * 17);
  const std::uint64_t sum = a.sum() + b.sum();
  a.merge_from(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.sum(), sum);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 1099u * 17u);
  // The upper half of the merged distribution is b's.
  EXPECT_NEAR(a.percentile(75.0), 1050.0 * 17.0, 1050.0 * 17.0 / 16.0);
}

TEST(LogHistogram, QuantileIsPercentileOnUnitScale) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), h.percentile(q * 100.0)) << q;
  }
}

TEST(LogHistogram, MergeFromEmptyKeepsStats) {
  LogHistogram a, empty;
  a.record(7);
  a.merge_from(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
  EXPECT_EQ(a.max(), 7u);
}

TEST(LogHistogram, HandlesHugeValues) {
  LogHistogram h;
  const std::uint64_t huge = ~std::uint64_t{0};
  h.record(huge);
  h.record(1);
  EXPECT_EQ(h.max(), huge);
  EXPECT_LT(LogHistogram::bucket_index(huge), LogHistogram::kBuckets);
}

TEST(LogHistogram, ResetClearsEverythingAndIsReusable) {
  LogHistogram h;
  h.record(3);
  h.record(1'000'000);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  // A reset histogram behaves exactly like a fresh one.
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_EQ(h.sum(), 42u);
}

TEST(MetricsRegistry, LogHistogramsAreNamedAndListed) {
  MetricsRegistry reg;
  reg.log_histogram("x.latency").record(100);
  reg.log_histogram("x.latency").record(200);
  EXPECT_EQ(reg.log_histogram("x.latency").count(), 2u);
  EXPECT_GE(reg.size(), 1u);
}

}  // namespace
}  // namespace polaris::obs
