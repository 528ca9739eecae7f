#include "polaris/support/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

namespace polaris::support {
namespace {

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Xoshiro256, SplitProducesIndependentStream) {
  Xoshiro256 parent(7);
  Xoshiro256 child = parent.split();
  // Child must not replay the parent's upcoming values.
  Xoshiro256 parent_copy(7);
  (void)parent_copy();  // consume the draw split() used
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child() == parent_copy());
  EXPECT_LT(same, 2);
}

TEST(Random, UniformInUnitInterval) {
  Random r(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Random, UniformRangeRespectsBounds) {
  Random r(4);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform(-5.0, 10.0);
    EXPECT_GE(x, -5.0);
    EXPECT_LT(x, 10.0);
  }
}

TEST(Random, UniformIntInclusiveBoundsAndCoverage) {
  Random r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(0, 9);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 9);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(Random, UniformIntDegenerateRange) {
  Random r(6);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(7, 7), 7);
}

// Lemire's bounded draw with the rejection threshold computed before the
// first draw: the form uniform_int must match value for value.
std::uint64_t eager_lemire(Xoshiro256& gen, std::uint64_t range) {
  const std::uint64_t threshold = (-range) % range;
  for (;;) {
    const __uint128_t m = static_cast<__uint128_t>(gen()) * range;
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

TEST(Random, UniformIntMatchesEagerLemire) {
  for (const std::uint64_t range :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{12}, std::uint64_t{1000}, (std::uint64_t{1} << 32) + 1,
        (std::uint64_t{1} << 63) + 1}) {
    // [lo, hi] centred on 0; hi - lo overflows int64 at range 2^63 + 1.
    const auto lo = -static_cast<std::int64_t>((range - 1) / 2);
    const auto hi = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(lo) + (range - 1));
    Random lib(range);
    Xoshiro256 ref(range);
    for (int i = 0; i < 200'000; ++i) {
      const auto want = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(lo) + eager_lemire(ref, range));
      ASSERT_EQ(lib.uniform_int(lo, hi), want) << "range " << range;
    }
    // Same number of generator draws: the streams continue in step.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(lib.engine()(), ref()) << range;
  }
}

TEST(Random, UniformIntRejectsInvertedRange) {
  Random r(6);
  EXPECT_THROW((void)r.uniform_int(3, 2), ContractViolation);
}

TEST(Random, ExponentialMeanMatchesRate) {
  Random r(8);
  const double lambda = 0.25;  // mean 4
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(lambda);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Random, ExponentialIsNonNegative) {
  Random r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.exponential(2.0), 0.0);
}

TEST(Random, WeibullShapeOneIsExponential) {
  // Weibull(k=1, scale) == Exponential(rate 1/scale): check mean.
  Random r(10);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.weibull(1.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Random, WeibullMeanMatchesGammaFormula) {
  // E[Weibull(k, s)] = s * Gamma(1 + 1/k).
  Random r(11);
  const double k = 2.0, s = 5.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.weibull(k, s);
  EXPECT_NEAR(sum / n, s * std::tgamma(1.0 + 1.0 / k), 0.1);
}

TEST(Random, LogUniformWithinBounds) {
  Random r(12);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.log_uniform(1.0, 1e6);
    EXPECT_GE(x, 1.0 - 1e-12);
    EXPECT_LE(x, 1e6 + 1e-6);
  }
}

TEST(Random, LogUniformMedianIsGeometricMean) {
  Random r(13);
  std::vector<double> xs;
  for (int i = 0; i < 100001; ++i) xs.push_back(r.log_uniform(1.0, 1e4));
  std::nth_element(xs.begin(), xs.begin() + 50000, xs.end());
  EXPECT_NEAR(std::log10(xs[50000]), 2.0, 0.1);  // sqrt(1*1e4) = 100
}

TEST(Random, NormalMomentsMatch) {
  Random r(14);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Random, PowerOfTwoBoundsAndForm) {
  Random r(15);
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.power_of_two(2, 8);
    EXPECT_GE(x, 4);
    EXPECT_LE(x, 256);
    EXPECT_EQ(x & (x - 1), 0) << x << " is not a power of two";
  }
}

TEST(Random, BernoulliFrequency) {
  Random r(16);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, SplitStreamsAreDecorrelated) {
  Random parent(17);
  Random a = parent.split();
  Random b = parent.split();
  // Crude correlation check between sibling streams.
  double dot = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    dot += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  }
  EXPECT_NEAR(dot / n, 0.0, 0.005);
}

}  // namespace
}  // namespace polaris::support
