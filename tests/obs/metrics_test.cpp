#include "polaris/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

namespace polaris::obs {
namespace {

TEST(Counter, ConcurrentAddsSumExactly) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(c.value(), kThreads * kPerThread);
  // Same name resolves to the same object, so the registry sees the total.
  EXPECT_EQ(registry.counter("hits").value(), kThreads * kPerThread);
}

TEST(Counter, AddWithArgument) {
  Counter c;
  c.add(5);
  c.add(7);
  EXPECT_EQ(c.value(), 12u);
}

TEST(Gauge, SetOverwritesObserveMaxRetains) {
  Gauge g;
  g.set(3.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  g.observe_max(5.0);
  g.observe_max(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
}

TEST(Gauge, ConcurrentObserveMaxKeepsGlobalMax) {
  Gauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 10'000; ++i) {
        g.observe_max(static_cast<double>(t * 10'000 + i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 8.0 * 10'000 - 1);
}

TEST(MetricsRegistry, StableIdentityAcrossLookups) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Gauge& g = registry.gauge("x");  // same name, different kind: distinct
  LogHistogram& h = registry.log_histogram("x");
  EXPECT_EQ(&a, &registry.counter("x"));
  EXPECT_EQ(&g, &registry.gauge("x"));
  EXPECT_EQ(&h, &registry.log_histogram("x"));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistry, DumpIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("b.count").add(2);
  registry.counter("a.count").add(1);
  registry.gauge("depth").set(4.5);
  registry.log_histogram("lat").record(1);

  std::ostringstream os;
  registry.dump(os);
  const std::string out = os.str();
  const auto a = out.find("a.count");
  const auto b = out.find("b.count");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(out.find("depth"), std::string::npos);
  EXPECT_NE(out.find("lat"), std::string::npos);
}

}  // namespace
}  // namespace polaris::obs
