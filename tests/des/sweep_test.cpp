#include "polaris/des/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/support/rng.hpp"

namespace polaris::des {
namespace {

TEST(SweepRunner, ResultsArriveInPointOrder) {
  SweepRunner runner(4);
  const auto out = runner.run(
      100, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(SweepRunner, ParallelMatchesSerialExactly) {
  // Each point runs a real (independent) engine; the sweep result must not
  // depend on thread count.
  auto point = [](std::size_t i) {
    Engine e;
    std::uint64_t acc = 0;
    support::Random rng(sweep_seed(123, i));
    for (int k = 0; k < 200; ++k) {
      e.schedule_after(static_cast<SimTime>(rng.uniform_int(1, 50)),
                       [&acc, &e] { acc += static_cast<std::uint64_t>(e.now()); });
      e.run();
    }
    return acc;
  };
  const auto serial = SweepRunner(1).run(32, point);
  const auto parallel = SweepRunner(4).run(32, point);
  EXPECT_EQ(serial, parallel);
}

TEST(SweepRunner, MapPassesItemAndIndex) {
  SweepRunner runner(2);
  const std::vector<std::string> items{"a", "b", "c"};
  const auto out = runner.map(items, [](const std::string& s, std::size_t i) {
    return s + std::to_string(i);
  });
  EXPECT_EQ(out, (std::vector<std::string>{"a0", "b1", "c2"}));
}

TEST(SweepRunner, EveryPointRunsExactlyOnce) {
  SweepRunner runner(8);
  std::atomic<int> calls{0};
  const auto out = runner.run(1000, [&](std::size_t i) {
    calls.fetch_add(1, std::memory_order_relaxed);
    return i;
  });
  EXPECT_EQ(calls.load(), 1000);
  std::set<std::size_t> seen(out.begin(), out.end());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(SweepRunner, PropagatesPointExceptions) {
  SweepRunner runner(4);
  EXPECT_THROW(runner.run(64,
                          [](std::size_t i) -> int {
                            if (i == 13) throw std::runtime_error("boom");
                            return 0;
                          }),
               std::runtime_error);
}

TEST(SweepRunner, ZeroPointsIsEmpty) {
  SweepRunner runner(4);
  EXPECT_TRUE(runner.run(0, [](std::size_t) { return 1; }).empty());
}

TEST(SweepRunner, ExplicitThreadCountWins) {
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
  EXPECT_GE(SweepRunner().threads(), 1u);
}

TEST(SweepRunner, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(SweepRunner::default_threads(), 1u);
  EXPECT_EQ(SweepRunner().threads(), SweepRunner::default_threads());
}

// POLARIS_SWEEP_THREADS may ask for more threads than there are cores,
// and a default-constructed runner then runs that many points at once.
TEST(SweepRunner, SweepThreadsVariableIsHonoredAboveTheCoreCount) {
  const char* old = std::getenv("POLARIS_SWEEP_THREADS");
  const std::string saved = old != nullptr ? old : "";
  const std::size_t want =
      std::max(1u, std::thread::hardware_concurrency()) + 1;
  ::setenv("POLARIS_SWEEP_THREADS", std::to_string(want).c_str(), 1);
  SweepRunner runner;
  if (old != nullptr) {
    ::setenv("POLARIS_SWEEP_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("POLARIS_SWEEP_THREADS");
  }
  EXPECT_EQ(runner.threads(), want);

  // Every point stays in flight until `want` points have been in flight
  // together, or a deadline passes, so a narrower pool fails instead of
  // hanging.
  std::atomic<std::size_t> inside{0};
  std::atomic<std::size_t> peak{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  runner.run(want, [&](std::size_t) {
    const std::size_t now_inside = inside.fetch_add(1) + 1;
    std::size_t seen = peak.load();
    while (seen < now_inside && !peak.compare_exchange_weak(seen, now_inside)) {
    }
    while (peak.load() < want && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    inside.fetch_sub(1);
    return 0;
  });
  EXPECT_EQ(peak.load(), want);
}

TEST(SweepSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(sweep_seed(42, 0), sweep_seed(42, 0));
  EXPECT_NE(sweep_seed(42, 0), sweep_seed(42, 1));
  EXPECT_NE(sweep_seed(42, 0), sweep_seed(43, 0));
  // Adjacent points must not yield near-identical seeds.
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) seeds.insert(sweep_seed(7, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

}  // namespace
}  // namespace polaris::des
