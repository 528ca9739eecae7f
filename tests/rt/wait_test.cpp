#include "polaris/rt/wait.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "polaris/rt/spsc_ring.hpp"

namespace polaris::rt {
namespace {

TEST(IdleBackoff, EscalatesToParkedSleeps) {
  IdleBackoff b;
  const std::uint32_t ladder = IdleBackoff::kSpinIters + IdleBackoff::kYieldIters;
  for (std::uint32_t i = 0; i < ladder; ++i) b.pause();
  EXPECT_EQ(b.parks(), 0u);  // still in the spin/yield tiers
  b.pause();
  b.pause();
  EXPECT_EQ(b.parks(), 2u);
}

TEST(IdleBackoff, ResetReturnsToTheSpinTier) {
  IdleBackoff b;
  for (std::uint32_t i = 0; i < 200; ++i) b.pause();
  const std::uint64_t parked = b.parks();
  EXPECT_GT(parked, 0u);
  b.reset();
  for (std::uint32_t i = 0; i < IdleBackoff::kSpinIters; ++i) b.pause();
  EXPECT_EQ(b.parks(), parked);  // no new parks after reset
}

TEST(SpinBarrier, SerialSectionRunsOncePerGeneration) {
  constexpr std::size_t kThreads = 4;
  constexpr int kGens = 50;
  SpinBarrier barrier(kThreads);
  int serial_runs = 0;  // written in the serial section only
  std::atomic<int> failures{0};

  auto body = [&] {
    for (int g = 1; g <= kGens; ++g) {
      barrier.arrive_and_wait([&] { ++serial_runs; });
      // Serial writes are visible to every participant after release.
      if (serial_runs != g) failures.fetch_add(1);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i + 1 < kThreads; ++i) pool.emplace_back(body);
  body();
  for (auto& t : pool) t.join();
  EXPECT_EQ(serial_runs, kGens);
  EXPECT_EQ(failures.load(), 0);
}

TEST(SpinBarrier, PublishesPreBarrierWritesToTheSerialSection) {
  constexpr std::size_t kThreads = 3;
  SpinBarrier barrier(kThreads);
  std::uint64_t slots[kThreads] = {};
  std::uint64_t total = 0;

  auto body = [&](std::size_t me) {
    slots[me] = me + 1;  // plain write, published by the barrier
    barrier.arrive_and_wait([&] {
      for (std::size_t i = 0; i < kThreads; ++i) total += slots[i];
    });
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i + 1 < kThreads; ++i) pool.emplace_back(body, i);
  body(kThreads - 1);
  for (auto& t : pool) t.join();
  EXPECT_EQ(total, 1u + 2u + 3u);
}

TEST(SpinBarrier, SingleParticipantRunsSerialInline) {
  SpinBarrier barrier(1);
  int runs = 0;
  for (int i = 0; i < 5; ++i) barrier.arrive_and_wait([&] { ++runs; });
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(barrier.parks(), 0u);
}

TEST(SpinBarrier, LateArriverWakesBlockedWaiters) {
  constexpr std::size_t kThreads = 4;
  SpinBarrier barrier(kThreads);
  int window = 0;  // written in the serial section only
  std::atomic<std::size_t> saw_window{0};

  auto body = [&] {
    barrier.arrive_and_wait([&] { window = 42; });
    if (window == 42) saw_window.fetch_add(1);
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i + 1 < kThreads; ++i) pool.emplace_back(body);
  // The fourth participant arrives only once the others have left the spin
  // and yield tiers for the blocking wait (a park counts when it begins),
  // however long a loaded host takes to get them there.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (barrier.parks() + 1 < kThreads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  body();
  for (auto& t : pool) t.join();
  EXPECT_EQ(saw_window.load(), kThreads);
  EXPECT_GE(barrier.parks(), kThreads - 1);
}

TEST(SpinBarrier, StressSerialRunsOncePerGenerationWithLateArrivers) {
  constexpr std::size_t kThreads = 4;
  constexpr int kGens = 10'000;
  SpinBarrier barrier(kThreads);
  int serial_runs = 0;            // written in the serial section only
  int arrived_at[kThreads] = {};  // each participant's current generation
  std::atomic<int> failures{0};

  auto body = [&](std::size_t me) {
    for (int g = 1; g <= kGens; ++g) {
      // Once per 1,000 generations each participant in turn arrives ~1 ms
      // late, so the others reach the blocking wait.
      if (g % 1000 == static_cast<int>(me) * 250) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      arrived_at[me] = g;
      barrier.arrive_and_wait([&] {
        ++serial_runs;
        // Exactly once per generation: every participant has arrived at
        // this generation and none has left it.
        for (const int a : arrived_at) {
          if (a != serial_runs) failures.fetch_add(1);
        }
      });
      if (serial_runs != g) failures.fetch_add(1);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i + 1 < kThreads; ++i) pool.emplace_back(body, i);
  body(kThreads - 1);
  for (auto& t : pool) t.join();
  EXPECT_EQ(serial_runs, kGens);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(barrier.parks(), 0u);
}

TEST(SpscRing, DrainEmptiesInFifoOrder) {
  SpscRing<int> ring(128);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(ring.try_push(int{i}));
  std::vector<int> got;
  const std::size_t n = ring.drain([&](int&& v) { got.push_back(v); });
  EXPECT_EQ(n, 100u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

TEST(SpscRing, DrainOnEmptyRingReturnsZero) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.drain([](int&&) { FAIL(); }), 0u);
}

TEST(SpscRing, PopWaitBlocksUntilTheProducerArrives) {
  SpscRing<int> ring(8);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    while (!ring.try_push(41)) {}
  });
  int v = 0;
  IdleBackoff backoff;
  EXPECT_TRUE(ring.pop_wait(v, backoff, [] { return false; }));
  EXPECT_EQ(v, 41);
  producer.join();
}

TEST(SpscRing, PopWaitHonorsStop) {
  SpscRing<int> ring(8);
  int v = 0;
  IdleBackoff backoff;
  int polls = 0;
  EXPECT_FALSE(ring.pop_wait(v, backoff, [&] { return ++polls > 3; }));
  EXPECT_GT(polls, 3);
}

}  // namespace
}  // namespace polaris::rt
