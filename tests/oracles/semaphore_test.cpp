#include "polaris/des/semaphore.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "polaris/des/task.hpp"

namespace polaris::des {
namespace {

Task<void> hold(Semaphore& s, Engine& e, SimTime for_time,
                std::vector<std::pair<SimTime, SimTime>>& spans) {
  co_await s.acquire();
  const SimTime start = e.now();
  co_await delay(e, for_time);
  s.release();
  spans.emplace_back(start, e.now());
}

TEST(Semaphore, SerializesWhenCapacityOne) {
  Engine e;
  Semaphore s(e, 1);
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (int i = 0; i < 3; ++i) e.spawn(hold(s, e, 10, spans));
  e.run();
  ASSERT_EQ(spans.size(), 3u);
  // Spans must not overlap.
  EXPECT_EQ(spans[0], (std::pair<SimTime, SimTime>{0, 10}));
  EXPECT_EQ(spans[1], (std::pair<SimTime, SimTime>{10, 20}));
  EXPECT_EQ(spans[2], (std::pair<SimTime, SimTime>{20, 30}));
}

TEST(Semaphore, CapacityTwoAllowsPairwiseOverlap) {
  Engine e;
  Semaphore s(e, 2);
  std::vector<std::pair<SimTime, SimTime>> spans;
  for (int i = 0; i < 4; ++i) e.spawn(hold(s, e, 10, spans));
  e.run();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(e.now(), 20);  // two batches of two
}

Task<void> acquire_n(Semaphore& s, Engine& e, std::int64_t n,
                     std::vector<std::pair<std::int64_t, SimTime>>& log) {
  co_await s.acquire(n);
  log.emplace_back(n, e.now());
}

TEST(Semaphore, FifoGrantPreventsStarvationOfLargeRequest) {
  Engine e;
  Semaphore s(e, 4);
  std::vector<std::pair<std::int64_t, SimTime>> log;
  auto run = [&]() -> Task<void> {
    co_await s.acquire(4);     // take everything
    co_await delay(e, 10);
    s.release(4);
  };
  e.spawn(run());
  e.spawn(acquire_n(s, e, 3, log));  // queued first
  e.spawn(acquire_n(s, e, 1, log));  // must NOT jump the queue
  e.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 3);
  EXPECT_EQ(log[1].first, 1);
  EXPECT_EQ(log[0].second, 10);
}

TEST(Semaphore, AvailableTracksAcquireRelease) {
  Engine e;
  Semaphore s(e, 5);
  auto run = [&]() -> Task<void> {
    co_await s.acquire(3);
    EXPECT_EQ(s.available(), 2);
    s.release(3);
    EXPECT_EQ(s.available(), 5);
  };
  e.spawn(run());
  e.run();
}

TEST(Semaphore, RejectsNegativeInitial) {
  Engine e;
  EXPECT_THROW(Semaphore(e, -1), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::des
