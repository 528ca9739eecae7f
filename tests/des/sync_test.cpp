#include "polaris/des/sync.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "polaris/des/task.hpp"

namespace polaris::des {
namespace {

// ---------------------------------------------------------------- Trigger

Task<void> wait_trigger(Trigger& t, Engine& e, std::vector<SimTime>& log) {
  co_await t.wait();
  log.push_back(e.now());
}

Task<void> fire_later(Trigger& t, Engine& e, SimTime at) {
  co_await delay(e, at);
  t.fire();
}

TEST(Trigger, ReleasesAllWaitersAtFireTime) {
  Engine e;
  Trigger t(e);
  std::vector<SimTime> log;
  e.spawn(wait_trigger(t, e, log));
  e.spawn(wait_trigger(t, e, log));
  e.spawn(fire_later(t, e, 50));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{50, 50}));
  EXPECT_TRUE(t.fired());
}

Task<void> wait_after(Trigger& t, Engine& e, SimTime at, int id,
                      std::vector<int>& order) {
  co_await delay(e, at);
  co_await t.wait();
  order.push_back(id);
}

TEST(Trigger, WakesWaitersInTheOrderTheyWaited) {
  // Spawned 1, 2, 3 but waiting from t = 3, 2, 1.
  Engine e;
  Trigger t(e);
  std::vector<int> order;
  e.spawn(wait_after(t, e, 3, 1, order));
  e.spawn(wait_after(t, e, 2, 2, order));
  e.spawn(wait_after(t, e, 1, 3, order));
  e.spawn(fire_later(t, e, 10));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(Trigger, AwaitAfterFireCompletesImmediately) {
  Engine e;
  Trigger t(e);
  t.fire();
  std::vector<SimTime> log;
  e.spawn(wait_trigger(t, e, log));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0}));
}

TEST(Trigger, FireIsIdempotent) {
  Engine e;
  Trigger t(e);
  std::vector<SimTime> log;
  e.spawn(wait_trigger(t, e, log));
  e.schedule_at(10, [&] {
    t.fire();
    t.fire();
  });
  e.run();
  EXPECT_EQ(log.size(), 1u);
}

// ---------------------------------------------------------------- Mailbox

Task<void> consume_n(Mailbox<int>& mb, int n, std::vector<int>& got) {
  for (int i = 0; i < n; ++i) got.push_back(co_await mb.get());
}

Task<void> produce(Mailbox<int>& mb, Engine& e, std::vector<int> vals,
                   SimTime gap) {
  for (int v : vals) {
    co_await delay(e, gap);
    mb.push(v);
  }
}

TEST(Mailbox, DeliversInFifoOrder) {
  Engine e;
  Mailbox<int> mb(e);
  std::vector<int> got;
  e.spawn(consume_n(mb, 3, got));
  e.spawn(produce(mb, e, {1, 2, 3}, 10));
  e.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, BufferedValuesConsumedWithoutBlocking) {
  Engine e;
  Mailbox<int> mb(e);
  mb.push(5);
  mb.push(6);
  EXPECT_EQ(mb.size(), 2u);
  std::vector<int> got;
  e.spawn(consume_n(mb, 2, got));
  e.run();
  EXPECT_EQ(got, (std::vector<int>{5, 6}));
  EXPECT_EQ(mb.size(), 0u);
}

TEST(Mailbox, MultipleConsumersServedInArrivalOrder) {
  Engine e;
  Mailbox<std::string> mb(e);
  std::vector<std::string> got;
  auto consumer = [&](int id) -> Task<void> {
    auto v = co_await mb.get();
    got.push_back(std::to_string(id) + ":" + v);
  };
  e.spawn(consumer(1));
  e.spawn(consumer(2));
  e.schedule_at(10, [&] { mb.push("a"); });
  e.schedule_at(20, [&] { mb.push("b"); });
  e.run();
  EXPECT_EQ(got, (std::vector<std::string>{"1:a", "2:b"}));
}

TEST(Mailbox, TryGetIsNonBlocking) {
  Engine e;
  Mailbox<int> mb(e);
  EXPECT_FALSE(mb.try_get().has_value());
  mb.push(9);
  auto v = mb.try_get();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(Mailbox, MoveOnlyPayload) {
  Engine e;
  Mailbox<std::unique_ptr<int>> mb(e);
  mb.push(std::make_unique<int>(3));
  bool ok = false;
  auto consumer = [&]() -> Task<void> {
    auto p = co_await mb.get();
    ok = (*p == 3);
  };
  e.spawn(consumer());
  e.run();
  EXPECT_TRUE(ok);
}

// -------------------------------------------------------------- Semaphore

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


// -------------------------------------------------------------- WaitGroup

TEST(WaitGroup, WaitsForAllArmedChildren) {
  Engine e;
  WaitGroup wg(e);
  SimTime done_at = -1;
  auto child = [&](SimTime dt) -> Task<void> {
    co_await delay(e, dt);
    wg.done();
  };
  wg.arm(3);
  e.spawn(child(10));
  e.spawn(child(30));
  e.spawn(child(20));
  auto waiter = [&]() -> Task<void> {
    co_await wg.wait();
    done_at = e.now();
  };
  e.spawn(waiter());
  e.run();
  EXPECT_EQ(done_at, 30);
}

TEST(WaitGroup, NeverArmedIsAlreadyDrained) {
  Engine e;
  WaitGroup wg(e);
  bool through = false;
  auto waiter = [&]() -> Task<void> {
    co_await wg.wait();
    through = true;
  };
  e.spawn(waiter());
  e.run();
  EXPECT_TRUE(through);
}

TEST(WaitGroup, DoneWithoutArmThrows) {
  Engine e;
  WaitGroup wg(e);
  EXPECT_THROW(wg.done(), support::ContractViolation);
}

TEST(WaitGroup, PendingTracksCount) {
  Engine e;
  WaitGroup wg(e);
  wg.arm(2);
  EXPECT_EQ(wg.pending(), 2u);
  wg.done();
  EXPECT_EQ(wg.pending(), 1u);
}

}  // namespace
}  // namespace polaris::des
