#include "polaris/des/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "polaris/support/check.hpp"

namespace polaris::des {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  SimTime seen = -1;
  e.schedule_at(123456789, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 123456789);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  SimTime seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_after(50, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_EQ(seen, 150);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine e;
  e.schedule_at(100, [&] {
    EXPECT_THROW(e.schedule_at(50, [] {}), support::ContractViolation);
  });
  e.run();
}

TEST(Engine, CancelPreventsExecution) {
  // One cancelled event per tier: tick wheel, block wheel, heap.  None
  // runs, none moves the clock past the last event that did, and reaping
  // each drops its captured state before its slot is reused.
  Engine e;
  bool ran = false;
  const auto token = std::make_shared<int>(0);
  e.schedule_at(5, [] {});
  for (const SimTime t : {10, 50'000, 5'000'000}) {
    e.cancel(e.schedule_at(t, [&ran, token] { ran = true; }));
  }
  EXPECT_EQ(token.use_count(), 4);
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.now(), 5);
  EXPECT_EQ(e.stats().cancelled_skipped, 3u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Engine, CancelOfFiredEventIsNoop) {
  Engine e;
  auto id = e.schedule_at(10, [] {});
  e.run();
  e.cancel(id);  // must not crash or affect later events
  bool ran = false;
  e.schedule_at(20, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, StopHaltsExecution) {
  Engine e;
  int count = 0;
  e.schedule_at(1, [&] { ++count; });
  e.schedule_at(2, [&] {
    ++count;
    e.stop();
  });
  e.schedule_at(3, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 2);
  // A subsequent run resumes with what is left.
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, RunUntilStopsAtBoundary) {
  Engine e;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) {
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  }
  const auto n = e.run_until(25);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(e.now(), 25);
  e.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Engine, StoppedRunUntilKeepsClockAtLastEvent) {
  // A run_until cut short by stop() must not move the clock past events
  // still queued: the next slice would run them with now() going back.
  Engine e;
  SimTime f_at = -1;
  e.schedule_at(10, [&e] { e.stop(); });
  e.schedule_at(20, [&] { f_at = e.now(); });
  EXPECT_EQ(e.run_until(100), 1u);
  EXPECT_EQ(e.now(), 10);
  EXPECT_EQ(e.run_until(200), 1u);
  EXPECT_EQ(f_at, 20);
  EXPECT_EQ(e.now(), 200);
}

TEST(Engine, RunUntilAdvancesClockOnEmptyQueue) {
  Engine e;
  e.run_until(1000);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  EXPECT_EQ(e.run(), 5u);
  EXPECT_EQ(e.events_executed(), 5u);
}

TEST(Engine, EventsMayScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  support::UniqueFunction<void()> recur;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_after(1, [&] { chain(); });
  };
  e.schedule_at(0, [&] { chain(); });
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99);
}

TEST(Engine, StatsTrackQueueAndCancellations) {
  Engine e;
  for (int i = 0; i < 4; ++i) e.schedule_at(i, [] {});
  const EventId victim = e.schedule_at(10, [] {});
  EXPECT_EQ(e.queue_depth(), 5u);
  e.cancel(victim);
  e.run();

  const EngineStats s = e.stats();
  EXPECT_EQ(s.scheduled, 5u);
  EXPECT_EQ(s.executed, 4u);
  EXPECT_EQ(s.cancelled_skipped, 1u);
  EXPECT_EQ(s.max_queue_depth, 5u);
  EXPECT_EQ(e.queue_depth(), 0u);
}

TEST(Engine, CancelledEventsAreReapedAndSlotsReused) {
  Engine e;
  for (int round = 0; round < 100; ++round) {
    auto id = e.schedule_at(e.now() + 1, [] {});
    e.cancel(id);
    e.schedule_at(e.now() + 1, [] {});
    e.run();
  }
  const EngineStats s = e.stats();
  EXPECT_EQ(s.cancelled_skipped, 100u);
  EXPECT_EQ(s.executed, 100u);
  // Node slots recycle: the pool never grows past the per-round peak.
  EXPECT_LE(s.pool_capacity, 2u);
  EXPECT_EQ(s.pool_in_use, 0u);
}

TEST(Engine, CancelAfterSlotReuseDoesNotKillNewEvent) {
  Engine e;
  bool first = false, second = false;
  const EventId id1 = e.schedule_at(10, [&] { first = true; });
  e.run();  // id1 fires; its pool slot is released
  const EventId id2 = e.schedule_at(20, [&] { second = true; });
  EXPECT_EQ(id1.slot, id2.slot);  // slot reused...
  e.cancel(id1);                  // ...so this stale cancel must be a no-op
  e.run();
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);
}

TEST(Engine, DoubleCancelIsIdempotent) {
  Engine e;
  bool ran = false;
  auto id = e.schedule_at(10, [&] { ran = true; });
  e.cancel(id);
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.stats().cancelled_skipped, 1u);
}

TEST(Engine, CancelOfNeverScheduledIdIsNoop) {
  Engine e;
  e.cancel(EventId{});         // invalid sentinel
  e.cancel(EventId{123, 45});  // out-of-range slot
  bool ran = false;
  e.schedule_at(1, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

// Regression for the seed engine's cancelled_-set leak: cancelling a fired
// event inserted its sequence number into an unordered_set that nothing
// ever erased.  With generation tombstones the cancel is recognized as
// stale, so a million of them retain no state at all.
TEST(Engine, CancellingAMillionFiredEventsRetainsNoState) {
  Engine e;
  std::vector<EventId> ids;
  constexpr int kEvents = 1'000'000;
  ids.reserve(kEvents);
  constexpr int kBatch = 1000;
  for (int batch = 0; batch < kEvents / kBatch; ++batch) {
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(e.schedule_after(1, [] {}));
    }
    e.run();
  }
  for (const EventId id : ids) e.cancel(id);  // all already fired
  const EngineStats s = e.stats();
  EXPECT_EQ(s.executed, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(s.cancelled_skipped, 0u);  // no live event was ever cancelled
  EXPECT_EQ(e.queue_depth(), 0u);
  EXPECT_EQ(s.pool_in_use, 0u);
  // Engine state is bounded by the high watermark, not by history.
  EXPECT_LE(s.pool_capacity, static_cast<std::size_t>(kBatch));
  EXPECT_EQ(s.max_pool_in_use, static_cast<std::size_t>(kBatch));
  // And the stale cancels really are no-ops: new events still run.
  bool ran = false;
  e.schedule_after(1, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, RunUntilIgnoresCancelledEventAtHead) {
  Engine e;
  bool late_ran = false;
  auto id = e.schedule_at(10, [] {});
  e.schedule_at(50, [&] { late_ran = true; });
  e.cancel(id);
  // The cancelled head must not bait run_until into executing the t=50
  // event before the boundary.
  EXPECT_EQ(e.run_until(25), 0u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(e.now(), 25);
  e.run();
  EXPECT_TRUE(late_ran);
}

TEST(Engine, CountsSboMissesForOversizedCallbacks) {
  Engine e;
  e.schedule_at(1, [] {});  // tiny: inline
  struct Big {
    char pad[200] = {};
  };
  Big big;
  e.schedule_at(2, [big] { (void)big; });  // oversized: heap fallback
  e.run();
  EXPECT_EQ(e.stats().sbo_misses, 1u);
}

TEST(Engine, PoolOccupancyTracksQueueDepth) {
  Engine e;
  for (int i = 0; i < 10; ++i) e.schedule_at(i, [] {});
  EngineStats s = e.stats();
  EXPECT_EQ(s.pool_in_use, 10u);
  EXPECT_EQ(s.max_pool_in_use, 10u);
  e.run();
  s = e.stats();
  EXPECT_EQ(s.pool_in_use, 0u);
  EXPECT_EQ(s.max_pool_in_use, 10u);
  EXPECT_EQ(s.pool_capacity, 10u);
}

TEST(Engine, RawCallbacksInterleaveWithClosuresInScheduleOrder) {
  // schedule_raw_* goes through the same queue as closure callbacks and
  // obeys the same (time, sequence) total order.
  Engine e;
  std::vector<int> order;
  struct Ctx {
    std::vector<int>* order;
    int tag;
  };
  static constexpr auto record = +[](void* p) {
    const auto* c = static_cast<Ctx*>(p);
    c->order->push_back(c->tag);
  };
  Ctx a{&order, 1}, b{&order, 3};
  e.schedule_raw_at(10, record, &a);
  e.schedule_at(10, [&] { order.push_back(2); });
  e.schedule_raw_at(5, record, &b);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

TEST(Engine, RawCallbacksAreCancellable) {
  Engine e;
  int fired = 0;
  struct Ctx {
    int* fired;
  } c{&fired};
  const EventId id = e.schedule_raw_after(
      7, +[](void* p) { ++*static_cast<Ctx*>(p)->fired; }, &c);
  e.schedule_raw_after(
      9, +[](void* p) { ++*static_cast<Ctx*>(p)->fired; }, &c);
  e.cancel(id);
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 9);
}

TEST(Engine, NextEventTimeOnEmptyEngineIsSentinel) {
  Engine e;
  EXPECT_EQ(e.next_event_time(), Engine::kNoEventTime);
  e.schedule_at(5, [] {});
  e.run();
  EXPECT_EQ(e.next_event_time(), Engine::kNoEventTime);
}

TEST(Engine, NextEventTimeSeesWheelAndHeap) {
  Engine e;
  e.schedule_at(3, [] {});              // near: tick wheel
  e.schedule_at(3 + 50000, [] {});      // ~12 blocks ahead: block wheel
  e.schedule_at(3 + 49500, [] {});      // same block, earlier, not its head
  e.schedule_at(3 + 5'000'000, [] {});  // beyond ~1 ms: heap
  EXPECT_EQ(e.next_event_time(), 3);
  e.run_until(3);
  EXPECT_EQ(e.next_event_time(), 3 + 49500);
  e.run_until(3 + 50000);
  EXPECT_EQ(e.next_event_time(), 3 + 5'000'000);
  e.run();
  EXPECT_EQ(e.now(), 3 + 5'000'000);
}

TEST(Engine, NextEventTimeIsALowerBoundUnderCancel) {
  Engine e;
  const EventId id = e.schedule_at(3, [] {});
  e.schedule_at(10, [] {});
  e.cancel(id);
  // A tombstoned head may be reported: the contract is a lower bound,
  // which is all conservative synchronization needs.
  EXPECT_LE(e.next_event_time(), 10);
  EXPECT_GE(e.next_event_time(), 3);
  e.run();
  EXPECT_EQ(e.now(), 10);
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(1e-6), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMillisecond), 1e-3);
  EXPECT_EQ(from_micros(2.5), 2500);
  EXPECT_DOUBLE_EQ(to_micros(1500), 1.5);
}

}  // namespace
}  // namespace polaris::des
