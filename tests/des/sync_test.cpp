#include "polaris/des/sync.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "polaris/des/task.hpp"

namespace polaris::des {
namespace {

// ----------------------------------------------------------- OneShotEvent

Task<void> wait_event(OneShotEvent& ev, Engine& e, std::vector<SimTime>& log) {
  co_await ev.wait();
  log.push_back(e.now());
}

Task<void> fire_later(OneShotEvent& ev, Engine& e, SimTime at) {
  co_await delay(e, at);
  ev.fire(e);
}

TEST(OneShotEvent, WakesTheWaiterAtFireTime) {
  Engine e;
  OneShotEvent ev;
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  e.spawn(fire_later(ev, e, 50));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{50}));
  EXPECT_TRUE(ev.fired());
}

TEST(OneShotEvent, AwaitAfterFireCompletesImmediately) {
  Engine e;
  OneShotEvent ev;
  ev.fire(e);
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{0}));
}

TEST(OneShotEvent, FireIsIdempotent) {
  Engine e;
  OneShotEvent ev;
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  e.schedule_at(10, [&] {
    ev.fire(e);
    ev.fire(e);
  });
  EXPECT_EQ(e.run(), 3u);  // the spawn, the fire and one wakeup
  EXPECT_EQ(log.size(), 1u);
}

TEST(OneShotEvent, ResetRearmsTheEvent) {
  Engine e;
  OneShotEvent ev;
  std::vector<SimTime> log;
  e.spawn(wait_event(ev, e, log));
  e.spawn(fire_later(ev, e, 10));
  e.run();
  ASSERT_EQ(log, (std::vector<SimTime>{10}));

  // A rearmed event parks its next waiter until it fires again.
  ev.reset();
  EXPECT_FALSE(ev.fired());
  e.spawn(wait_event(ev, e, log));
  e.spawn(fire_later(ev, e, 30));
  e.run();
  EXPECT_EQ(log, (std::vector<SimTime>{10, 40}));
  EXPECT_TRUE(ev.fired());
}

}  // namespace
}  // namespace polaris::des
