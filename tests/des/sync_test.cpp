#include "polaris/des/sync.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace polaris::des
