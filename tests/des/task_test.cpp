#include "polaris/des/task.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "polaris/des/sweep.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace polaris::des {
namespace {

Task<void> simple_sleeper(Engine& e, SimTime dt, bool& done) {
  co_await delay(e, dt);
  done = true;
}

TEST(Task, SpawnedProcessRunsToCompletion) {
  Engine e;
  bool done = false;
  e.spawn(simple_sleeper(e, 100, done));
  e.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(e.now(), 100);
  EXPECT_EQ(e.live_processes(), 0u);
}

Task<int> returns_value(Engine& e) {
  co_await delay(e, 10);
  co_return 42;
}

Task<void> awaits_value(Engine& e, int& out) {
  out = co_await returns_value(e);
}

TEST(Task, ValueReturningTaskComposes) {
  Engine e;
  int out = 0;
  e.spawn(awaits_value(e, out));
  e.run();
  EXPECT_EQ(out, 42);
}

Task<int> add_chain(Engine& e, int depth) {
  if (depth == 0) co_return 0;
  const int below = co_await add_chain(e, depth - 1);
  co_return below + 1;
}

Task<void> deep_chain_driver(Engine& e, int& out) {
  out = co_await add_chain(e, 5000);
}

TEST(Task, DeepCompositionDoesNotOverflowStack) {
  // Symmetric transfer must make 5000-deep task chains safe.
  Engine e;
  int out = 0;
  e.spawn(deep_chain_driver(e, out));
  e.run();
  EXPECT_EQ(out, 5000);
}

Task<void> multi_sleep(Engine& e, std::vector<SimTime>& wakeups) {
  for (int i = 0; i < 3; ++i) {
    co_await delay(e, 10);
    wakeups.push_back(e.now());
  }
}

TEST(Task, SequentialDelaysAccumulate) {
  Engine e;
  std::vector<SimTime> wakeups;
  e.spawn(multi_sleep(e, wakeups));
  e.run();
  EXPECT_EQ(wakeups, (std::vector<SimTime>{10, 20, 30}));
}

TEST(Task, ManyConcurrentProcessesInterleave) {
  Engine e;
  int completed = 0;
  auto proc = [](Engine& eng, SimTime dt, int& n) -> Task<void> {
    co_await delay(eng, dt);
    ++n;
  };
  for (SimTime dt = 1; dt <= 100; ++dt) e.spawn(proc(e, dt, completed));
  EXPECT_EQ(e.live_processes(), 0u);  // not started until run()
  e.run();
  EXPECT_EQ(completed, 100);
  EXPECT_EQ(e.now(), 100);
}

Task<void> thrower(Engine& e) {
  co_await delay(e, 5);
  throw std::runtime_error("sim process failed");
}

TEST(Task, ExceptionPropagatesOutOfRun) {
  Engine e;
  e.spawn(thrower(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

Task<void> catches_child_error(Engine& e, bool& caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, AwaiterCanCatchChildException) {
  Engine e;
  bool caught = false;
  e.spawn(catches_child_error(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

Task<void> yielder(Engine& e, std::vector<int>& order, int id) {
  order.push_back(id * 10);
  co_await yield(e);
  order.push_back(id * 10 + 1);
}

TEST(Task, YieldInterleavesSameTimeProcesses) {
  Engine e;
  std::vector<int> order;
  e.spawn(yielder(e, order, 1));
  e.spawn(yielder(e, order, 2));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 21}));
  EXPECT_EQ(e.now(), 0);
}

Task<int> immediate() { co_return 7; }

Task<void> awaits_immediate(int& out) { out = co_await immediate(); }

TEST(Task, TaskCompletingWithoutSuspensionStillDeliversValue) {
  Engine e;
  int out = 0;
  e.spawn(awaits_immediate(out));
  e.run();
  EXPECT_EQ(out, 7);
}

TEST(Task, LiveProcessCountTracksSpawnedWork) {
  Engine e;
  auto proc = [](Engine& eng) -> Task<void> { co_await delay(eng, 10); };
  e.spawn(proc(e));
  e.spawn(proc(e));
  e.schedule_at(5, [&] { EXPECT_EQ(e.live_processes(), 2u); });
  e.run();
  EXPECT_EQ(e.live_processes(), 0u);
}

// ------------------------------------------------------------ frame recycler

/// Fills an N-byte local, suspends (so the array lives in the frame), then
/// sums it: the frame grows with N.
template <std::size_t N>
Task<std::uint64_t> sum_across_suspend(Engine& e, std::uint64_t seed) {
  std::array<std::uint8_t, N> bytes;
  for (std::size_t i = 0; i < N; ++i) {
    bytes[i] = static_cast<std::uint8_t>(seed + i);
  }
  co_await delay(e, 1);
  std::uint64_t sum = 0;
  for (const std::uint8_t b : bytes) sum += b;
  co_return sum;
}

template <std::size_t N>
std::uint64_t expected_sum(std::uint64_t seed) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < N; ++i) {
    sum += static_cast<std::uint8_t>(seed + i);
  }
  return sum;
}

template <std::size_t N>
Task<void> check_frame_size(Engine& e, std::uint64_t seed, int& mismatches) {
  const std::uint64_t sum = co_await sum_across_suspend<N>(e, seed);
  if (sum != expected_sum<N>(seed)) ++mismatches;
}

template <std::size_t... N>
void spawn_frame_checks(Engine& e, std::uint64_t seed, int& mismatches) {
  (e.spawn(check_frame_size<N>(e, seed, mismatches)), ...);
}

TEST(TaskFrames, FramesOfEverySizeClassReturnCorrectValues) {
  // Locals from 8 B to 2 KiB: small classes, the largest (1 KiB) class,
  // and frames the recycler hands to the global heap.  A frame carries
  // ~150 B of bookkeeping on top of the array (more in sanitizer builds),
  // so 32-byte steps from 768 B put some frame in the last class whatever
  // the overhead up to 256 B.  Several rounds, so later rounds run in
  // recycled blocks.
  Engine e;
  int mismatches = 0;
  for (std::uint64_t round = 0; round < 8; ++round) {
    spawn_frame_checks<8, 200, 768, 800, 832, 864, 896, 928, 960, 992, 1024,
                       2048>(e, round, mismatches);
    e.run();
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(e.live_processes(), 0u);
}

TEST(TaskFrames, RecycledFramesAreReused) {
  Engine e;
  int out = 0;
  e.spawn(awaits_value(e, out));
  e.run();
  const std::size_t cached = detail::cached_frames();
  EXPECT_GE(cached, 3u);  // root, awaits_value and returns_value frames
  for (int i = 0; i < 100; ++i) {
    e.spawn(awaits_value(e, out));
    e.run();
  }
  EXPECT_EQ(detail::cached_frames(), cached);
  EXPECT_EQ(out, 42);
}

TEST(TaskFrames, ThrowingChildReleasesItsFrame) {
  Engine e;
  bool caught = false;
  e.spawn(catches_child_error(e, caught));
  e.run();
  const std::size_t cached = detail::cached_frames();
  for (int i = 0; i < 10'000; ++i) {
    caught = false;
    e.spawn(catches_child_error(e, caught));
    e.run();
    ASSERT_TRUE(caught);
  }
  // Every frame went back: a leaked one would drain the cache.
  EXPECT_EQ(detail::cached_frames(), cached);
}

TEST(TaskFrames, TaskDestroyedWithoutRunningReleasesItsFrame) {
  Engine e;
  { Task<int> warm = returns_value(e); }
  const std::size_t cached = detail::cached_frames();
  for (int i = 0; i < 10'000; ++i) {
    Task<int> t = returns_value(e);
    ASSERT_TRUE(t.valid());
  }
  EXPECT_EQ(detail::cached_frames(), cached);
  // Spawned but never run: the engine's pending event owns the task.
  for (int i = 0; i < 10'000; ++i) {
    Engine never_run;
    bool done = false;
    never_run.spawn(simple_sleeper(never_run, 5, done));
  }
  EXPECT_EQ(detail::cached_frames(), cached);
}

#if defined(__SANITIZE_ADDRESS__)
Task<void> expose_local(Engine& e, int** out) {
  int local = 7;
  *out = &local;
  co_await delay(e, 1);
}

TEST(TaskFrames, CachedFramesArePoisonedUnderAsan) {
  // A destroyed frame waiting in the cache must still trip ASan.
  Engine e;
  int* p = nullptr;
  e.spawn(expose_local(e, &p));
  e.run();
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
}
#endif

/// Destroys its task from a thread_local destructor, after the thread's
/// frame cache may already have been drained.
struct LateTaskHolder {
  Task<int> task;
  std::size_t* cached_after = nullptr;
  LateTaskHolder() = default;
  LateTaskHolder(const LateTaskHolder&) = delete;
  LateTaskHolder& operator=(const LateTaskHolder&) = delete;
  ~LateTaskHolder() {
    task = Task<int>();
    if (cached_after != nullptr) *cached_after = detail::cached_frames();
  }
};

TEST(TaskFrames, FrameFreedAfterCacheTeardownGoesToTheHeap) {
  std::size_t cached_after = 99;
  std::thread([&cached_after] {
    // Constructed before the recycler's reaper, so destroyed after it.
    thread_local LateTaskHolder holder;
    Engine e;
    { Task<int> warm = returns_value(e); }  // the first free arms the reaper
    holder.cached_after = &cached_after;
    holder.task = returns_value(e);
  }).join();
  EXPECT_EQ(cached_after, 0u);
}

Task<std::uint64_t> nested_sum(Engine& e, SimTime step, int depth) {
  co_await delay(e, step);
  if (depth == 0) co_return static_cast<std::uint64_t>(e.now());
  const std::uint64_t below = co_await nested_sum(e, step + 1, depth - 1);
  co_return below * 31 + static_cast<std::uint64_t>(e.now());
}

Task<void> nested_process(Engine& e, std::uint64_t seed, int fanout,
                          std::uint64_t& acc) {
  for (int k = 0; k < 4; ++k) {
    const auto step = static_cast<SimTime>(1 + (seed + k) % 7);
    const std::uint64_t nested = co_await nested_sum(e, step, 3 + k);
    const std::uint64_t big = co_await sum_across_suspend<2048>(e, seed + k);
    acc = acc * 1'000'003 + nested + big;
    if (fanout > 0) e.spawn(nested_process(e, seed * 7 + k, fanout - 1, acc));
  }
}

TEST(TaskFrames, SweepPointsOnWorkerThreadsMatchSerial) {
  // Each point builds its own engine and coroutine tree on whichever
  // thread runs it, so frames are recycled by four per-thread caches.
  auto point = [](std::size_t i) {
    Engine e;
    std::uint64_t acc = sweep_seed(17, i);
    for (std::uint64_t p = 0; p < 8; ++p) {
      e.spawn(nested_process(e, acc + p, 2, acc));
    }
    e.run();
    EXPECT_EQ(e.live_processes(), 0u);
    return std::pair{acc, e.events_executed()};
  };
  const auto serial = SweepRunner(1).run(32, point);
  const auto parallel = SweepRunner(4).run(32, point);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace polaris::des
