// Determinism of the three-tier event queue (tick wheel, block wheel,
// 4-ary heap).
//
// The engine's ordering contract — pop in (time, sequence) order, FIFO for
// equal times — defines a strict total order, so the firing sequence must
// match a trivially-correct reference model (stable sort by time) for any
// interleaving of schedules and cancels, and must be identical across
// repeated runs with the same seed.
#include "polaris/des/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "polaris/support/rng.hpp"

namespace polaris::des {
namespace {

TEST(EngineDeterminism, SameTimeEventsFireInScheduleOrderAfterHeapChurn) {
  // Interleave distinct-time filler with a batch of same-time events so the
  // heap actually reorders internally; the same-time batch must still fire
  // in schedule order (seq tie-break).
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    e.schedule_at(1000, [&order, i] { order.push_back(i); });
    e.schedule_at(2000 - i, [] {});  // filler above the batch
    e.schedule_at(i, [] {});         // filler below the batch
  }
  e.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineDeterminism, MatchesReferenceModelUnderRandomScheduleAndCancel) {
  // Reference: stable sort of live (time, issue-index) pairs == engine's
  // (t, seq) order.  Random workload with cancellation mixed in.
  support::Random rng(0xDE5C0DE);
  Engine e;
  struct Ref {
    SimTime t;
    int label;
  };
  std::vector<Ref> ref;
  std::vector<int> fired;
  std::vector<EventId> cancellable;
  int next_label = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto t = static_cast<SimTime>(rng.uniform_int(0, 500));
    const int label = next_label++;
    const EventId id =
        e.schedule_at(t, [&fired, label] { fired.push_back(label); });
    if (rng.bernoulli(0.3)) {
      cancellable.push_back(id);
      ref.push_back({t, -1});  // placeholder, cancelled below
    } else {
      ref.push_back({t, label});
    }
  }
  for (const EventId id : cancellable) e.cancel(id);
  e.run();

  std::vector<int> expected;
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Ref& a, const Ref& b) { return a.t < b.t; });
  for (const Ref& r : ref) {
    if (r.label >= 0) expected.push_back(r.label);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(e.stats().cancelled_skipped, cancellable.size());
}

TEST(EngineDeterminism, IdenticalSeedGivesIdenticalRunTwice) {
  auto run_once = [](std::uint64_t seed) {
    support::Random rng(seed);
    Engine e;
    std::vector<int> order;
    // Self-rescheduling processes: each event may schedule 0-2 more, with
    // times drawn from the per-run stream.
    int budget = 20000;
    int next_label = 0;
    std::function<void()> tick = [&] {
      order.push_back(next_label++);
      const int kids = static_cast<int>(rng.uniform_int(0, 2));
      for (int k = 0; k < kids && budget > 0; ++k, --budget) {
        const auto dt = static_cast<SimTime>(rng.uniform_int(0, 10));
        e.schedule_after(dt, [&] { tick(); });
      }
    };
    for (int i = 0; i < 50; ++i) {
      e.schedule_at(static_cast<SimTime>(rng.uniform_int(0, 100)),
                    [&] { tick(); });
    }
    e.run();
    return std::pair{order.size(), e.now()};
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b);
}

// The block size the tier tests aim at: the tick wheel holds now's
// 4,096-tick block and the next, the block wheel the 256 blocks after
// those, and the heap everything further out.
constexpr SimTime kBlock = 4096;

TEST(EngineDeterminism, ThreeTiersMatchReferenceUnderCallbacksCancelsAndSlices) {
  support::Random rng(0x3713E5);
  Engine e;
  struct Issued {
    SimTime t;
    EventId id;
    bool fired = false;
    bool cancelled = false;
  };
  std::vector<Issued> issued;
  std::vector<std::size_t> pending;  // lazily pruned: may hold stale indices
  std::vector<std::size_t> fired;
  std::size_t bad_now = 0;
  std::size_t tier_counts[3] = {};
  std::size_t block_cancels = 0;
  constexpr std::size_t kBudget = 20000;

  std::function<void(std::size_t)> fire;
  auto issue = [&](SimTime t) {
    // Half the events snap to a 256-tick grid, so same-tick ties between
    // events that took different tiers are common.
    if (rng.bernoulli(0.5)) t = (t + 255) / 256 * 256;
    const std::size_t idx = issued.size();
    issued.push_back({t, EventId{}});
    issued[idx].id = e.schedule_at(t, [&fire, idx] { fire(idx); });
    pending.push_back(idx);
  };
  auto random_delay = [&]() -> SimTime {
    const int tier = static_cast<int>(rng.uniform_int(0, 2));
    ++tier_counts[tier];
    switch (tier) {
      case 0: return static_cast<SimTime>(rng.uniform_int(1, kBlock - 1));
      case 1:
        return static_cast<SimTime>(rng.uniform_int(kBlock, 1'000'000));
      default:
        return static_cast<SimTime>(rng.uniform_int(1'000'001, 4'000'000));
    }
  };
  auto cancel = [&](std::size_t idx) {
    e.cancel(issued[idx].id);
    issued[idx].cancelled = true;
  };
  fire = [&](std::size_t idx) {
    Issued& ev = issued[idx];
    ev.fired = true;
    if (e.now() != ev.t) ++bad_now;
    fired.push_back(idx);
    const int kids = rng.bernoulli(0.3) ? 2 : 1;
    for (int k = 0; k < kids && issued.size() < kBudget; ++k) {
      issue(e.now() + random_delay());
    }
    if (rng.bernoulli(0.25)) {
      // Cancel one random pending event, pruning stale entries on the way.
      while (!pending.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
        const std::size_t cand = pending[pick];
        pending[pick] = pending.back();
        pending.pop_back();
        if (!issued[cand].fired && !issued[cand].cancelled) {
          cancel(cand);
          break;
        }
      }
    }
    if (rng.bernoulli(0.01)) {
      // Cancel a whole block two or more blocks ahead: usually an entire
      // block-wheel bucket.
      const SimTime blk =
          e.now() / kBlock + 2 + static_cast<SimTime>(rng.uniform_int(0, 40));
      for (std::size_t i = 0; i < issued.size(); ++i) {
        Issued& o = issued[i];
        if (!o.fired && !o.cancelled && o.t / kBlock == blk) {
          cancel(i);
          ++block_cancels;
        }
      }
    }
  };

  for (int i = 0; i < 64; ++i) issue(random_delay());
  std::size_t slices = 0;
  while (!e.empty()) {
    // Slices end mid-block, span a few blocks, or cross idle gaps.
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    const SimTime len = kind == 0   ? rng.uniform_int(1, 3000)
                        : kind == 1 ? rng.uniform_int(kBlock, 20 * kBlock)
                                    : rng.uniform_int(1'000'000, 3'000'000);
    const SimTime until = e.now() + len;
    e.run_until(until);
    ++slices;
    ASSERT_EQ(e.now(), until);
    SimTime earliest_live = Engine::kNoEventTime;
    for (const Issued& o : issued) {
      if (!o.fired && !o.cancelled) earliest_live = std::min(earliest_live, o.t);
    }
    ASSERT_GT(earliest_live, until);
    ASSERT_LE(e.next_event_time(), earliest_live) << "after slice " << slices;
  }

  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < issued.size(); ++i) {
    if (!issued[i].cancelled) expected.push_back(i);
  }
  // Issue index is schedule order, i.e. the engine's sequence order.
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::size_t a, std::size_t b) {
                     return issued[a].t < issued[b].t;
                   });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(bad_now, 0u);
  const std::size_t cancelled = issued.size() - expected.size();
  EXPECT_EQ(issued.size(), kBudget);
  EXPECT_GT(cancelled, kBudget / 10);
  EXPECT_LT(cancelled, kBudget * 3 / 10);
  EXPECT_GT(block_cancels, 0u);
  for (const std::size_t c : tier_counts) EXPECT_GT(c, kBudget / 5);
  EXPECT_EQ(e.stats().cancelled_skipped, cancelled);
}

TEST(EngineDeterminism, BlockWheelEventPrecedesLaterTickWheelEventAtSameTick) {
  // A1 and A2 are scheduled three blocks ahead (block wheel) and cascade
  // into the tick wheel when the clock enters block 2; C is scheduled for
  // the same tick from block 2, straight into the tick wheel.  The lower
  // sequence numbers must win, in order.  With filler the clock walks into
  // block 2 event by event; without it the clock jumps there from an empty
  // tick wheel.
  for (const bool filler : {false, true}) {
    Engine e;
    std::vector<int> order;
    const SimTime t = 3 * kBlock + 100;
    e.schedule_at(t, [&] { order.push_back(1); });
    e.schedule_at(t, [&] { order.push_back(2); });
    if (filler) {
      for (SimTime f = 500; f < 3 * kBlock; f += 500) e.schedule_at(f, [] {});
    }
    e.schedule_at(2 * kBlock + 7, [&] {
      e.schedule_at(t, [&] { order.push_back(3); });
    });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3})) << "filler=" << filler;
  }
}

TEST(EngineDeterminism, HeapEventAndCascadedEventAtSameTickRunInSeqOrder) {
  // H waits in the heap (300 blocks ahead) and drifts into range; B is
  // scheduled for the same tick from 200 blocks before it (block wheel)
  // and cascades; C is scheduled one block before it (tick wheel).
  Engine e;
  std::vector<int> order;
  const SimTime t = 300 * kBlock + 50;
  e.schedule_at(t, [&] { order.push_back(1); });  // H
  e.schedule_at(100 * kBlock, [&] {
    e.schedule_at(t, [&] { order.push_back(2); });  // B
    e.schedule_at(299 * kBlock + 1, [&] {
      e.schedule_at(t, [&] { order.push_back(3); });  // C
    });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), t);
}

}  // namespace
}  // namespace polaris::des
