// Ring-mode tracer: bounded rings, interned names, deterministic sampling,
// streaming export.  The multi-threaded cases double as the tsan proof of
// the SPSC producer/drainer contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "polaris/obs/clock.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/support/check.hpp"

namespace polaris::obs {
namespace {

RingOptions small_ring(std::size_t capacity, std::uint32_t sample_every = 1) {
  RingOptions opts;
  opts.ring_capacity = capacity;
  opts.sample_every = sample_every;
  return opts;
}

TEST(RingTracer, CompactEventsDecodeWithInternedNames) {
  Tracer tracer(RingOptions{});  // clockless: explicit timestamps only
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId send = tracer.intern("send");
  const NameId p2p = tracer.intern("p2p");
  tracer.complete_span(t, send, p2p, 100, 40);
  tracer.counter(t, tracer.intern("depth"), 3.5);

  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSpan);
  EXPECT_EQ(events[0].start_ns, 100);
  EXPECT_EQ(events[0].dur_ns, 40);
  EXPECT_EQ(events[0].name, "send");
  EXPECT_EQ(events[0].category, "p2p");
  EXPECT_EQ(events[1].kind, EventKind::kCounter);
  EXPECT_DOUBLE_EQ(events[1].value, 3.5);
  EXPECT_EQ(events[1].name, "depth");
}

TEST(RingTracer, InternIsIdempotentAndRoundTrips) {
  Tracer tracer(RingOptions{});
  EXPECT_EQ(tracer.intern(""), kNoName);
  const NameId a = tracer.intern("busy");
  EXPECT_EQ(tracer.intern("busy"), a);
  EXPECT_NE(tracer.intern("idle"), a);
  EXPECT_EQ(tracer.name_of(a), "busy");
  EXPECT_EQ(tracer.name_of(kNoName), "");
}

TEST(RingTracer, BeginEndSpanRecordsThroughSlotPool) {
  WallClock clock;
  Tracer tracer(clock, RingOptions{});
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId work = tracer.intern("work");
  const SpanId id = tracer.begin_span(t, work);
  EXPECT_TRUE(id.valid());
  tracer.end_span(id);

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 1u);
  EXPECT_EQ(s.sampled_events, 1u);
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_GE(events[0].dur_ns, 0);
}

TEST(RingTracer, FullRingDropsNewestAndCountsDrops) {
  Tracer tracer(small_ring(8));
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId tick = tracer.intern("tick");
  for (int i = 0; i < 20; ++i) tracer.instant_at(t, "tick", "", i);
  (void)tick;

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.instants_total, 20u);
  EXPECT_EQ(s.sampled_events, 8u);
  EXPECT_EQ(s.dropped_ring_full, 12u);
  // Drop-newest: the ring holds a coherent prefix of the track's history.
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(events[i].start_ns, i);
}

TEST(RingTracer, SamplingIsDeterministicOneInN) {
  Tracer tracer(small_ring(1 << 10, /*sample_every=*/4));
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId n = tracer.intern("op");
  for (int i = 0; i < 100; ++i) {
    tracer.complete_span(t, n, kNoName, i * 10, 5);
  }
  const std::vector<TraceEvent> events = tracer.snapshot();
  ASSERT_EQ(events.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(events[i].start_ns, i * 4 * 10);  // every 4th span, from the 1st
  }
  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 100u);
  EXPECT_EQ(s.sampled_events, 25u);
  // Busy-ns accounting stays exact despite sampling (durations are known
  // at complete_span time).
  EXPECT_EQ(s.span_ns_total, 100u * 5u);
}

TEST(RingTracer, WriteJsonIsRepeatableAndNonConsuming) {
  Tracer tracer(RingOptions{});
  const TrackId t = tracer.add_track("ranks", "rank 0");
  tracer.complete_span(t, tracer.intern("a"), tracer.intern("x"), 0, 10);
  tracer.complete_span(t, tracer.intern("b"), tracer.intern("x"), 20, 10);
  std::ostringstream first, second;
  tracer.write_json(first);
  tracer.write_json(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("\"name\":\"a\""), std::string::npos);
  EXPECT_EQ(tracer.stats().drained_events, 0u);
  EXPECT_EQ(tracer.event_count(), 2u);
}

TEST(RingTracer, StreamingExportExceedsRingCapacity) {
  Tracer tracer(small_ring(16));
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId n = tracer.intern("op");
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);
  std::int64_t at = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) {
      tracer.complete_span(t, n, kNoName, at, 1);
      at += 2;
    }
    writer.drain();
  }
  writer.finish();
  // 1000 spans flowed through a 16-slot ring with zero loss.
  EXPECT_EQ(writer.events_written(), 1000u);
  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total, 1000u);
  EXPECT_EQ(s.drained_events, 1000u);
  EXPECT_EQ(s.dropped_ring_full, 0u);
  EXPECT_EQ(tracer.event_count(), 0u);  // everything consumed
}

// Records the same deterministic per-track event streams using `workers`
// threads (tracks partitioned round-robin) and returns the streamed JSON.
std::string traced_json(std::size_t workers, std::uint32_t sample_every) {
  Tracer tracer(small_ring(1 << 12, sample_every));
  constexpr std::size_t kTracks = 8;
  constexpr int kEvents = 200;
  std::vector<TrackId> tracks;
  std::vector<NameId> names;
  for (std::size_t t = 0; t < kTracks; ++t) {
    tracks.push_back(
        tracer.add_track("ranks", "rank " + std::to_string(t)));
    names.push_back(tracer.intern("op" + std::to_string(t % 3)));
  }
  const NameId cat = tracer.intern("work");
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t t = w; t < kTracks; t += workers) {
        for (int i = 0; i < kEvents; ++i) {
          tracer.complete_span(tracks[t], names[t], cat,
                               i * 100 + static_cast<std::int64_t>(t),
                               50);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);
  writer.finish();
  return os.str();
}

TEST(RingTracer, SampledTraceIdenticalAcrossRunsAndWorkerCounts) {
  // Same seed/program => byte-identical sampled trace, however the record
  // work was spread over threads, and stably across repeated runs.
  const std::string one = traced_json(1, 4);
  EXPECT_EQ(one, traced_json(4, 4));
  EXPECT_EQ(one, traced_json(3, 4));
  EXPECT_EQ(one, traced_json(1, 4));
  // Unsampled runs agree too (and differ from sampled ones).
  const std::string full = traced_json(1, 1);
  EXPECT_EQ(full, traced_json(4, 1));
  EXPECT_NE(full, one);
}

// tsan stress: per-thread producers hammer their own tracks while the main
// thread concurrently drains.  After the join, conservation must hold
// exactly: every successfully recorded event was either drained or is
// still in a ring; drops are counted, never silent.
TEST(RingTracer, ConcurrentProducersAndDrainerConserveEvents) {
  WallClock clock;
  Tracer tracer(clock, small_ring(1 << 8));
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<TrackId> tracks;
  std::vector<NameId> names;
  for (std::size_t t = 0; t < kThreads; ++t) {
    tracks.push_back(
        tracer.add_track("ranks", "rank " + std::to_string(t)));
    names.push_back(tracer.intern("op" + std::to_string(t)));
  }
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        if ((i & 7) == 0) {
          tracer.instant(tracks[t], names[t]);
        } else {
          tracer.complete_span(tracks[t], names[t], kNoName,
                               static_cast<std::int64_t>(i), 1);
        }
      }
    });
  }
  for (int round = 0; round < 200; ++round) writer.drain();
  for (auto& p : producers) p.join();
  writer.finish();

  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total + s.instants_total, kThreads * kPerThread);
  EXPECT_EQ(s.sampled_events,
            s.spans_total + s.instants_total - s.dropped_ring_full);
  EXPECT_EQ(s.drained_events, s.sampled_events);  // finish() drained the rest
  EXPECT_EQ(writer.events_written(), s.drained_events);
  EXPECT_EQ(tracer.event_count(), 0u);
}

// The two storage shapes every behaviour below must hold on: a bounded ring
// and the default unbounded segmented log.
std::vector<RingOptions> both_storages() {
  return {small_ring(64), RingOptions{}};
}

/// Manually advanced clock for deterministic span timestamps.
class ManualClock final : public ClockSource {
 public:
  std::int64_t now_ns() const override { return now_; }
  void set(std::int64_t ns) { now_ = ns; }

 private:
  std::int64_t now_ = 0;
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(RingTracer, WriteJsonExportsEveryEventOnce) {
  for (const RingOptions& opts : both_storages()) {
    Tracer tracer(opts);
    const TrackId r0 = tracer.add_track("ranks", "rank 0");
    const TrackId r1 = tracer.add_track("ranks", "rank 1");
    tracer.complete_span(r0, tracer.intern("a"), kNoName, 0, 10);
    tracer.complete_span(r0, tracer.intern("b"), kNoName, 20, 10);
    tracer.complete_span(r1, tracer.intern("c"), kNoName, 5, 10);
    std::ostringstream os;
    tracer.write_json(os);
    EXPECT_EQ(tracer.event_count(), 3u);
    EXPECT_EQ(count_of(os.str(), "\"ph\":\"X\""), tracer.event_count())
        << "ring_capacity=" << opts.ring_capacity;
    EXPECT_EQ(count_of(os.str(), "\"name\":\"a\""), 1u);
  }
}

TEST(RingTracer, SecondEndSpanThrowsAndLeavesSlotsIntact) {
  for (const RingOptions& opts : both_storages()) {
    ManualClock clock;
    Tracer tracer(clock, opts);
    const TrackId t = tracer.add_track("ranks", "rank 0");
    const SpanId x = tracer.begin_span(t, "x");
    clock.set(10);
    tracer.end_span(x);
    EXPECT_THROW(tracer.end_span(x), support::ContractViolation);

    // The slot x held is handed out once, not twice.
    const SpanId a = tracer.begin_span(t, "a");
    const SpanId b = tracer.begin_span(t, "b");
    EXPECT_NE(a.index, b.index);
    clock.set(20);
    tracer.end_span(b);
    clock.set(30);
    tracer.end_span(a);

    std::vector<std::string> names;
    for (const TraceEvent& ev : tracer.snapshot()) names.push_back(ev.name);
    EXPECT_EQ(names, (std::vector<std::string>{"x", "a", "b"}))
        << "ring_capacity=" << opts.ring_capacity;
    EXPECT_EQ(tracer.event_count(), 3u);
  }
}

TEST(RingTracer, TiedSpansExportInBeginOrder) {
  for (const RingOptions& opts : both_storages()) {
    ManualClock clock;
    Tracer tracer(clock, opts);
    const TrackId t = tracer.add_track("ranks", "rank 0");
    clock.set(10);
    const SpanId outer = tracer.begin_span(t, "outer");
    const SpanId inner = tracer.begin_span(t, "inner");
    clock.set(30);
    tracer.end_span(inner);  // same start and duration; ends first
    tracer.end_span(outer);
    std::ostringstream os;
    tracer.write_json(os);
    const std::string json = os.str();
    const auto at_outer = json.find("\"name\":\"outer\"");
    const auto at_inner = json.find("\"name\":\"inner\"");
    ASSERT_NE(at_outer, std::string::npos);
    ASSERT_NE(at_inner, std::string::npos);
    EXPECT_LT(at_outer, at_inner) << "ring_capacity=" << opts.ring_capacity;
  }
}

// tsan stress for the unbounded log: one producer fills several segments
// while the main thread drains.  Each round the producer waits for a drain
// that covers it, so at most one round is ever undrained and the allocated
// capacity must stay within a few segments.
TEST(RingTracer, UnboundedLogDrainsConcurrentlyInBoundedMemory) {
  WallClock clock;
  Tracer tracer(clock);
  const TrackId t = tracer.add_track("ranks", "rank 0");
  const NameId op = tracer.intern("op");
  constexpr std::uint64_t kSegment = detail::TrackLog::kSegmentEvents;
  constexpr int kRounds = 8;
  constexpr std::uint64_t kPerRound = kSegment * 3 / 2;
  std::ostringstream os;
  TraceStreamWriter writer(tracer, os);

  std::atomic<int> produced{0}, drained{0};
  std::thread producer([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::uint64_t i = 0; i < kPerRound; ++i) {
        if ((i & 7) == 0) {
          tracer.instant(t, op);
        } else {
          tracer.complete_span(t, op, kNoName, static_cast<std::int64_t>(i),
                               1);
        }
      }
      produced.store(round + 1, std::memory_order_release);
      while (drained.load(std::memory_order_acquire) <= round) {
        std::this_thread::yield();
      }
    }
  });
  std::size_t peak_capacity = 0;
  while (drained.load(std::memory_order_relaxed) < kRounds) {
    const int ready = produced.load(std::memory_order_acquire);
    writer.drain();
    peak_capacity =
        std::max(peak_capacity, tracer.stats().ring_capacity_events);
    drained.store(ready, std::memory_order_release);
  }
  producer.join();
  writer.finish();

  const std::uint64_t total = kRounds * kPerRound;
  const Tracer::Stats s = tracer.stats();
  EXPECT_EQ(s.spans_total + s.instants_total, total);
  EXPECT_EQ(s.sampled_events, total);
  EXPECT_EQ(s.dropped_ring_full, 0u);
  EXPECT_EQ(s.drained_events, total);
  EXPECT_EQ(writer.events_written(), total);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_GT(peak_capacity, 0u);
  EXPECT_LE(peak_capacity, 3 * kSegment);
  EXPECT_EQ(s.ring_capacity_events, kSegment);  // only the write segment
}

// The per-track arrays are reserved for kMaxTracks and never move: a
// thread keeps recording on track 0 while the main thread adds tracks and
// records on each.  A later tracer reuses the arrays and starts from zero.
TEST(RingTracer, TracksAddedWhileRecordingAndReusedArraysStartAtZero) {
  constexpr std::uint64_t kBusySpans = 20'000;
  constexpr TrackId kTracks = 1100;
  for (int tracer_round = 0; tracer_round < 2; ++tracer_round) {
    Tracer tracer;
    const TrackId busy = tracer.add_track("ranks", "rank 0");
    const NameId op = tracer.intern("op");
    EXPECT_EQ(tracer.stats().spans_total, 0u);
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < kBusySpans; ++i) {
        tracer.complete_span(busy, op, kNoName, static_cast<std::int64_t>(i),
                             1);
      }
    });
    for (TrackId t = 1; t < kTracks; ++t) {
      const TrackId id = tracer.add_track("links", "link " + std::to_string(t));
      ASSERT_EQ(id, t);
      tracer.complete_span(id, op, kNoName, t, 2);
    }
    producer.join();

    const Tracer::Stats s = tracer.stats();
    EXPECT_EQ(s.track_count, kTracks);
    EXPECT_EQ(s.spans_total, kBusySpans + kTracks - 1);
    EXPECT_EQ(s.span_ns_total, kBusySpans + 2 * (kTracks - 1));
    const std::vector<TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), kBusySpans + kTracks - 1);
    for (TrackId t = 1; t < kTracks; ++t) {
      const TraceEvent& ev = events[kBusySpans + t - 1];
      EXPECT_EQ(ev.track, t);
      EXPECT_EQ(ev.start_ns, t);
    }
  }
  Tracer full;
  for (std::size_t t = 0; t < Tracer::kMaxTracks; ++t) {
    full.add_track("links", "link " + std::to_string(t));
  }
  EXPECT_EQ(full.track_count(), Tracer::kMaxTracks);
  EXPECT_THROW(full.add_track("links", "one too many"),
               support::ContractViolation);
}

}  // namespace
}  // namespace polaris::obs
