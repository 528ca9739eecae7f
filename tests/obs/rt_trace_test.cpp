// Integration: wall-clock tracing and metrics on the real threaded runtime.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "polaris/obs/clock.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/rt/runtime.hpp"

namespace polaris::rt {
namespace {

TEST(RtTrace, WallClockSpansPerRank) {
  ShmWorld world(2);
  obs::WallClock clock;
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);

  world.run([](Communicator& c) {
    std::vector<std::byte> buf(64 * 1024);  // > eager threshold: rendezvous
    if (c.rank() == 0) {
      c.send(1, 7, buf);
    } else {
      c.recv(0, 7, buf);
    }
    c.barrier();
  });

  const auto tracks = tracer.tracks();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].process, "ranks");

  // The 64 KiB send is rendezvous; the barrier's internal sends are eager.
  bool saw_rendezvous = false, saw_recv = false, saw_barrier = false;
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    EXPECT_GE(ev.dur_ns, 0);
    saw_rendezvous |= ev.name == "send" && ev.category == "rendezvous";
    saw_recv |= ev.name == "recv";
    saw_barrier |= ev.name == "barrier";
  }
  EXPECT_TRUE(saw_rendezvous);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_barrier);
}

TEST(RtTrace, MetricsCountSendsAndMirrorProtocolSplit) {
  ShmWorld world(2);
  obs::MetricsRegistry metrics;
  world.attach_metrics(metrics);

  world.run([](Communicator& c) {
    std::vector<std::byte> small(16), large(64 * 1024);
    if (c.rank() == 0) {
      c.send(1, 1, small);
      c.send(1, 2, large);
    } else {
      c.recv(0, 1, small);
      c.recv(0, 2, large);
    }
  });

  EXPECT_EQ(metrics.counter("rt.sends").value(), 2u);
  EXPECT_EQ(metrics.log_histogram("rt.msg_bytes").count(), 2u);
  EXPECT_EQ(metrics.log_histogram("rt.msg_bytes").max(), 64u * 1024);
  EXPECT_DOUBLE_EQ(metrics.gauge("rt.eager_sends").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("rt.rendezvous_sends").value(), 1.0);
  EXPECT_GE(metrics.gauge("rt.ring_depth_max").value(), 0.0);
}

// Each run() folds every rank's histogram into the registry and clears
// it, so a second run adds its own sends and nothing from the first.
TEST(RtTrace, RepeatedRunsCountEachSendOnce) {
  ShmWorld world(2);
  obs::MetricsRegistry metrics;
  world.attach_metrics(metrics);

  const auto two_sends = [](Communicator& c) {
    std::vector<std::byte> small(16), large(64 * 1024);
    if (c.rank() == 0) {
      c.send(1, 1, small);
      c.send(1, 2, large);
    } else {
      c.recv(0, 1, small);
      c.recv(0, 2, large);
    }
  };
  world.run(two_sends);
  world.run(two_sends);

  EXPECT_EQ(metrics.counter("rt.sends").value(), 4u);
  EXPECT_EQ(metrics.log_histogram("rt.msg_bytes").count(), 4u);
  EXPECT_EQ(metrics.log_histogram("rt.msg_bytes").max(), 64u * 1024);
}

TEST(RtTrace, CollectiveSpansNestTheirTraffic) {
  ShmWorld world(4);
  obs::WallClock clock;
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);

  world.run([](Communicator& c) {
    std::vector<double> buf(128, static_cast<double>(c.rank()));
    c.allreduce(buf, coll::ReduceOp::kSum);
  });

  std::size_t allreduce_spans = 0;
  for (const obs::TraceEvent& ev : tracer.snapshot()) {
    if (ev.name != "allreduce") continue;
    ++allreduce_spans;
    EXPECT_EQ(ev.category, "coll");
  }
  EXPECT_EQ(allreduce_spans, 4u);  // one per rank
}

}  // namespace
}  // namespace polaris::rt
