// Integration: the simulated runtime's instrumentation, end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "polaris/obs/analysis.hpp"
#include "polaris/obs/clock.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/workload/apps.hpp"

namespace polaris::simrt {
namespace {

using fabric::fabrics::infiniband_4x;
using fabric::fabrics::myrinet2000;
using obs::TraceEvent;

/// Track id for "rank N" in process "ranks", or max() if absent.
obs::TrackId rank_track(const obs::Tracer& tracer, int rank) {
  const auto tracks = tracer.tracks();
  const std::string want = "rank " + std::to_string(rank);
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i].process == "ranks" && tracks[i].name == want) {
      return static_cast<obs::TrackId>(i);
    }
  }
  return std::numeric_limits<obs::TrackId>::max();
}

std::vector<TraceEvent> spans_on(const std::vector<TraceEvent>& events,
                                 obs::TrackId track) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events) {
    if (ev.track == track && ev.kind == obs::EventKind::kSpan) {
      out.push_back(ev);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  return out;
}

const TraceEvent* find_span(const std::vector<TraceEvent>& spans,
                            const std::string& name) {
  for (const TraceEvent& ev : spans) {
    if (ev.name == name) return &ev;
  }
  return nullptr;
}

bool nested_in(const TraceEvent& inner, const TraceEvent& outer) {
  return inner.start_ns >= outer.start_ns &&
         inner.end_ns() <= outer.end_ns();
}

TEST(SimTrace, EagerSendNestsInjectPhase) {
  SimWorld world(2, infiniband_4x());
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch([](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 64);
    } else {
      co_await c.recv(0, 0);
    }
  });
  world.run();

  const auto spans = spans_on(tracer.snapshot(), rank_track(tracer, 0));
  const TraceEvent* send = find_span(spans, "send");
  const TraceEvent* inject = find_span(spans, "eager:inject");
  ASSERT_NE(send, nullptr);
  ASSERT_NE(inject, nullptr);
  EXPECT_EQ(send->category, "eager");
  EXPECT_TRUE(nested_in(*inject, *send));
}

TEST(SimTrace, RendezvousPhasesNestInProtocolOrder) {
  // Myrinet: user-level but no RDMA -> plain rendezvous ("rdv:" spans).
  SimWorld world(2, myrinet2000());
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch([](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 1 << 20);
    } else {
      co_await c.recv(0, 0);
    }
  });
  world.run();

  const auto spans = spans_on(tracer.snapshot(), rank_track(tracer, 0));
  const TraceEvent* send = find_span(spans, "send");
  ASSERT_NE(send, nullptr);
  EXPECT_EQ(send->category, "rendezvous");

  const TraceEvent* rts = find_span(spans, "rdv:rts");
  const TraceEvent* sync = find_span(spans, "rdv:sync");
  const TraceEvent* payload = find_span(spans, "rdv:payload");
  ASSERT_NE(rts, nullptr);
  ASSERT_NE(sync, nullptr);
  ASSERT_NE(payload, nullptr);
  EXPECT_TRUE(nested_in(*rts, *send));
  EXPECT_TRUE(nested_in(*sync, *send));
  EXPECT_TRUE(nested_in(*payload, *send));
  // Handshake before synchronization before payload.
  EXPECT_LE(rts->start_ns, sync->start_ns);
  EXPECT_LE(sync->end_ns(), payload->start_ns + 1);

  // Receiver posts, waits, then pays CPU time.
  const auto r1 = spans_on(tracer.snapshot(), rank_track(tracer, 1));
  const TraceEvent* recv = find_span(r1, "recv");
  const TraceEvent* wait = find_span(r1, "recv:wait");
  ASSERT_NE(recv, nullptr);
  ASSERT_NE(wait, nullptr);
  EXPECT_TRUE(nested_in(*wait, *recv));
}

TEST(SimTrace, RdmaFabricUsesRdmaPhaseNames) {
  SimWorld world(2, infiniband_4x());
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch([](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 1 << 20);
    } else {
      co_await c.recv(0, 0);
    }
  });
  world.run();

  const auto spans = spans_on(tracer.snapshot(), rank_track(tracer, 0));
  EXPECT_NE(find_span(spans, "rdma:payload"), nullptr);
  EXPECT_EQ(find_span(spans, "rdv:payload"), nullptr);
}

TEST(SimTrace, CriticalPathCoversHaloMakespan) {
  constexpr std::size_t kRanks = 8;
  workload::Halo3DConfig cfg;
  cfg.n = 16;
  cfg.iterations = 3;

  SimWorld world(kRanks, infiniband_4x());
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  workload::AppResult res;
  world.launch(workload::make_halo3d(cfg, kRanks, &res));
  const double makespan = world.run();

  const obs::TraceAnalysis analysis(tracer);
  const obs::CriticalPath path = analysis.critical_path("ranks");
  ASSERT_GT(makespan, 0.0);
  EXPECT_GE(path.coverage, 0.95);
  EXPECT_NEAR(path.length_s, makespan, 0.05 * makespan);
  EXPECT_FALSE(path.contributors.empty());
}

TEST(SimTrace, LinkBusySpansSumToNetworkStats) {
  SimWorld world(4, infiniband_4x());
  obs::SimClock clock(world.engine());
  obs::Tracer tracer(clock);
  world.attach_tracer(tracer);
  world.launch([&world](SimComm& c) -> des::Task<void> {
    co_await c.run_schedule(
        world.collective_schedule(coll::Collective::kAlltoall, 64 * 1024, 0),
        1);
  });
  world.run();

  const auto tracks = tracer.tracks();
  double busy_s = 0.0;
  std::size_t link_tracks = 0;
  for (const TraceEvent& ev : tracer.snapshot()) {
    if (ev.kind == obs::EventKind::kSpan && ev.name == "busy" &&
        tracks[ev.track].process == "links") {
      busy_s += static_cast<double>(ev.dur_ns) * 1e-9;
    }
  }
  for (const auto& t : tracks) link_tracks += t.process == "links";
  EXPECT_GT(link_tracks, 0u);
  const double expected = world.network().stats().total_link_busy_s;
  EXPECT_NEAR(busy_s, expected, 1e-9 + 0.01 * expected);
}

TEST(SimTrace, MetricsMirrorRunTotals) {
  SimWorld world(2, infiniband_4x());
  obs::MetricsRegistry metrics;
  world.attach_metrics(metrics);
  world.launch([](SimComm& c) -> des::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 64);
      co_await c.send(1, 0, 1 << 20);
    } else {
      co_await c.recv(0, 0);
      co_await c.recv(0, 0);
    }
  });
  world.run();

  EXPECT_EQ(metrics.counter("simrt.sends").value(), 2u);
  EXPECT_EQ(metrics.log_histogram("simrt.msg_bytes").count(), 2u);
  EXPECT_DOUBLE_EQ(metrics.gauge("simrt.eager_sends").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("simrt.rendezvous_sends").value(), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.gauge("fabric.messages").value(),
      static_cast<double>(world.network().stats().messages));
  EXPECT_DOUBLE_EQ(
      metrics.gauge("des.events_executed").value(),
      static_cast<double>(world.engine().stats().executed));
  EXPECT_GT(metrics.gauge("des.max_queue_depth").value(), 0.0);
}

TEST(SimTrace, UntracedRunStaysClean) {
  // No tracer, no metrics: nothing should be recorded anywhere and the
  // simulation result must be identical to a traced one.
  workload::Halo3DConfig cfg;
  cfg.n = 8;
  cfg.iterations = 2;

  workload::AppResult res1, res2;
  SimWorld plain(8, infiniband_4x());
  plain.launch(workload::make_halo3d(cfg, 8, &res1));
  const double t_plain = plain.run();

  SimWorld traced(8, infiniband_4x());
  obs::SimClock clock(traced.engine());
  obs::Tracer tracer(clock);
  obs::MetricsRegistry metrics;
  traced.attach_tracer(tracer);
  traced.attach_metrics(metrics);
  traced.launch(workload::make_halo3d(cfg, 8, &res2));
  const double t_traced = traced.run();

  EXPECT_DOUBLE_EQ(t_plain, t_traced);  // observation never changes timing
  EXPECT_GT(tracer.event_count(), 0u);
}

}  // namespace
}  // namespace polaris::simrt
