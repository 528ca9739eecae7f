#include "polaris/obs/analysis.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "polaris/obs/trace.hpp"

namespace polaris::obs {
namespace {

Tracer make_tracer() { return Tracer{}; }

TEST(TraceAnalysis, GaplessChainCoversMakespan) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  const TrackId r1 = tracer.add_track("ranks", "rank 1");
  tracer.complete_span(r0, "compute", "", 0, 100);
  tracer.complete_span(r1, "send", "", 100, 150);
  tracer.complete_span(r0, "recv", "", 250, 50);

  const TraceAnalysis analysis(tracer);
  const CriticalPath path = analysis.critical_path("ranks");
  EXPECT_DOUBLE_EQ(path.makespan_s, 300e-9);
  EXPECT_DOUBLE_EQ(path.length_s, 300e-9);
  EXPECT_DOUBLE_EQ(path.coverage, 1.0);
  ASSERT_EQ(path.steps.size(), 3u);
  EXPECT_EQ(path.steps[0].name, "compute");  // chronological
  EXPECT_EQ(path.steps[1].name, "send");
  EXPECT_EQ(path.steps[2].name, "recv");
}

TEST(TraceAnalysis, OverlapPrefersEarliestStartingActiveSpan) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  const TrackId r1 = tracer.add_track("ranks", "rank 1");
  tracer.complete_span(r0, "long", "", 0, 200);
  tracer.complete_span(r1, "short", "", 150, 50);  // same end, later start

  const TraceAnalysis analysis(tracer);
  const CriticalPath path = analysis.critical_path("ranks");
  ASSERT_EQ(path.steps.size(), 1u);
  EXPECT_EQ(path.steps[0].name, "long");
  EXPECT_DOUBLE_EQ(path.coverage, 1.0);
}

TEST(TraceAnalysis, GapsJumpToLatestEarlierSpan) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  tracer.complete_span(r0, "early", "", 0, 100);
  tracer.complete_span(r0, "late", "", 150, 100);  // hole in [100, 150)

  const TraceAnalysis analysis(tracer);
  const CriticalPath path = analysis.critical_path("ranks");
  EXPECT_DOUBLE_EQ(path.makespan_s, 250e-9);
  EXPECT_DOUBLE_EQ(path.length_s, 200e-9);
  EXPECT_NEAR(path.coverage, 0.8, 1e-12);
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[0].name, "early");
  EXPECT_EQ(path.steps[1].name, "late");
}

TEST(TraceAnalysis, ContributorsAggregateByName) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  tracer.complete_span(r0, "wait", "", 0, 100);
  tracer.complete_span(r0, "compute", "", 100, 50);
  tracer.complete_span(r0, "wait", "", 150, 300);

  const TraceAnalysis analysis(tracer);
  const CriticalPath path = analysis.critical_path("ranks");
  ASSERT_EQ(path.contributors.size(), 2u);
  EXPECT_EQ(path.contributors[0].name, "wait");  // descending by time
  EXPECT_EQ(path.contributors[0].spans, 2u);
  EXPECT_DOUBLE_EQ(path.contributors[0].seconds, 400e-9);
  EXPECT_NEAR(path.contributors[0].fraction, 400.0 / 450.0, 1e-12);
}

TEST(TraceAnalysis, ProcessFilterSelectsTracks) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  const TrackId l0 = tracer.add_track("links", "link 0");
  tracer.complete_span(r0, "compute", "", 0, 100);
  tracer.complete_span(l0, "busy", "", 0, 500);

  const TraceAnalysis analysis(tracer);
  const CriticalPath ranks = analysis.critical_path("ranks");
  EXPECT_DOUBLE_EQ(ranks.makespan_s, 100e-9);
  ASSERT_EQ(ranks.steps.size(), 1u);
  EXPECT_EQ(ranks.steps[0].name, "compute");
}

TEST(TraceAnalysis, EmptyTraceIsBenign) {
  const Tracer tracer = make_tracer();
  const TraceAnalysis analysis(tracer);
  const CriticalPath path = analysis.critical_path("ranks");
  EXPECT_DOUBLE_EQ(path.makespan_s, 0.0);
  EXPECT_TRUE(path.steps.empty());
}

TEST(TraceAnalysis, ReportMentionsCoverageAndContributors) {
  Tracer tracer;
  const TrackId r0 = tracer.add_track("ranks", "rank 0");
  tracer.complete_span(r0, "compute", "", 0, 100);
  const TraceAnalysis analysis(tracer);
  std::ostringstream os;
  TraceAnalysis::report(os, analysis.critical_path("ranks"));
  EXPECT_NE(os.str().find("critical path"), std::string::npos);
  EXPECT_NE(os.str().find("compute"), std::string::npos);
}

TraceEvent span(TrackId track, std::string name, std::int64_t start_ns,
               std::int64_t dur_ns) {
  TraceEvent ev;
  ev.track = track;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.name = std::move(name);
  return ev;
}

void expect_same_path(const CriticalPath& a, const CriticalPath& b) {
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.length_s, b.length_s);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].track, b.steps[i].track) << "step " << i;
    EXPECT_EQ(a.steps[i].name, b.steps[i].name) << "step " << i;
    EXPECT_EQ(a.steps[i].start_ns, b.steps[i].start_ns) << "step " << i;
    EXPECT_EQ(a.steps[i].covered_ns, b.steps[i].covered_ns) << "step " << i;
  }
  ASSERT_EQ(a.contributors.size(), b.contributors.size());
  for (std::size_t i = 0; i < a.contributors.size(); ++i) {
    EXPECT_EQ(a.contributors[i].name, b.contributors[i].name);
    EXPECT_EQ(a.contributors[i].spans, b.contributors[i].spans);
  }
}

TEST(TraceAnalysis, CrossTrackOrderDoesNotChangeCriticalPath) {
  // Three ranks that tie everywhere: equal ends, equal starts, and equal
  // spans on different tracks.  Each track's events stay in record order;
  // only the interleaving of tracks differs between the runs.
  const std::vector<Tracer::Track> tracks = {
      {"ranks", "rank 0"}, {"ranks", "rank 1"}, {"ranks", "rank 2"}};
  const std::vector<std::vector<TraceEvent>> per_track = {
      {span(0, "compute", 0, 100), span(0, "wait", 100, 200)},
      {span(1, "compute", 0, 100), span(1, "recv", 100, 200),
       span(1, "copy", 100, 200)},
      {span(2, "compute", 0, 100), span(2, "send", 100, 100),
       span(2, "idle", 200, 100)},
  };
  const auto interleave = [&](const std::vector<std::size_t>& track_order,
                              bool round_robin) {
    std::vector<TraceEvent> out;
    if (!round_robin) {
      for (const std::size_t t : track_order) {
        out.insert(out.end(), per_track[t].begin(), per_track[t].end());
      }
      return out;
    }
    for (std::size_t i = 0; i < 3; ++i) {
      for (const std::size_t t : track_order) {
        if (i < per_track[t].size()) out.push_back(per_track[t][i]);
      }
    }
    return out;
  };

  const CriticalPath reference =
      TraceAnalysis(interleave({0, 1, 2}, false), tracks).critical_path();
  ASSERT_EQ(reference.steps.size(), 2u);
  EXPECT_EQ(reference.steps[0].track, 0u);
  EXPECT_EQ(reference.steps[1].name, "wait");
  for (const auto& order : std::vector<std::vector<std::size_t>>{
           {2, 1, 0}, {1, 2, 0}, {2, 0, 1}}) {
    for (const bool round_robin : {false, true}) {
      expect_same_path(
          reference,
          TraceAnalysis(interleave(order, round_robin), tracks)
              .critical_path());
    }
  }
}

}  // namespace
}  // namespace polaris::obs
