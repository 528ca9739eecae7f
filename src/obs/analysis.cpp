#include "polaris/obs/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "polaris/des/time.hpp"

namespace polaris::obs {

TraceAnalysis::TraceAnalysis(const Tracer& tracer)
    : events_(tracer.snapshot()), tracks_(tracer.tracks()) {}

TraceAnalysis::TraceAnalysis(std::vector<TraceEvent> events,
                             std::vector<Tracer::Track> tracks)
    : events_(std::move(events)), tracks_(std::move(tracks)) {}

std::vector<std::size_t> TraceAnalysis::spans_in(
    std::string_view process) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& ev = events_[i];
    if (ev.kind != EventKind::kSpan) continue;
    if (!process.empty() && ev.track < tracks_.size() &&
        tracks_[ev.track].process != process) {
      continue;
    }
    idx.push_back(i);
  }
  return idx;
}

CriticalPath TraceAnalysis::critical_path(std::string_view process) const {
  CriticalPath path;
  std::vector<std::size_t> idx = spans_in(process);
  if (idx.empty()) return path;

  // Latest end first; the prefix of this order is "every span still running
  // at or after time t" as the backward walk lowers t.  Ties here and in
  // the heap below break on content, then on position within a track
  // (snapshot() lists each track in record order), so the path does not
  // depend on how the event vector interleaves tracks.
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const TraceEvent& x = events_[a];
    const TraceEvent& y = events_[b];
    if (x.end_ns() != y.end_ns()) return x.end_ns() > y.end_ns();
    if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
    return x.track < y.track;
  });
  std::int64_t t_begin = events_[idx[0]].start_ns;
  for (const std::size_t i : idx) {
    t_begin = std::min(t_begin, events_[i].start_ns);
  }
  const std::int64_t t_end = events_[idx[0]].end_ns();
  path.makespan_s = des::to_seconds(t_end - t_begin);

  // Backward walk.  At time t the chain extends with the active span of
  // earliest start (largest coverage); with none active it jumps across the
  // instrumentation gap to the latest span that ended before t.  Each span
  // is consumed at most once, so the walk is O(n log n).
  // (start, -duration, track, index): earliest start, longer span first.
  using StartKey = std::tuple<std::int64_t, std::int64_t, TrackId, std::size_t>;
  std::priority_queue<StartKey, std::vector<StartKey>, std::greater<>> active;
  std::size_t q = 0;  // prefix boundary into idx (spans with end >= t)
  std::int64_t t = t_end;
  std::int64_t covered_total = 0;
  while (t > t_begin) {
    while (q < idx.size() && events_[idx[q]].end_ns() >= t) {
      const TraceEvent& ev = events_[idx[q]];
      active.emplace(ev.start_ns, ev.start_ns - ev.end_ns(), ev.track, idx[q]);
      ++q;
    }
    // Entries whose start has caught up with t can never be active again.
    while (!active.empty() && std::get<0>(active.top()) >= t) active.pop();

    std::size_t chosen;
    if (!active.empty()) {
      chosen = std::get<3>(active.top());
      active.pop();
    } else if (q < idx.size()) {
      chosen = idx[q];  // latest end < t; re-enters the prefix as spent
    } else {
      break;
    }

    const TraceEvent& ev = events_[chosen];
    PathStep step;
    step.track = ev.track;
    step.name = ev.name;
    step.start_ns = ev.start_ns;
    step.end_ns = ev.end_ns();
    step.covered_ns = std::min(ev.end_ns(), t) - ev.start_ns;
    covered_total += step.covered_ns;
    path.steps.push_back(std::move(step));
    t = ev.start_ns;
  }
  std::reverse(path.steps.begin(), path.steps.end());
  path.length_s = des::to_seconds(covered_total);
  path.coverage =
      path.makespan_s > 0.0 ? path.length_s / path.makespan_s : 1.0;

  std::unordered_map<std::string, Contribution> by_name;
  for (const PathStep& step : path.steps) {
    Contribution& c = by_name[step.name];
    c.name = step.name;
    c.seconds += des::to_seconds(step.covered_ns);
    ++c.spans;
  }
  path.contributors.reserve(by_name.size());
  for (auto& [name, c] : by_name) {
    c.fraction = path.length_s > 0.0 ? c.seconds / path.length_s : 0.0;
    path.contributors.push_back(std::move(c));
  }
  std::sort(path.contributors.begin(), path.contributors.end(),
            [](const Contribution& a, const Contribution& b) {
              return a.seconds > b.seconds;
            });
  return path;
}

void TraceAnalysis::report(std::ostream& os, const CriticalPath& path,
                           std::size_t top_n) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "critical path: %.6f s of %.6f s makespan (%.1f%% covered, "
                "%zu steps)\n",
                path.length_s, path.makespan_s, 100.0 * path.coverage,
                path.steps.size());
  os << line;
  os << "top contributors:\n";
  std::size_t shown = 0;
  for (const Contribution& c : path.contributors) {
    if (shown++ >= top_n) break;
    std::snprintf(line, sizeof(line), "  %-24s %10.6f s  %5.1f%%  (%zu spans)\n",
                  c.name.c_str(), c.seconds, 100.0 * c.fraction, c.spans);
    os << line;
  }
}

}  // namespace polaris::obs
