// Post-hoc trace analysis: span aggregation and critical-path
// reconstruction.
//
// The critical path of an SPMD run is approximated from span timing alone:
// starting at the last span to finish, walk backwards, at each point
// choosing the span (on any analyzed track) that was active then — the
// work the run could not have finished without.  When rank timelines are
// fully instrumented (every wait, transfer and compute is a span, as the
// simulated runtime guarantees), the reconstructed chain covers the
// makespan up to instrumentation gaps, and its per-name aggregation says
// where an optimizer should look first.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "polaris/obs/trace.hpp"

namespace polaris::obs {

/// Aggregate share of one span name.
struct Contribution {
  std::string name;
  double seconds = 0.0;
  std::size_t spans = 0;
  double fraction = 0.0;  ///< of the reference interval (path or makespan)
};

/// One link of the reconstructed chain, chronological.
struct PathStep {
  TrackId track = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t covered_ns = 0;  ///< contribution to the path (overlap-free)
};

struct CriticalPath {
  double makespan_s = 0.0;  ///< first span start to last span end
  double length_s = 0.0;    ///< time covered by the chain
  double coverage = 0.0;    ///< length / makespan (1.0 = fully explained)
  std::vector<PathStep> steps;
  std::vector<Contribution> contributors;  ///< by covered time, descending
};

class TraceAnalysis {
 public:
  /// Snapshots the tracer's events (producers quiesced); the tracer may
  /// keep recording afterwards.
  explicit TraceAnalysis(const Tracer& tracer);

  /// Analysis over an explicit event set (post-hoc, e.g. loaded traces).
  /// Each track's events in record order; tracks may interleave freely.
  TraceAnalysis(std::vector<TraceEvent> events,
                std::vector<Tracer::Track> tracks);

  /// Reconstructs the critical path over the tracks of one process group
  /// (empty = every track).
  CriticalPath critical_path(std::string_view process = "ranks") const;

  /// Human-readable report of a critical path: makespan, coverage, top
  /// contributors and the head of the chain.
  static void report(std::ostream& os, const CriticalPath& path,
                     std::size_t top_n = 10);

 private:
  std::vector<std::size_t> spans_in(std::string_view process) const;

  std::vector<TraceEvent> events_;
  std::vector<Tracer::Track> tracks_;
};

}  // namespace polaris::obs
