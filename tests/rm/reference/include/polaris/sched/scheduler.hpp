// Reference space-sharing cluster schedulers (test-only).
//
// A detached analytic loop over doubles that the rm equivalence tests
// replay rm::ResourceManager against, job-for-job.  Event-driven
// simulation of a rigid-job cluster under four classic policies:
//   FCFS           — strict arrival order; the queue head blocks.
//   SJF            — shortest requested runtime first (no reservation).
//   EASY backfill  — FCFS head reservation + backfilling of jobs that
//                    cannot delay the head (Lifka's EASY, the algorithm
//                    behind the era's production schedulers).
//   Conservative   — every queued job holds a reservation; a job may be
//                    backfilled only if it delays NO earlier reservation
//                    (stronger guarantee, usually slightly lower
//                    utilization than EASY).
// Reservations plan with user estimates; completions occur at actual
// runtimes — exactly the information asymmetry real schedulers face.
#pragma once

#include <cstddef>
#include <vector>

#include "polaris/sched/job.hpp"

namespace polaris::sched {

enum class Policy {
  kFcfs,
  kSjf,
  kEasyBackfill,
  kConservative,
};

const char* to_string(Policy p);

/// Aggregate outcome of one scheduling run.
struct SchedMetrics {
  std::size_t jobs = 0;
  double makespan = 0.0;            ///< last finish time
  double utilization = 0.0;         ///< busy node-seconds / (nodes*makespan)
  double mean_wait = 0.0;
  double p95_wait = 0.0;
  double mean_bounded_slowdown = 0.0;
  double median_bounded_slowdown = 0.0;
  std::uint64_t backfilled = 0;     ///< jobs started ahead of queue order
};

/// Runs `jobs` (any order; sorted internally by submit time) on a cluster
/// of `nodes` under `policy`.  Fills Job::start/finish in place and
/// returns metrics.  Jobs wider than the cluster throw.
SchedMetrics run_scheduler(std::vector<Job>& jobs, std::size_t nodes,
                           Policy policy);

}  // namespace polaris::sched
