// In-memory schedule executor: the collective-correctness oracle.
//
// Executes a Schedule over per-rank double buffers with FIFO pairwise
// channels and cooperative stepping, entirely in memory and without any
// timing model.  Tests use it to prove every algorithm computes the right
// answer (and is deadlock-free) before the same schedule runs on the
// simulated or real runtime.
#pragma once

#include <vector>

#include "polaris/coll/schedule.hpp"

namespace polaris::coll {

/// Executes `schedule` in place over `buffers` (one buffer of
/// schedule.total_count doubles per rank).
///
/// `input`: per-rank read-only source for steps with send_from_input
/// (alltoall); required iff the schedule uses them.
///
/// Throws support::ContractViolation on malformed schedules and
/// std::runtime_error("schedule deadlock: ...") if no rank can progress.
void execute_locally(const Schedule& schedule,
                     std::vector<std::vector<double>>& buffers,
                     ReduceOp op = ReduceOp::kSum,
                     const std::vector<std::vector<double>>* input = nullptr);

}  // namespace polaris::coll
