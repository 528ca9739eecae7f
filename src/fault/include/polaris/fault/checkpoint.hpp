// Checkpoint/restart modelling.
//
// The standard coordinated-checkpointing analysis: a job checkpoints every
// tau seconds at cost delta; on failure it loses on average half a segment,
// pays restart cost R, and resumes from the last checkpoint.  Provides
// Daly's optimal-interval formula (Young's first-order one is the tests'
// cross-check of it, in tests/oracles), the first-order analytic
// efficiency, and a Monte-Carlo simulator that plays a long job against a
// sampled failure timeline to validate the analytic curves (and to explore
// regimes where the first-order model breaks down, i.e. MTBF ~ tau).
#pragma once

#include <cstdint>

#include "polaris/fault/failure.hpp"

namespace polaris::fault {

struct CheckpointConfig {
  double checkpoint_cost = 300.0;  ///< delta: seconds to write a checkpoint
  double restart_cost = 120.0;     ///< R: reboot + reload time
  double system_mtbf = 3600.0;     ///< M: mean time between system failures
};

/// Daly's higher-order optimum (valid for delta < 2M; falls back to M
/// otherwise, per the paper).
double daly_interval(const CheckpointConfig& c);

/// First-order machine efficiency at interval tau: fraction of wall time
/// spent on useful work,
///   e(tau) ~ (tau / (tau + delta)) * exp(-(tau/2 + delta + R)/M)-ish;
/// we use the standard waste decomposition
///   waste = delta/tau (checkpoint overhead)
///         + (tau + delta)/(2 M) (lost work per failure)
///         + R/M (restart)
/// and return max(0, 1 - waste).
double analytic_efficiency(const CheckpointConfig& c, double interval);

/// Efficiency of the analytically optimal (Daly) interval.
double optimal_efficiency(const CheckpointConfig& c);

/// Monte-Carlo: runs a job of `work` useful seconds under failures drawn
/// from `system` (a single-unit failure model at system MTBF), returns
/// work / wall_time.  Deterministic in `seed`.
double simulate_efficiency(const CheckpointConfig& c, double interval,
                           double work, std::uint64_t seed);

/// Wall-clock stretch (1/efficiency) a fixed 24h job suffers as the
/// machine scales to `nodes` nodes of `node_mtbf`, with and without
/// checkpointing.  Returns {no_checkpoint_expected_wall, daly_wall} for a
/// job of `work` seconds; no-checkpoint expected completion uses the
/// classic restart-from-zero expectation
///   E[T] = (e^{work/M} - 1) * (M + R).
struct ScaleOutcome {
  double no_checkpoint_wall = 0.0;
  double daly_wall = 0.0;
  double daly_interval_s = 0.0;
  double system_mtbf_s = 0.0;
};
ScaleOutcome wall_time_at_scale(double work, double node_mtbf,
                                std::size_t nodes, double checkpoint_cost,
                                double restart_cost);

}  // namespace polaris::fault
