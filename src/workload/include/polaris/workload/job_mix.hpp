// Multi-user job-mix traces for the resource manager.
//
// Extends the Feitelson-style statistical shape (Poisson arrivals,
// power-of-two-biased widths, log-uniform runtimes, over-estimated
// requests) with the identities a resource manager accounts by: a skewed
// population of users (a few heavy submitters, a long tail) grouped into
// accounts.
//
// With one user the trace is the plain Feitelson stream: a draw is taken
// only for a field that can vary.
//
// `integral_times` rounds every submit/runtime/estimate to whole seconds.
// That makes the seconds -> engine-tick conversion exact, so tests can
// compare the tick-driven ResourceManager with a double-driven reference
// at tick resolution.
#pragma once

#include <cstdint>
#include <vector>

#include "polaris/rm/types.hpp"

namespace polaris::workload {

struct MultiUserTraceConfig {
  std::size_t jobs = 10000;
  std::uint32_t users = 16;
  std::uint32_t accounts = 4;       ///< users are striped across accounts
  double user_skew = 2.0;           ///< Zipf-ish exponent; 0 = uniform
  double mean_interarrival = 60.0;  ///< seconds (Poisson arrivals)
  int min_width_exp = 0;            ///< widths 2^min .. 2^max
  int max_width_exp = 7;
  double p_power_of_two = 0.75;
  double min_runtime = 60.0;
  double max_runtime = 24.0 * 3600.0;
  double max_overestimate = 5.0;    ///< estimate = runtime * U[1, this]
  bool integral_times = false;  ///< whole-second times (tick-exact)
};

/// Reproducible multi-user trace; job ids are 0..jobs-1 in submit order.
std::vector<rm::JobSpec> make_multi_user_trace(
    const MultiUserTraceConfig& config, std::uint64_t seed);

/// Offered load against a cluster: sum(width * runtime) / (nodes * span of
/// submissions).
double offered_load(const std::vector<rm::JobSpec>& jobs, std::size_t nodes);

}  // namespace polaris::workload
