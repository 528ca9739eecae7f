#include "polaris/fault/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "polaris/support/check.hpp"

namespace polaris::fault {

double daly_interval(const CheckpointConfig& c) {
  POLARIS_CHECK(c.checkpoint_cost > 0 && c.system_mtbf > 0);
  const double d = c.checkpoint_cost, m = c.system_mtbf;
  if (d >= 2.0 * m) return m;
  const double x = std::sqrt(d / (2.0 * m));
  // Daly (2006): tau_opt = sqrt(2 d M) [1 + x/3 + x^2/9] - d.
  const double tau =
      std::sqrt(2.0 * d * m) * (1.0 + x / 3.0 + x * x / 9.0) - d;
  return std::max(tau, d);
}

double analytic_efficiency(const CheckpointConfig& c, double interval) {
  POLARIS_CHECK(interval > 0);
  const double waste =
      c.checkpoint_cost / interval +
      (interval + c.checkpoint_cost) / (2.0 * c.system_mtbf) +
      c.restart_cost / c.system_mtbf;
  return std::max(0.0, 1.0 - waste);
}

double optimal_efficiency(const CheckpointConfig& c) {
  return analytic_efficiency(c, daly_interval(c));
}

double simulate_efficiency(const CheckpointConfig& c, double interval,
                           double work, std::uint64_t seed) {
  POLARIS_CHECK(interval > 0 && work > 0);
  support::Random rng(seed);
  const auto model = FailureModel::exponential(c.system_mtbf);

  double wall = 0.0;       // elapsed wall clock
  double done = 0.0;       // committed (checkpointed) useful work
  double next_fail = model.sample_ttf(rng);

  while (done < work) {
    // Attempt one segment: interval of work (or the remainder) + checkpoint.
    const double segment_work = std::min(interval, work - done);
    const double segment_len =
        segment_work + (done + segment_work < work ? c.checkpoint_cost : 0.0);
    if (wall + segment_len <= next_fail) {
      wall += segment_len;
      done += segment_work;
    } else {
      // Failure mid-segment: lose uncommitted progress, pay restart.
      wall = next_fail + c.restart_cost;
      next_fail = wall + model.sample_ttf(rng);
    }
  }
  return work / wall;
}

ScaleOutcome wall_time_at_scale(double work, double node_mtbf,
                                std::size_t nodes, double checkpoint_cost,
                                double restart_cost) {
  POLARIS_CHECK(work > 0 && node_mtbf > 0 && nodes > 0);
  ScaleOutcome out;
  out.system_mtbf_s = system_mtbf_exponential(node_mtbf, nodes);

  CheckpointConfig c;
  c.checkpoint_cost = checkpoint_cost;
  c.restart_cost = restart_cost;
  c.system_mtbf = out.system_mtbf_s;

  // Restart-from-zero expectation for a failure-prone job of length W on a
  // machine of MTBF M:  E[T] = (e^{W/M} - 1)(M + R).
  const double ratio = work / out.system_mtbf_s;
  if (ratio > 700.0) {  // exp overflow: effectively never finishes
    out.no_checkpoint_wall = std::numeric_limits<double>::infinity();
  } else {
    out.no_checkpoint_wall =
        (std::exp(ratio) - 1.0) * (out.system_mtbf_s + restart_cost);
  }

  out.daly_interval_s = daly_interval(c);
  const double eff = analytic_efficiency(c, out.daly_interval_s);
  out.daly_wall = eff > 1e-9 ? work / eff
                             : std::numeric_limits<double>::infinity();
  return out;
}

}  // namespace polaris::fault
