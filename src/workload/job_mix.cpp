#include "polaris/workload/job_mix.hpp"

#include <algorithm>
#include <cmath>

#include "polaris/support/check.hpp"
#include "polaris/support/rng.hpp"

namespace polaris::workload {

std::vector<rm::JobSpec> make_multi_user_trace(
    const MultiUserTraceConfig& config, std::uint64_t seed) {
  POLARIS_CHECK(config.jobs > 0);
  POLARIS_CHECK(config.users >= 1 && config.accounts >= 1);
  POLARIS_CHECK(config.min_width_exp <= config.max_width_exp);
  POLARIS_CHECK(config.min_runtime > 0 &&
                config.min_runtime <= config.max_runtime);
  POLARIS_CHECK(config.max_overestimate >= 1.0);

  support::Random rng(seed);

  // Zipf-ish user activity: weight(u) = 1 / (u+1)^skew, sampled by
  // inverse-CDF over the cumulative weights.
  std::vector<double> cum(config.users);
  double total = 0.0;
  for (std::uint32_t u = 0; u < config.users; ++u) {
    total += 1.0 / std::pow(static_cast<double>(u + 1), config.user_skew);
    cum[u] = total;
  }

  std::vector<rm::JobSpec> jobs;
  jobs.reserve(config.jobs);
  double t = 0.0;
  for (std::size_t i = 0; i < config.jobs; ++i) {
    t += rng.exponential(1.0 / config.mean_interarrival);
    rm::JobSpec j;
    j.id = i;
    if (config.users > 1) {
      const double pick = rng.uniform(0.0, total);
      j.user = static_cast<rm::UserId>(
          std::lower_bound(cum.begin(), cum.end(), pick) - cum.begin());
    }
    j.account = j.user % config.accounts;
    j.submit = t;
    if (rng.bernoulli(config.p_power_of_two)) {
      j.width = static_cast<std::uint32_t>(
          rng.power_of_two(config.min_width_exp, config.max_width_exp));
    } else {
      j.width = static_cast<std::uint32_t>(rng.uniform_int(
          std::int64_t{1} << config.min_width_exp,
          std::int64_t{1} << config.max_width_exp));
    }
    j.runtime = rng.log_uniform(config.min_runtime, config.max_runtime);
    j.estimate = j.runtime * rng.uniform(1.0, config.max_overestimate);
    if (config.integral_times) {
      j.submit = std::floor(j.submit);
      j.runtime = std::max(1.0, std::floor(j.runtime));
      j.estimate = std::max(j.runtime, std::floor(j.estimate));
    }
    jobs.push_back(j);
  }
  return jobs;
}

double offered_load(const std::vector<rm::JobSpec>& jobs,
                    std::size_t nodes) {
  POLARIS_CHECK(nodes > 0);
  if (jobs.empty()) return 0.0;
  double work = 0.0;
  double first = jobs.front().submit, last = jobs.front().submit;
  for (const rm::JobSpec& j : jobs) {
    work += static_cast<double>(j.width) * j.runtime;
    first = std::min(first, j.submit);
    last = std::max(last, j.submit);
  }
  const double span = std::max(last - first, 1.0);
  return work / (static_cast<double>(nodes) * span);
}

}  // namespace polaris::workload
