#include "polaris/support/rng.hpp"

#include <cmath>
#include <numbers>

namespace polaris::support {

std::int64_t Random::uniform_int(std::int64_t lo, std::int64_t hi) {
  POLARIS_CHECK(lo <= hi);
  // Unsigned arithmetic: hi - lo can exceed INT64_MAX.
  const auto base = static_cast<std::uint64_t>(lo);
  const std::uint64_t range = static_cast<std::uint64_t>(hi) - base + 1;
  if (range == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(gen_());
  }
  // Lemire's nearly-divisionless bounded draw with rejection for exactness.
  // The rejection threshold (-range) % range is below `range`, so the
  // division is needed only when a draw's low word is too.
  __uint128_t m = static_cast<__uint128_t>(gen_()) * range;
  if (static_cast<std::uint64_t>(m) < range) {
    const std::uint64_t threshold = (-range) % range;
    while (static_cast<std::uint64_t>(m) < threshold) {
      m = static_cast<__uint128_t>(gen_()) * range;
    }
  }
  return static_cast<std::int64_t>(base + static_cast<std::uint64_t>(m >> 64));
}

double Random::exponential(double lambda) {
  POLARIS_CHECK(lambda > 0.0);
  // 1 - uniform() is in (0, 1], avoiding log(0).
  return -std::log(1.0 - uniform()) / lambda;
}

double Random::weibull(double shape, double scale) {
  POLARIS_CHECK(shape > 0.0 && scale > 0.0);
  return scale * std::pow(-std::log(1.0 - uniform()), 1.0 / shape);
}

double Random::log_uniform(double lo, double hi) {
  POLARIS_CHECK(lo > 0.0 && lo <= hi);
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

double Random::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Random::normal(double mean, double stddev) {
  // Box-Muller without the cached spare so the draw count per call is fixed,
  // which keeps split()-derived streams aligned across code changes.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  return mean + stddev * z;
}

std::int64_t Random::power_of_two(int lo_exp, int hi_exp) {
  POLARIS_CHECK(0 <= lo_exp && lo_exp <= hi_exp && hi_exp < 63);
  const auto e = uniform_int(lo_exp, hi_exp);
  return std::int64_t{1} << e;
}

}  // namespace polaris::support
