#include "polaris/des/sweep.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "polaris/support/rng.hpp"

namespace polaris::des {

std::uint64_t sweep_seed(std::uint64_t base_seed, std::size_t point) {
  // Golden-ratio stride keeps adjacent points far apart in SplitMix64's
  // state space; the mixer output seeds each point's xoshiro expansion.
  support::SplitMix64 sm(base_seed ^
                         (0x9e3779b97f4a7c15ULL * (point + 1)));
  return sm.next();
}

std::size_t SweepRunner::default_threads() {
  if (const char* env = std::getenv("POLARIS_SWEEP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace polaris::des
