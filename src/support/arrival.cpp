#include "polaris/support/arrival.hpp"

#include "polaris/support/check.hpp"

namespace polaris::support {

ArrivalProcess::ArrivalProcess(ArrivalSpec spec, std::uint64_t seed)
    : spec_(spec), rng_(seed) {
  POLARIS_CHECK(spec_.rate > 0.0);
  if (spec_.kind == ArrivalSpec::Kind::kPoisson) {
    rate_calm_ = rate_burst_ = spec_.rate;
    return;
  }
  POLARIS_CHECK(spec_.burst_factor > 1.0);
  POLARIS_CHECK(spec_.burst_fraction > 0.0 && spec_.burst_fraction < 1.0);
  POLARIS_CHECK(spec_.mean_burst_s > 0.0);
  // Solve the calm rate so the time average is spec_.rate:
  //   rate = f*B*r_calm + (1-f)*r_calm  =>  r_calm = rate / (1 + f*(B-1)).
  const double f = spec_.burst_fraction;
  rate_calm_ = spec_.rate / (1.0 + f * (spec_.burst_factor - 1.0));
  rate_burst_ = rate_calm_ * spec_.burst_factor;
  // Dwell times with burst fraction f: calm dwell = burst dwell * (1-f)/f.
  mean_dwell_burst_s_ = spec_.mean_burst_s;
  mean_dwell_calm_s_ = spec_.mean_burst_s * (1.0 - f) / f;
  // Stationary initial state: the chain spends fraction f of its time in
  // burst, so a fresh process starts there with probability f.  (A cold
  // start pinned to calm biases the short-horizon mean rate toward
  // rate_calm_ — a run much shorter than a dwell cycle would average
  // rate/(1 + f*(B-1)) instead of rate.)  Dwell times are exponential,
  // hence memoryless: a full dwell draw IS the stationary residual.
  in_burst_ = rng_.bernoulli(f);
  dwell_left_s_ = rng_.exponential(
      1.0 / (in_burst_ ? mean_dwell_burst_s_ : mean_dwell_calm_s_));
}

double ArrivalProcess::next() {
  if (spec_.kind == ArrivalSpec::Kind::kPoisson) {
    return rng_.exponential(spec_.rate);
  }
  // Walk modulation-state boundaries until an arrival lands inside the
  // current state.  Exponential arrivals are memoryless, so re-drawing the
  // arrival clock after each state switch is exact.
  double elapsed = 0.0;
  for (;;) {
    const double rate = in_burst_ ? rate_burst_ : rate_calm_;
    const double to_arrival = rng_.exponential(rate);
    if (to_arrival < dwell_left_s_) {
      dwell_left_s_ -= to_arrival;
      return elapsed + to_arrival;
    }
    elapsed += dwell_left_s_;
    in_burst_ = !in_burst_;
    dwell_left_s_ = rng_.exponential(
        1.0 / (in_burst_ ? mean_dwell_burst_s_ : mean_dwell_calm_s_));
  }
}

}  // namespace polaris::support
