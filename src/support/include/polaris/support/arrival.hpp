// Deterministic open-loop arrival processes for request/response workloads.
//
// Serving benchmarks drive the cluster with open-loop traffic: requests
// arrive on their own clock regardless of how fast the system drains them.
// Two shapes cover the datacenter literature's load models:
//
//   - Poisson: independent exponential inter-arrivals at a fixed rate —
//     the memoryless baseline every queueing formula assumes.
//   - Bursty (2-state MMPP): a Markov-modulated Poisson process that
//     alternates between a calm state and a burst state with exponential
//     dwell times.  The burst state arrives `burst_factor` times faster
//     than the calm state, and the state rates are solved so the long-run
//     average equals the configured rate — a bursty process is directly
//     comparable to the Poisson process of the same nominal load.  The
//     modulating chain starts in its stationary distribution (burst with
//     probability burst_fraction), so even a run much shorter than one
//     dwell cycle offers the nominal rate in expectation.
//
// All randomness flows from one seeded support::Random stream, so a
// process is reproducible bit-for-bit and safe inside des::SweepRunner
// points (seed each point with des::sweep_seed, as usual).
#pragma once

#include <cstdint>

#include "polaris/support/rng.hpp"

namespace polaris::support {

struct ArrivalSpec {
  enum class Kind : std::uint8_t {
    kPoisson = 0,
    kBursty = 1,  ///< 2-state MMPP
  };

  Kind kind = Kind::kPoisson;
  double rate = 1.0;  ///< long-run average arrivals per second (> 0)

  // -- bursty shape (ignored for kPoisson) -----------------------------------
  double burst_factor = 8.0;    ///< burst rate / calm rate (> 1)
  double burst_fraction = 0.1;  ///< long-run fraction of time in burst (0, 1)
  double mean_burst_s = 2e-3;   ///< mean burst dwell time, seconds

  static ArrivalSpec poisson(double rate) {
    ArrivalSpec s;
    s.kind = Kind::kPoisson;
    s.rate = rate;
    return s;
  }

  static ArrivalSpec bursty(double rate, double burst_factor = 8.0,
                            double burst_fraction = 0.1,
                            double mean_burst_s = 2e-3) {
    ArrivalSpec s;
    s.kind = Kind::kBursty;
    s.rate = rate;
    s.burst_factor = burst_factor;
    s.burst_fraction = burst_fraction;
    s.mean_burst_s = mean_burst_s;
    return s;
  }
};

class ArrivalProcess {
 public:
  ArrivalProcess(ArrivalSpec spec, std::uint64_t seed);

  /// Seconds from the previous arrival (or from construction) to the next.
  /// Always > 0.
  double next();

  /// True while the modulating chain sits in the burst state (always false
  /// for Poisson).  Exposed for tests and trace annotation.
  bool in_burst() const { return in_burst_; }

  const ArrivalSpec& spec() const { return spec_; }

 private:
  ArrivalSpec spec_;
  Random rng_;
  double rate_calm_ = 1.0;
  double rate_burst_ = 1.0;
  double mean_dwell_calm_s_ = 1.0;
  double mean_dwell_burst_s_ = 1.0;
  double dwell_left_s_ = 0.0;  ///< residual time in the current state
  bool in_burst_ = false;
};

}  // namespace polaris::support
