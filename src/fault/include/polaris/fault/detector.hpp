// Failure detectors.
//
// The resource-management layer needs to notice dead nodes before it can
// recover them.  Two classic detectors over periodic heartbeats:
//   - fixed-timeout: suspect after `timeout` seconds of silence.  Simple,
//     but the timeout trades detection latency against false alarms from
//     late heartbeats.
//   - phi-accrual (Hayashibara et al.): maintains a window of inter-arrival
//     times and outputs a suspicion level
//         phi(t) = -log10( P(next heartbeat later than t) )
//     under a normal fit of the window; threshold on phi instead of on a
//     fixed timeout, adapting to observed jitter.  A query is O(1): the
//     window keeps running sums of (x - shift) and (x - shift)^2, and every
//     `window` heartbeats re-centres the shift on the window mean and
//     recomputes both sums from the window, so rounding drift stays bounded.
//     phi matches the two-pass mean/variance formula to within ~1e-9.
#pragma once

#include <cstddef>
#include <vector>

#include "polaris/support/rng.hpp"

namespace polaris::fault {

/// Fixed-timeout heartbeat detector for one monitored node.
///
/// `registered_at` is the sim time the node came under observation; the
/// silence clock starts there, so a node first registered at T > timeout
/// gets a full timeout of grace before its first heartbeat instead of being
/// instantly suspected against an implicit t=0 heartbeat.
class TimeoutDetector {
 public:
  explicit TimeoutDetector(double timeout, double registered_at = 0.0)
      : timeout_(timeout), last_(registered_at) {}

  void heartbeat(double now) {
    last_ = now;
    has_heartbeat_ = true;
  }
  bool suspect(double now) const { return now - last_ > timeout_; }
  double timeout() const { return timeout_; }
  /// Latest heartbeat arrival, or the registration time if none arrived yet
  /// (check has_heartbeat() to tell the two apart).
  double last_heartbeat() const { return last_; }
  bool has_heartbeat() const { return has_heartbeat_; }

 private:
  double timeout_;
  double last_;
  bool has_heartbeat_ = false;
};

/// Phi-accrual detector for one monitored node.
class PhiAccrualDetector {
 public:
  /// Silence multiple of `min_stddev` after which a node with exactly one
  /// heartbeat (and no bootstrap interval) saturates to full suspicion —
  /// without it such a node could never be suspected, because the empty
  /// interval window kept phi at 0 forever.
  static constexpr double kSingleSampleGrace = 1e4;
  static constexpr double kMaxPhi = 40.0;

  /// `window`: inter-arrival samples kept; `min_stddev` floors the jitter
  /// estimate to avoid phi exploding on perfectly regular streams;
  /// `bootstrap_interval` (> 0 to enable, typically the configured
  /// heartbeat period) seeds the window with one synthetic sample at the
  /// first heartbeat so phi is meaningful from the start.
  explicit PhiAccrualDetector(std::size_t window = 100,
                              double min_stddev = 1e-3,
                              double bootstrap_interval = 0.0);

  void heartbeat(double now);

  /// Suspicion level at `now`: 0 before any heartbeat; after exactly one
  /// heartbeat with no bootstrap interval, escalates to kMaxPhi once the
  /// silence exceeds kSingleSampleGrace * min_stddev.
  double phi(double now) const;

  bool suspect(double now, double threshold = 8.0) const {
    return phi(now) > threshold;
  }

  std::size_t samples() const { return ring_.size(); }

 private:
  std::size_t window_;
  double min_stddev_;
  double bootstrap_interval_;
  double last_ = -1.0;
  /// The last `window_` inter-arrival intervals; grows on demand, then the
  /// oldest (at `head_`) is overwritten.
  std::vector<double> ring_;
  std::size_t head_ = 0;
  /// Running sums of (x - shift_) and (x - shift_)^2 over `ring_`.
  double shift_ = 0.0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Monte-Carlo characterization of a detector policy against heartbeats
/// with lognormal network jitter: returns the false-positive rate (fraction
/// of healthy observation windows wrongly suspected) and the detection
/// latency after a real crash.
struct DetectorQuality {
  double false_positive_rate = 0.0;
  double detection_latency = 0.0;  ///< seconds after crash until suspected
};

DetectorQuality evaluate_timeout_detector(double period, double jitter_sigma,
                                          double timeout,
                                          std::size_t heartbeats,
                                          std::uint64_t seed);

/// Same characterization for a phi-accrual detector at `threshold`:
/// heartbeats with lognormal jitter feed the detector; a false positive is
/// an inter-arrival gap whose phi crosses the threshold while the node is
/// healthy; detection latency is the silence needed after a crash for phi
/// to cross it (given the trained window).
DetectorQuality evaluate_phi_detector(double period, double jitter_sigma,
                                      double threshold,
                                      std::size_t heartbeats,
                                      std::uint64_t seed);

}  // namespace polaris::fault
