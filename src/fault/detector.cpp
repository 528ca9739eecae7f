#include "polaris/fault/detector.hpp"

#include <algorithm>
#include <cmath>

#include "polaris/support/check.hpp"

namespace polaris::fault {

PhiAccrualDetector::PhiAccrualDetector(std::size_t window, double min_stddev,
                                       double bootstrap_interval)
    : window_(window),
      min_stddev_(min_stddev),
      bootstrap_interval_(bootstrap_interval) {
  POLARIS_CHECK(window >= 2 && min_stddev > 0 && bootstrap_interval >= 0);
}

void PhiAccrualDetector::heartbeat(double now) {
  const bool first = last_ < 0.0;
  const double x = first ? bootstrap_interval_ : now - last_;
  last_ = now;
  // First heartbeat: seed the window with the expected period, if given, so
  // the very next silence is judged against *something* — otherwise one
  // heartbeat followed by a crash keeps phi at 0 forever.
  if (first && bootstrap_interval_ == 0.0) return;
  if (ring_.empty()) shift_ = x;
  if (ring_.size() < window_) {
    ring_.push_back(x);
  } else {
    const double old = ring_[head_] - shift_;
    sum_ -= old;
    sum_sq_ -= old * old;
    ring_[head_] = x;
    if (++head_ == window_) head_ = 0;
  }
  sum_ += x - shift_;
  sum_sq_ += (x - shift_) * (x - shift_);
  if (head_ == 0 && ring_.size() == window_) {
    // Every `window_` heartbeats once full: re-centre on the mean and
    // recompute the sums, so the slide's rounding error cannot accumulate.
    shift_ += sum_ / static_cast<double>(window_);
    sum_ = sum_sq_ = 0.0;
    for (const double y : ring_) {
      sum_ += y - shift_;
      sum_sq_ += (y - shift_) * (y - shift_);
    }
  }
}

double PhiAccrualDetector::phi(double now) const {
  if (ring_.empty()) {
    if (last_ < 0.0) return 0.0;  // never heard from at all
    // Exactly one heartbeat, no bootstrap: no distribution to judge the
    // silence against, so fall back to a coarse grace deadline.
    return now - last_ > kSingleSampleGrace * min_stddev_ ? kMaxPhi : 0.0;
  }
  const double n = static_cast<double>(ring_.size());
  const double mean_d = sum_ / n;
  // On a regular stream the one-pass variance can round slightly below 0.
  const double var = std::max(sum_sq_ / n - mean_d * mean_d, 0.0);
  const double mean = shift_ + mean_d;
  const double sd = std::max(std::sqrt(var), min_stddev_);

  const double t = now - last_;
  // P(interval > t) under Normal(mean, sd), via the complementary CDF.
  const double z = (t - mean) / sd;
  const double p_later = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (p_later <= 0.0) return kMaxPhi;  // saturate instead of infinity
  return std::min(-std::log10(p_later), kMaxPhi);
}

DetectorQuality evaluate_timeout_detector(double period, double jitter_sigma,
                                          double timeout,
                                          std::size_t heartbeats,
                                          std::uint64_t seed) {
  POLARIS_CHECK(period > 0 && timeout > 0 && heartbeats > 1);
  support::Random rng(seed);
  // Heartbeats sent every `period`; delivery delayed by lognormal jitter
  // with median ~period/20 and the given sigma.
  const double mu = std::log(period / 20.0);

  DetectorQuality q;
  std::size_t false_positives = 0;
  double prev_arrival = 0.0;
  for (std::size_t i = 1; i < heartbeats; ++i) {
    const double sent = static_cast<double>(i) * period;
    const double arrival = sent + rng.lognormal(mu, jitter_sigma);
    // False positive if the gap since the previous arrival exceeded the
    // timeout (the node was healthy the whole time).
    if (arrival - prev_arrival > timeout) ++false_positives;
    prev_arrival = std::max(prev_arrival, arrival);
  }
  q.false_positive_rate =
      static_cast<double>(false_positives) /
      static_cast<double>(heartbeats - 1);
  // Crash just after the last heartbeat was sent: detected `timeout` after
  // the last arrival.
  q.detection_latency = timeout + (prev_arrival -
                                   static_cast<double>(heartbeats - 1) *
                                       period);
  return q;
}

DetectorQuality evaluate_phi_detector(double period, double jitter_sigma,
                                      double threshold,
                                      std::size_t heartbeats,
                                      std::uint64_t seed) {
  // The first 10 arrivals only warm the window (phi is not consulted), so a
  // meaningful rate needs at least one observed arrival past the warmup.
  POLARIS_CHECK(period > 0 && threshold > 0 && heartbeats > 11);
  support::Random rng(seed);
  const double mu = std::log(period / 20.0);

  PhiAccrualDetector det(/*window=*/100, /*min_stddev=*/period / 100.0);
  DetectorQuality q;
  std::size_t false_positives = 0;
  std::size_t observed = 0;
  double last_arrival = 0.0;
  det.heartbeat(0.0);
  for (std::size_t i = 1; i < heartbeats; ++i) {
    const double sent = static_cast<double>(i) * period;
    const double arrival =
        std::max(sent + rng.lognormal(mu, jitter_sigma), last_arrival);
    // Healthy node: did the silence before this arrival cross threshold?
    // The first 10 arrivals train the window and are not judged.
    if (i > 10) {
      ++observed;
      if (det.phi(arrival) > threshold) ++false_positives;
    }
    det.heartbeat(arrival);
    last_arrival = arrival;
  }
  // Rate over the arrivals actually judged — dividing by all heartbeats
  // (warmup included) would bias the reported rate low.
  q.false_positive_rate = static_cast<double>(false_positives) /
                          static_cast<double>(observed);
  // Crash after the last heartbeat: scan forward for the phi crossing.
  double t = last_arrival;
  while (det.phi(t) <= threshold && t < last_arrival + 1000.0 * period) {
    t += period / 50.0;
  }
  q.detection_latency = t - last_arrival;
  return q;
}

}  // namespace polaris::fault
