// Two-pass phi-accrual detector: the reference the tests hold
// fault::PhiAccrualDetector's running-moment phi against.  Each query
// re-sums the whole window for the mean, then again for the variance.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <deque>

#include "polaris/fault/detector.hpp"

namespace polaris::fault {

class ReferencePhiAccrualDetector {
 public:
  explicit ReferencePhiAccrualDetector(std::size_t window = 100,
                                       double min_stddev = 1e-3,
                                       double bootstrap_interval = 0.0)
      : window_(window),
        min_stddev_(min_stddev),
        bootstrap_interval_(bootstrap_interval) {}

  void heartbeat(double now) {
    if (last_ >= 0.0) {
      intervals_.push_back(now - last_);
      if (intervals_.size() > window_) intervals_.pop_front();
    } else if (bootstrap_interval_ > 0.0) {
      intervals_.push_back(bootstrap_interval_);
    }
    last_ = now;
  }

  double phi(double now) const {
    constexpr double kMaxPhi = PhiAccrualDetector::kMaxPhi;
    if (intervals_.empty()) {
      if (last_ < 0.0) return 0.0;
      return now - last_ >
                     PhiAccrualDetector::kSingleSampleGrace * min_stddev_
                 ? kMaxPhi
                 : 0.0;
    }
    double mean = 0.0;
    for (double x : intervals_) mean += x;
    mean /= static_cast<double>(intervals_.size());
    double var = 0.0;
    for (double x : intervals_) var += (x - mean) * (x - mean);
    var /= static_cast<double>(intervals_.size());
    const double sd = std::max(std::sqrt(var), min_stddev_);

    const double t = now - last_;
    const double z = (t - mean) / sd;
    const double p_later = 0.5 * std::erfc(z / std::sqrt(2.0));
    if (p_later <= 0.0) return kMaxPhi;
    return std::min(-std::log10(p_later), kMaxPhi);
  }

  std::size_t samples() const { return intervals_.size(); }

 private:
  std::size_t window_;
  double min_stddev_;
  double bootstrap_interval_;
  double last_ = -1.0;
  std::deque<double> intervals_;
};

}  // namespace polaris::fault
