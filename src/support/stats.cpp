#include "polaris/support/stats.hpp"

#include <algorithm>

#include "polaris/support/check.hpp"

namespace polaris::support {

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double Summary::sum() const {
  double s = 0.0;
  for (double x : samples_) s += x;
  return s;
}

double Summary::percentile(double p) const {
  POLARIS_CHECK(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] + frac * (samples_[lo + 1] - samples_[lo]);
}

}  // namespace polaris::support
