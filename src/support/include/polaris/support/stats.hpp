// Descriptive statistics used throughout experiments: streaming moments
// (Welford) and percentile summaries.
#pragma once

#include <cstddef>
#include <vector>

namespace polaris::support {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) memory; numerically stable for long simulations.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample-retaining summary for percentiles.  Keeps all samples; intended
/// for experiment-scale data (≤ millions of points), not unbounded streams.
class Summary {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const;

  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace polaris::support
