// Exact descriptive statistics for experiments and test oracles: a
// sample-retaining percentile summary.  Hot-path and per-worker
// distributions use obs::LogHistogram instead, which retains no samples.
#pragma once

#include <cstddef>
#include <vector>

namespace polaris::support {

/// Sample-retaining summary for percentiles.  Keeps all samples; intended
/// for experiment-scale data (≤ millions of points), not unbounded streams.
class Summary {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
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
