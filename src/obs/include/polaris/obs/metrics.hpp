// Metrics registry: named counters, gauges and log histograms.
//
// Instrumented code holds a raw pointer to a metric object (obtained once
// from the registry) and updates it with one atomic op; a null pointer
// means "no observer attached" and costs one predictable branch.  Metric
// objects live as long as the registry, so cached pointers never dangle.
// Counters and gauges are lock-free.  LogHistogram is single-writer with
// no lock and no retained samples: code that records from several threads
// gives each worker its own and folds them with merge_from after the join.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace polaris::obs {

/// Monotonic event count.  add() is wait-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value (queue depth, occupancy, temperature).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }

  /// Retains the maximum of all observations (high-watermark gauge).
  void observe_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-linear histogram (HdrHistogram-style) for hot-path
/// integer samples: each power-of-two octave is split into 32 linear
/// sub-buckets, so any recorded value lands within 1/32 (~3%) of its
/// bucket's representative and record() is two shifts and an increment —
/// no allocation, no mutex, no retained samples.  The whole state is a
/// flat counts array, which makes per-worker instances trivially cheap to
/// fold (merge_from is a vector add); that is why every pdes shard and rt
/// rank owns its histograms and its owner folds them after the join.
///
/// Concurrency contract: single writer.  Counters are plain (non-atomic) —
/// one owner thread records, readers look only after the writer quiesces
/// (end of run / after a barrier).  Copyable so merged results can be
/// moved into a combined report.
class LogHistogram {
 public:
  /// Sub-bucket resolution: 2^5 = 32 linear buckets per octave.
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  /// Exact buckets below kSub (block 0), then 32 per octave: the top
  /// octave (msb 63) lands in block 64 - kSubBits, so blocks run
  /// 0 .. 64 - kSubBits inclusive.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((64 - kSubBits + 1) * kSub);

  LogHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (v < min_) min_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t max() const { return count_ != 0 ? max_ : 0; }
  std::uint64_t min() const { return count_ != 0 ? min_ : 0; }
  double mean() const {
    return count_ != 0 ? static_cast<double>(sum_) / count_ : 0.0;
  }

  /// Zeroes every bucket and accumulator so the instance can be reused
  /// (per-shard histograms between runs, ring reuse) without reallocating
  /// the counts array.
  void reset() {
    std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    min_ = ~std::uint64_t{0};
  }

  /// Bucket-add merge; the receiving histogram accumulates `other`'s
  /// samples at bucket resolution (exact counts, ~3% value quantization).
  void merge_from(const LogHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ != 0) {
      if (other.max_ > max_) max_ = other.max_;
      if (other.min_ < min_) min_ = other.min_;
    }
  }

  /// Quantile estimate, q in [0, 1]: quantile(0.99) is p99.  Same
  /// estimator as percentile(), on the conventional unit scale.
  double quantile(double q) const { return percentile(q * 100.0); }

  /// Percentile estimate (p in [0, 100]): cumulative walk to the target
  /// rank, linear interpolation inside the landing bucket.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const std::uint64_t next = seen + counts_[i];
      if (static_cast<double>(next) >= rank) {
        // counts_[i] > 0 here: empty buckets were skipped above.
        const double into = (rank - static_cast<double>(seen)) /
                            static_cast<double>(counts_[i]);
        return static_cast<double>(bucket_floor(i)) +
               into * static_cast<double>(bucket_width(i));
      }
      seen = next;
    }
    return static_cast<double>(max_);
  }

  /// Bucket mapping (exposed for tests).  Values < kSub map exactly;
  /// larger values index by (octave, top-5-bits-below-msb).
  static std::size_t bucket_index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const std::uint64_t sub = (v >> (msb - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(msb - kSubBits + 1) << kSubBits) + sub);
  }

  /// Smallest value mapping to bucket `i`.
  static std::uint64_t bucket_floor(std::size_t i) {
    if (i < kSub) return i;
    const std::uint64_t block = (i >> kSubBits) - 1;  // 0-based octave - 5
    const int msb = static_cast<int>(block) + kSubBits;
    const std::uint64_t sub = i & (kSub - 1);
    return (std::uint64_t{1} << msb) + (sub << (msb - kSubBits));
  }

  /// Width (value span) of bucket `i`.
  static std::uint64_t bucket_width(std::size_t i) {
    if (i < kSub) return 1;
    const std::uint64_t block = (i >> kSubBits) - 1;
    return std::uint64_t{1} << block;
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
};

/// Owner and name directory of all metrics.  Lookup is mutex-protected and
/// intended for attach time, not the hot path: fetch the metric once, keep
/// the reference.  Metrics are created on first lookup.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& log_histogram(std::string_view name);

  std::size_t size() const;

  /// Writes every metric as one "name kind value [stats]" line, sorted by
  /// name (stable across runs; greppable).
  void dump(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>>
      log_histograms_;
};

}  // namespace polaris::obs
