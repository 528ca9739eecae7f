// Shared types of the polaris end-to-end benchmark binary.
//
// The benchmark measures host cost per unit of simulated work.  Each workload
// builds a fresh simulation per pass (timed as set-up), runs it (timed as
// run), then reads the modules' public stats.  Simulated statistics are a
// correctness fingerprint, not a performance metric: a host-only change
// must leave them bit-identical.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Bench-side span recorder.  Spans wrap the benchmark's own calls into
/// each layer; they are kept in memory and written as Chrome trace JSON
/// when the benchmark ends.
class Spans {
 public:
  int begin(std::string name);
  void end(int id);
  void arg(int id, std::string key, double value);
  void write_chrome(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::vector<std::pair<std::string, double>> args;
  };
  double now_us() const {
    return seconds_between(origin_, Clock::now()) * 1e6;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Records one span for its lifetime; does nothing without a recorder.
class Scope {
 public:
  Scope(Spans* spans, const char* name)
      : spans_(spans), id_(spans ? spans->begin(name) : -1) {}
  ~Scope() {
    if (spans_) spans_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void arg(const char* key, double value) {
    if (spans_) spans_->arg(id_, key, value);
  }

 private:
  Spans* spans_;
  int id_;
};

/// A named per-layer value.  Units follow BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0.0;
};
using Metrics = std::vector<Metric>;

/// Value of `name` in `m`, or 0 when absent.
double find_metric(const Metrics& m, const std::string& name);
/// Median of `v` (0 when empty).
double median(std::vector<double> v);

struct PassResult {
  double setup_s = 0.0;  ///< host seconds building the workload
  double run_s = 0.0;    ///< host seconds simulating it
  double units = 0.0;    ///< simulated work completed (workload's unit)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string fingerprint;              ///< simulated outputs, printable
  std::vector<std::string> violations;  ///< invariants that did not hold
  Metrics layers;                       ///< per-layer counts and host times
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What one unit of `units` is ("rank_iters", "requests", "campaigns").
  virtual const char* unit() const = 0;
  /// Execution threads the workload runs on.
  virtual std::size_t workers() const { return 1; }
  /// One full set-up + run + collect.  `spans` is null on untraced passes.
  virtual PassResult pass(Spans* spans) = 0;
  /// Traced-run-only measurements taken after the traced passes (serial
  /// pdes baseline, cost ledger).  Appends to `out` and `violations`.
  virtual void traced_extras(const std::vector<PassResult>& /*traced*/,
                             Metrics& /*out*/,
                             std::vector<std::string>& /*violations*/) {}
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny);

/// Host cost of one unit of work in each layer, measured by calling its
/// public functions directly on a synthetic load.
struct UnitCosts {
  double des_event_ns = 0.0;        ///< schedule_raw_after + dispatch
  double fabric_idle_msg_ns = 0.0;  ///< transfer_raw on an idle path
  double fabric_hop_ns = 0.0;       ///< per walker hop on a contended path
  double msg_pair_ns = 0.0;         ///< TagMatcher post_recv + arrive
};

UnitCosts measure_unit_costs(bool tiny);

/// Events per host second of a fixed reference simulation (reference.cpp)
/// over `events` events: the host's current speed.
double reference_rate(std::uint64_t events);

}  // namespace perfbench
