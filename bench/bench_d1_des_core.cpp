// D1 — DES core throughput: the ceiling on every other experiment.
//
// Measures schedule/fire and schedule/cancel event throughput of the pooled
// three-tier engine (tick wheel, block wheel, 4-ary heap) against an
// in-file replica of the seed engine
// (std::priority_queue + unordered_set cancellation + a callback wrapper
// that heap-allocates every target, exactly as the seed's UniqueFunction
// did), plus the coroutine resume rate that bounds simulated-rank progress,
// a hold-model depth sweep that prices an event by queue depth and delay,
// and the SweepRunner's multi-core scaling on independent engine instances.
// The sweep also counts global operator new calls in its timed loops
// (heap_count.cpp): a steady hold model must allocate nothing.
//
// Emits BENCH_DES.json and BENCH_SWEEP.json in the working directory so
// successive PRs have a recorded perf trajectory.  POLARIS_BENCH_BUDGET_MS
// shrinks the workload for CI smoke runs (default ~2000 ms per section).
// Exits 1 if far delays cost more than 1.5x near ones at 4,096 pending
// events: the queue is meant to be O(1) at any depth.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/sweep.hpp"
#include "polaris/des/task.hpp"
#include "polaris/support/table.hpp"
#include "heap_count.hpp"
#include "report.hpp"

namespace {

using polaris::des::SimTime;

// ------------------------------------------------------ seed-engine replica
//
// Faithful copy of the pre-replacement hot path so the speedup is measured
// against the real baseline, not a strawman: binary heap of events, a
// hash-set consulted (and mutated) per cancel/pop, and one heap allocation
// per scheduled callback.

/// The seed's UniqueFunction: unconditional unique_ptr type erasure.
class HeapFunction {
 public:
  HeapFunction() = default;
  template <typename F>
  HeapFunction(F&& f)  // NOLINT(google-explicit-constructor)
      : impl_(std::make_unique<Model<std::decay_t<F>>>(std::forward<F>(f))) {
  }
  HeapFunction(HeapFunction&&) noexcept = default;
  HeapFunction& operator=(HeapFunction&&) noexcept = default;
  void operator()() { impl_->invoke(); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void invoke() = 0;
  };
  template <typename F>
  struct Model final : Concept {
    explicit Model(F f) : fn(std::move(f)) {}
    void invoke() override { fn(); }
    F fn;
  };
  std::unique_ptr<Concept> impl_;
};

class SeedEngine {
 public:
  struct EventId {
    std::uint64_t seq = 0;
  };

  SimTime now() const { return now_; }

  EventId schedule_after(SimTime dt, HeapFunction cb) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(Event{now_ + dt, seq, std::move(cb)});
    return EventId{seq};
  }

  void cancel(EventId id) { cancelled_.insert(id.seq); }

  std::size_t run() {
    std::size_t n = 0;
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (auto it = cancelled_.find(ev.seq); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = ev.t;
      ev.cb();
      ++n;
    }
    return n;
  }

 private:
  struct Event {
    SimTime t;
    std::uint64_t seq;
    HeapFunction cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> cancelled_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
};

// ------------------------------------------------------------- workloads

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Timer-wheel-style churn: `depth` self-rescheduling timers with mixed
/// short/long deltas keep the queue at a realistic working depth while
/// `events` total events fire.  Returns events/second.
template <typename Engine>
double bench_schedule_fire(std::uint64_t events, std::uint64_t depth) {
  Engine eng;
  std::uint64_t remaining = events;
  std::uint32_t lcg = 0x1234567;
  std::function<void()> tick = [&] {
    if (remaining == 0) return;
    --remaining;
    lcg = lcg * 1664525u + 1013904223u;
    eng.schedule_after(1 + (lcg >> 20), [&] { tick(); });
  };
  for (std::uint64_t i = 0; i < depth; ++i) {
    eng.schedule_after(1 + i, [&] { tick(); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  return static_cast<double>(events + depth) / seconds_since(t0);
}

/// Schedule bursts and cancel 7/8 of them before they fire (the protocol
/// timeout pattern: almost every timeout is cancelled by the ack).
/// Returns (schedule+cancel+fire) operations per second.
template <typename Engine>
double bench_schedule_cancel(std::uint64_t bursts, std::uint64_t burst) {
  Engine eng;
  std::uint64_t ops = 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<typename Engine::EventId> ids;
  ids.reserve(burst);
  for (std::uint64_t b = 0; b < bursts; ++b) {
    ids.clear();
    for (std::uint64_t i = 0; i < burst; ++i) {
      ids.push_back(eng.schedule_after(1000 + i, [] {}));
    }
    for (std::uint64_t i = 0; i < burst; ++i) {
      if (i % 8 != 0) eng.cancel(ids[i]);
    }
    eng.run();
    ops += 2 * burst;
  }
  return static_cast<double>(ops) / seconds_since(t0);
}

/// Coroutine resume throughput on the real engine: `procs` processes each
/// awaiting `rounds` unit delays.  Returns resumes/second.
double bench_coroutine_resume(std::uint64_t procs, std::uint64_t rounds) {
  polaris::des::Engine eng;
  auto proc = [](polaris::des::Engine& e,
                 std::uint64_t n) -> polaris::des::Task<void> {
    for (std::uint64_t i = 0; i < n; ++i) {
      co_await polaris::des::delay(e, 1);
    }
  };
  for (std::uint64_t p = 0; p < procs; ++p) {
    eng.spawn(proc(eng, rounds));
  }
  const auto t0 = std::chrono::steady_clock::now();
  eng.run();
  return static_cast<double>(procs * rounds) / seconds_since(t0);
}

// Adapter so the templated workloads can drive polaris::des::Engine with
// the same surface as SeedEngine.
struct RealEngine {
  using EventId = polaris::des::EventId;
  polaris::des::Engine eng;
  SimTime now() const { return eng.now(); }
  EventId schedule_after(SimTime dt, polaris::des::Engine::Callback cb) {
    return eng.schedule_after(dt, std::move(cb));
  }
  void cancel(EventId id) { eng.cancel(id); }
  std::size_t run() { return eng.run(); }
};

// ------------------------------------------------- depth sweep (hold model)
//
// The classic hold model: `depth` pending events, each of which reschedules
// itself at now + a delay drawn uniformly from [lo, hi] when it fires, so
// the queue stays exactly `depth` deep.  Near delays (1-4,096 ticks) stay
// in the tick wheel; far ones (30-50 us) land 7-12 blocks ahead, pdes_cg's
// shape.  Raw callbacks keep the callback wrapper out of the price.
//
// The initial events start at the model's stationary residual delays, so
// the queue starts in its steady shape: a delay of length D covers a given
// instant with probability proportional to D, and the instant falls
// uniformly inside it, so r = v * D' with v uniform and D' length-biased,
// D' = sqrt(lo^2 + u (hi^2 - lo^2)).  Starting every event at a fresh
// delay would crowd them all into the first delay span (30-50 us for far
// delays), a density wave that the uniform delays smooth out only slowly.

struct HoldModel {
  polaris::des::Engine eng;
  SimTime lo = 1;
  std::uint32_t span = 1;
  std::uint64_t remaining = 0;  ///< reschedules left
  std::uint64_t timed = 0;      ///< the last `timed` of them are timed
  std::uint32_t lcg = 0x2545F491u;
  std::chrono::steady_clock::time_point t0, t1;
  std::uint64_t allocs0 = 0, allocs1 = 0;  ///< odometer around the timed part

  std::uint32_t next() {
    lcg = lcg * 1664525u + 1013904223u;
    return lcg >> 8;
  }

  SimTime delay() { return lo + static_cast<SimTime>(next() % span); }

  double unit() { return static_cast<double>(next()) * 0x1p-24; }

  /// A draw from the stationary residual delay (see above).
  SimTime residual_delay() {
    const auto l = static_cast<double>(lo);
    const double h = l + static_cast<double>(span - 1);
    const double biased = std::sqrt(l * l + unit() * (h * h - l * l));
    return static_cast<SimTime>(unit() * biased);
  }

  static void fire(void* p) {
    HoldModel& h = *static_cast<HoldModel*>(p);
    if (h.remaining == 0) return;
    if (h.remaining == h.timed) {
      h.allocs0 = polaris::bench::heap_allocations();
      h.t0 = std::chrono::steady_clock::now();
    }
    --h.remaining;
    h.eng.schedule_raw_after(h.delay(), &HoldModel::fire, p);
    if (h.remaining == 0) {
      h.t1 = std::chrono::steady_clock::now();
      h.allocs1 = polaris::bench::heap_allocations();
    }
  }
};

struct HoldResult {
  double ns_per_event = std::numeric_limits<double>::infinity();
  std::uint64_t allocs = 0;  ///< most operator new calls in one timed part
};

/// The hold model at `depth` pending events with delays in [lo, hi]: best
/// ns per event of three trials, each timing `events` firings after
/// 2 * depth untimed ones (the queue starts in its steady shape; these
/// warm the event pool and the caches).
HoldResult bench_hold(std::uint64_t depth, SimTime lo, SimTime hi,
                      std::uint64_t events) {
  HoldResult r;
  for (int trial = 0; trial < 3; ++trial) {
    auto h = std::make_unique<HoldModel>();
    h->lo = lo;
    h->span = static_cast<std::uint32_t>(hi - lo + 1);
    h->timed = events;
    h->remaining = 2 * depth + events;
    for (std::uint64_t i = 0; i < depth; ++i) {
      h->eng.schedule_raw_after(h->residual_delay(), &HoldModel::fire,
                                h.get());
    }
    h->eng.run();
    r.ns_per_event = std::min(
        r.ns_per_event,
        std::chrono::duration<double, std::nano>(h->t1 - h->t0).count() /
            static_cast<double>(events));
    r.allocs = std::max(r.allocs, h->allocs1 - h->allocs0);
  }
  return r;
}

// ------------------------------------------------------- sweep scaling

struct SweepOutcome {
  double serial_s = 0;
  double parallel_s = 0;
  std::size_t threads = 0;
  bool identical = false;
};

/// Runs `points` independent engine workloads serially and on a thread
/// pool; results must match exactly (determinism) while wall time drops.
SweepOutcome bench_sweep(std::size_t points, std::uint64_t events_per_point) {
  auto point = [events_per_point](std::size_t i) {
    polaris::des::Engine eng;
    std::uint64_t remaining = events_per_point;
    std::uint64_t acc = 0;
    auto lcg = static_cast<std::uint32_t>(
        polaris::des::sweep_seed(2002, i));
    std::function<void()> tick = [&] {
      if (remaining == 0) return;
      --remaining;
      acc += static_cast<std::uint64_t>(eng.now());
      lcg = lcg * 1664525u + 1013904223u;
      eng.schedule_after(1 + (lcg >> 22), [&] { tick(); });
    };
    eng.schedule_after(1, [&] { tick(); });
    eng.run();
    return acc;
  };
  SweepOutcome out;
  const std::size_t hw = polaris::des::SweepRunner::default_threads();
  out.threads = std::max<std::size_t>(2, std::min<std::size_t>(hw, 4));

  const auto t0 = std::chrono::steady_clock::now();
  const auto serial = polaris::des::SweepRunner(1).run(points, point);
  out.serial_s = seconds_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  const auto parallel =
      polaris::des::SweepRunner(out.threads).run(points, point);
  out.parallel_s = seconds_since(t1);

  out.identical = serial == parallel;
  return out;
}

}  // namespace

int main() {
  using namespace polaris;

  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }
  // ~2M events/s is a floor even for the seed engine, so budget_ms*2000
  // events keeps each seed-side section within the budget.
  const auto events = static_cast<std::uint64_t>(budget_ms * 2000.0);
  const std::uint64_t depth = 1024;
  const std::uint64_t burst = 1024;
  const std::uint64_t bursts = std::max<std::uint64_t>(1, events / (2 * burst));

  support::Table t("D1: DES core throughput (seed replica vs pooled engine)");
  t.header({"workload", "seed (Mops/s)", "pooled (Mops/s)", "speedup"});

  const double fire_seed = bench_schedule_fire<SeedEngine>(events, depth);
  const double fire_new = bench_schedule_fire<RealEngine>(events, depth);
  t.add("schedule+fire", support::Table::to_cell(fire_seed / 1e6),
        support::Table::to_cell(fire_new / 1e6),
        support::Table::to_cell(fire_new / fire_seed));

  // Deep queue: the working depth a few-hundred-rank SimWorld sustains.
  // The seed's binary heap pays O(log n) cache-hostile sifts per event
  // here; the wheel stays O(1).  Its delays (1-4,096 ticks) never leave
  // the tick wheel; the hold sweep below covers far delays.
  const std::uint64_t deep = 256 * 1024;
  const double deep_seed = bench_schedule_fire<SeedEngine>(events, deep);
  const double deep_new = bench_schedule_fire<RealEngine>(events, deep);
  t.add("schedule+fire deep", support::Table::to_cell(deep_seed / 1e6),
        support::Table::to_cell(deep_new / 1e6),
        support::Table::to_cell(deep_new / deep_seed));

  const double cancel_seed = bench_schedule_cancel<SeedEngine>(bursts, burst);
  const double cancel_new = bench_schedule_cancel<RealEngine>(bursts, burst);
  t.add("schedule+cancel", support::Table::to_cell(cancel_seed / 1e6),
        support::Table::to_cell(cancel_new / 1e6),
        support::Table::to_cell(cancel_new / cancel_seed));

  const std::uint64_t procs = 512;
  const std::uint64_t rounds = std::max<std::uint64_t>(1, events / procs);
  const double resume = bench_coroutine_resume(procs, rounds);
  t.add("coroutine resume", std::string("-"),
        support::Table::to_cell(resume / 1e6), std::string("-"));
  t.print(std::cout);

  bench::Report des_report(
      "bench_d1_des_core",
      "DES engine schedule/fire/cancel throughput, seed replica vs pooled "
      "three-tier engine (tick wheel, block wheel, 4-ary heap), coroutine "
      "resume rate, and a hold-model depth sweep with near and far delays");
  des_report.note_provenance();
  des_report.note("budget_ms", std::to_string(budget_ms));
  des_report.note("queue_depth", std::to_string(depth));
  des_report.note("deep_queue_depth", std::to_string(deep));
  des_report.add("seed.schedule_fire.events_per_sec", fire_seed, "events/s");
  des_report.add("pooled.schedule_fire.events_per_sec", fire_new,
                 "events/s");
  des_report.add("schedule_fire.speedup", fire_new / fire_seed, "x");
  des_report.add("seed.schedule_fire_deep.events_per_sec", deep_seed,
                 "events/s");
  des_report.add("pooled.schedule_fire_deep.events_per_sec", deep_new,
                 "events/s");
  des_report.add("schedule_fire_deep.speedup", deep_new / deep_seed, "x");
  des_report.add("seed.schedule_cancel.ops_per_sec", cancel_seed, "ops/s");
  des_report.add("pooled.schedule_cancel.ops_per_sec", cancel_new, "ops/s");
  des_report.add("schedule_cancel.speedup", cancel_new / cancel_seed, "x");
  des_report.add("pooled.coroutine_resume.resumes_per_sec", resume,
                 "resumes/s");

  // Depth sweep.  Each point times at least four full turnovers of its
  // queue, so the deepest points take longer than the budget suggests.
  constexpr std::uint64_t kGateDepth = 4096;
  constexpr double kMaxFarNearRatio = 1.5;
  const auto hold_events = std::max<std::uint64_t>(
      200'000, static_cast<std::uint64_t>(budget_ms * 250.0));
  std::cout << "\n";
  support::Table ht(
      "D1c: hold-model depth sweep, ns per event (near: 1-4,096 ticks, "
      "far: 30-50 us)");
  ht.header({"pending", "near", "far", "far/near", "far allocs"});
  double gate_ratio = 0.0;
  for (const std::uint64_t hold_depth : {256, 4096, 16384, 65536}) {
    const std::uint64_t n = std::max(hold_events, 4 * hold_depth);
    const double near = bench_hold(hold_depth, 1, 4096, n).ns_per_event;
    const HoldResult far = bench_hold(hold_depth, 30'000, 50'000, n);
    const double ratio = far.ns_per_event / near;
    if (hold_depth == kGateDepth) gate_ratio = ratio;
    ht.add(hold_depth, support::Table::to_cell(near),
           support::Table::to_cell(far.ns_per_event),
           support::Table::to_cell(ratio), far.allocs);
    const std::string at = ".d" + std::to_string(hold_depth);
    des_report.add("hold.near" + at + ".ns_per_event", near, "ns");
    des_report.add("hold.far" + at + ".ns_per_event", far.ns_per_event, "ns");
    des_report.add("hold.far_near_ratio" + at, ratio, "x");
    des_report.add("hold.far" + at + ".timed_allocs",
                   static_cast<double>(far.allocs), "count");
  }
  ht.print(std::cout);
  const bool shape_ok = gate_ratio <= kMaxFarNearRatio;
  if (!shape_ok) {
    std::cerr << "FAIL: far/near cost ratio " << gate_ratio << " at "
              << kGateDepth << " pending exceeds " << kMaxFarNearRatio
              << "\n";
  }

  if (!des_report.write_file("BENCH_DES.json")) {
    std::cerr << "warning: could not write BENCH_DES.json\n";
  }

  const std::size_t sweep_points = 16;
  const auto per_point = std::max<std::uint64_t>(10000, events / 16);
  const SweepOutcome sw = bench_sweep(sweep_points, per_point);
  std::cout << "\n";
  support::Table st("D1b: SweepRunner scaling (" +
                    std::to_string(sweep_points) + " independent engines)");
  st.header({"mode", "wall (s)", "speedup", "identical results"});
  st.add("serial", support::Table::to_cell(sw.serial_s),
         support::Table::to_cell(1.0), std::string("-"));
  st.add(std::to_string(sw.threads) + " threads",
         support::Table::to_cell(sw.parallel_s),
         support::Table::to_cell(sw.serial_s / sw.parallel_s),
         sw.identical ? "yes" : "NO (BUG)");
  st.print(std::cout);

  bench::Report sweep_report(
      "bench_d1_des_core",
      "SweepRunner wall-clock scaling over independent engine instances; "
      "parallel results must be identical to serial");
  sweep_report.note("points", std::to_string(sweep_points));
  sweep_report.note("events_per_point", std::to_string(per_point));
  sweep_report.note("hardware_concurrency",
                    std::to_string(std::thread::hardware_concurrency()));
  sweep_report.add("sweep.serial.wall_s", sw.serial_s, "s");
  sweep_report.add("sweep.parallel.wall_s", sw.parallel_s, "s");
  sweep_report.add("sweep.parallel.threads",
                   static_cast<double>(sw.threads), "threads");
  sweep_report.add("sweep.speedup", sw.serial_s / sw.parallel_s, "x");
  sweep_report.add("sweep.results_identical", sw.identical ? 1.0 : 0.0,
                   "bool");
  if (!sweep_report.write_file("BENCH_SWEEP.json")) {
    std::cerr << "warning: could not write BENCH_SWEEP.json\n";
  }

  std::cout << "\nWrote BENCH_DES.json and BENCH_SWEEP.json.\n";
  return sw.identical && shape_ok ? 0 : 1;
}
