// Scenario orchestration: data-defined chaos campaigns over the simulated
// cluster.
//
// The paper's scaling argument makes failure routine; this module makes
// failure-handling TESTABLE.  A scenario is a JSON spec with four parts:
//
//   {
//     "name":    "rolling-upgrade-drain",
//     "seed":    7,
//     "tick_s":  0.0005,
//     "harness": {"kind": "serve", ...},        // the system under test
//     "monitors": [{"name": "...", "expect": "conservation == 0"}, ...],
//     "tree":    {"seq": [ ...leaves and decorators... ]}
//   }
//
// The harness instantiates one of the repo's simulated systems (serving
// tier, cluster with heartbeats + resource manager, simrt SPMD world, or
// the sharded pdes engine) on its own DES engine.  The runner compiles the
// tree, schedules a tick event chain on that same engine, and runs the
// engine: workload and scenario interleave deterministically, all
// randomness flows from the spec seed, and the whole run is a pure
// function of (spec bytes) — the verdict, the obs trace, and the trace's
// hash replay bit-identically at any worker count.
//
// Tree grammar (one distinguishing key per node):
//   {"seq": [...]}                      sequence
//   {"any": [...]}                      fallback
//   {"par": [...], "quota": n}          parallel (quota 0/absent = all)
//   {"do": X, "repeat": n}              repeat n times (0 = forever)
//   {"do": X, "timeout": s}             fail X if still running after s
//   {"wait": s}                         idle for s simulated seconds
//   {"await": "EXPR"}                   run until EXPR holds
//   {"await": "EXPR", "timeout": s}     ... or fail after s
//   {"assert": "EXPR"}                  one-shot check, recorded in verdict
//   {"VERB": {...}}                     harness action (inject, drain, ramp,
//                                       set_admission, submit, sweep, run...)
//
// EXPR is `probe` or `probe OP number` with OP in < <= > >= == != ; probe
// names are harness-defined ("dropped", "queue_depth:2", "rm.completed").
//
// Monitors are the always-on safety layer: every monitor expression is
// re-checked on every tick for the entire run, independent of tree state.
// A violation never halts the simulation; it fails the verdict.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/scenario/json.hpp"
#include "polaris/scenario/tree.hpp"

namespace polaris::scenario {

/// Outcome of one assert leaf or one monitor, for the verdict.
struct CheckOutcome {
  std::string name;
  bool passed = false;
  std::uint64_t checks = 0;      ///< monitor: ticks evaluated
  std::uint64_t violations = 0;  ///< monitor: ticks in violation
  double first_violation_s = -1.0;
  double time_s = -1.0;  ///< assert: sim time it was evaluated
};

/// Machine-readable result of one scenario run.
struct Verdict {
  std::string scenario;
  bool passed = false;  ///< root Success AND every monitor clean
  Status root = Status::kRunning;
  bool monitors_clean = true;
  std::uint64_t ticks = 0;
  double end_time_s = 0.0;

  /// obs::trace_hash of the run's exported trace (FNV-1a's loop from a
  /// non-standard start value): the determinism fingerprint (same spec +
  /// seed => same hash at any worker count).
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_events = 0;

  std::vector<CheckOutcome> asserts;
  std::vector<CheckOutcome> monitors;
  /// Final probe samples (harness-selected), e.g. serve.offered.
  std::vector<std::pair<std::string, double>> counters;

  std::string to_json() const;
};

/// A system under test: owns a DES engine, a workload, a tracer, and the
/// probe/action vocabulary the tree binds to.
class Harness {
 public:
  virtual ~Harness() = default;

  virtual des::Engine& engine() = 0;
  virtual obs::Tracer& tracer() = 0;
  virtual const obs::Tracer& tracer() const = 0;

  /// Launches the workload (spawn programs, submit jobs); called once,
  /// before the engine runs.  Tick events are already scheduled.
  virtual void start() = 0;
  /// Runs the engine to completion (harness-specific: some own a run()).
  virtual void finish() = 0;

  /// Reads a named probe; throws support::ContractViolation on unknown
  /// names (a typo in a spec should fail loudly, not compare 0 < 0).
  virtual double probe(const std::string& name) = 0;
  /// Performs a named action at simulated time `now_s`.
  virtual void act(const std::string& verb, const Json& args,
                   double now_s) = 0;
  /// Probe names sampled into Verdict::counters after the run.
  virtual std::vector<std::string> counter_probes() const = 0;
};

/// Builds the harness named by spec.harness.kind ("serve", "cluster",
/// "simrt", "pdes").  `spec` is the WHOLE scenario spec (the harness also
/// reads the top-level seed).
std::unique_ptr<Harness> make_harness(const Json& spec);

/// Compiled probe expression: `probe` (truthy: != 0) or `probe OP number`.
class Expr {
 public:
  static Expr compile(std::string_view text);

  bool eval(Harness& h) const;
  double value(Harness& h) const;  ///< the probe's current sample
  const std::string& probe() const { return probe_; }
  const std::string& text() const { return text_; }

 private:
  enum class Op : std::uint8_t { kTruthy, kLt, kLe, kGt, kGe, kEq, kNe };
  std::string text_;
  std::string probe_;
  Op op_ = Op::kTruthy;
  double rhs_ = 0.0;
};

/// One scenario run: parse -> build -> tick over the DES -> verdict.
/// One-shot, like the sims it drives.
class Runner {
 public:
  explicit Runner(Json spec);
  /// Convenience: parse text, validate the required keys.
  static Runner from_text(std::string_view spec_text);

  Verdict run();

  /// The harness tracer (valid after run(); writes the run's obs trace).
  const obs::Tracer& tracer() const;
  const Json& spec() const { return spec_; }

 private:
  static void tick_cb(void* ctx);
  void tick();
  NodePtr build(const Json& node);
  NodePtr leaf_await(const Json& node);

  Json spec_;
  std::unique_ptr<Harness> harness_;
  NodePtr root_;
  std::vector<Monitor> monitors_;
  /// Assert leaves, in build order, for the verdict (pointers into the
  /// tree; the tree outlives the verdict extraction).
  std::vector<const Condition*> asserts_;
  /// Sim time each assert was evaluated (-1 until it runs), same order.
  std::vector<double> assert_times_;

  obs::TrackId track_ = 0;
  des::SimTime tick_ticks_ = 0;
  std::uint64_t max_ticks_ = 0;
  double monitor_until_s_ = 0.0;
  std::uint64_t ticks_done_ = 0;
  bool ran_ = false;
};

/// Parse + run in one call.
Verdict run_scenario(std::string_view spec_text);

}  // namespace polaris::scenario
