// polaris::rm — a live, topology-aware resource manager.
//
// The ResourceManager is a DES *service*: submissions, completions,
// backfill cycles and fault notifications are all engine events, so
// scheduling interleaves with everything else in the simulated machine
// (fabric traffic, heartbeats, fault injection).  The architecture is
// SLURM-shaped:
//
//  - Placement: jobs receive contiguous blocks of the real fabric from a
//    buddy BlockAllocator over a locality-preserving linearization
//    (sub-bricks of a torus, subtree runs of a fat tree).
//  - Queueing: one intrusive FIFO over the job slab — push, pop and head
//    are O(1).  Under SJF it is kept in estimate order instead (O(queue)
//    insert).
//  - Starting: an O(1)-per-job quick-start pass pops queue heads while
//    they fit; a *rate-limited* backfill cycle (EASY shadow from the
//    incrementally-maintained PlanningTimeline, conservative with a
//    cycle-local profile, or SJF with no reservation at all) handles
//    out-of-order starts.  Rate limiting is what keeps the per-job-event
//    decision cost flat at 10^6 queued jobs: dirty events within
//    `backfill_interval` of the last cycle coalesce into one deferred timer
//    instead of each rescanning the queue.
//  - Faults: as a fault::FaultListener, a node crash kills the owning
//    job (it keeps its checkpointed work, the rest is accounted as wasted
//    node-seconds, and it requeues at the front of the queue), drains the
//    node, and triggers replacement allocation; repair undrains and wakes
//    the queue.
//
// With RmConfig::textbook(policy) (flat placement, a backfill cycle on
// every event over the whole queue) the manager reproduces the analytic
// reference scheduler in tests/rm job-for-job under all four policies.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/rm/accounting.hpp"
#include "polaris/rm/block_allocator.hpp"
#include "polaris/rm/timeline.hpp"
#include "polaris/rm/types.hpp"

namespace polaris::rm {

struct RmConfig {
  enum class Placement {
    kFlat,      ///< identity node order (topology-blind)
    kTopology,  ///< locality-preserving linearization
  };
  Placement placement = Placement::kTopology;

  Policy policy = Policy::kEasyBackfill;
  /// Queue prefix scanned per backfill cycle (SLURM bf_max_job_test).
  std::uint32_t backfill_depth = 256;
  /// Minimum sim-seconds between backfill cycles; dirty events in between
  /// coalesce into one deferred cycle (SLURM bf_interval).
  double backfill_interval = 30.0;

  /// The textbook scheduler: flat placement and no rate limit or depth
  /// bound on backfill, so every event reconsiders the whole queue under
  /// `policy`.
  static RmConfig textbook(Policy policy) {
    RmConfig c;
    c.placement = Placement::kFlat;
    c.policy = policy;
    c.backfill_depth = std::numeric_limits<std::uint32_t>::max();
    c.backfill_interval = 0.0;
    return c;
  }
};

class ResourceManager final : public fault::FaultListener {
 public:
  /// Machine of `nodes` hosts with no geometry (placement forced flat).
  ResourceManager(des::Engine& engine, std::size_t nodes, RmConfig cfg = {});
  /// Machine shaped like `topo` (which must outlive the manager).
  ResourceManager(des::Engine& engine, const fabric::Topology& topo,
                  RmConfig cfg = {});

  /// Schedules the job's arrival at spec.submit.  Call before or during
  /// engine.run(); ids must be unique.
  void submit(const JobSpec& spec);

  // --- fault integration ---
  /// Subscribes to the injector; crashes/repairs then flow through
  /// on_fault automatically.
  void attach_injector(fault::Injector& injector) {
    injector.add_listener(this);
  }
  void on_fault(const fault::FaultEvent& ev) override;
  /// Direct node-state API for drivers without an Injector (e.g. acting
  /// on heartbeat suspicion).
  void node_failed(fabric::NodeId node);
  void node_repaired(fabric::NodeId node);

  void attach_metrics(obs::MetricsRegistry& metrics);
  void attach_tracer(obs::Tracer& tracer);

  const AccountingStore& accounting() const { return acct_; }
  AccountingStore& accounting() { return acct_; }
  const BlockAllocator& allocator() const { return alloc_; }

  /// Nodes currently granted to a running job; nullptr otherwise.
  const Allocation* allocation_of(JobId id) const;

  std::size_t queue_depth() const { return pending_count_; }
  std::size_t running_jobs() const { return running_count_; }
  /// Jobs whose accounting record is completed; O(1), unlike summary().
  std::uint64_t completed_jobs() const { return completed_; }

  struct Summary {
    std::uint64_t jobs = 0;
    std::uint64_t completed = 0;
    std::uint64_t backfilled = 0;
    std::uint64_t requeues = 0;
    std::uint64_t fragmented_allocs = 0;
    double makespan = 0.0;  ///< first submission to last finish
    double utilization = 0.0;
    double mean_wait = 0.0;
    double p95_wait = 0.0;
    /// (finish - submit) / max(runtime, 10 s), clamped below at 1.
    double mean_bounded_slowdown = 0.0;
  };
  /// Aggregates over completed jobs (call after engine.run()).
  Summary summary() const;

  /// Scheduling passes (quick-start sweeps + backfill cycles) executed —
  /// the denominator for amortized decision-cost measurements.
  std::uint64_t decision_passes() const { return decision_passes_; }
  std::uint64_t backfill_cycles() const { return backfill_cycles_; }

 private:
  struct RmJob {
    JobSpec spec;
    JobState state = JobState::kPending;
    std::uint32_t slot = 0;  ///< index in jobs_ (stable: deque slab)
    std::uint32_t prev = kNilIndex;  ///< intrusive queue links
    std::uint32_t next = kNilIndex;
    bool queued = false;
    double start = -1.0;
    double remaining = 0.0;    ///< work seconds not yet checkpointed
    double planned_end = 0.0;  ///< timeline removal key
    des::EventId completion{};
    Allocation alloc;
    ResourceManager* rm = nullptr;  ///< raw-callback context backpointer
  };

  static void arrival_cb(void* ctx);
  static void completion_cb(void* ctx);
  static void backfill_timer_cb(void* ctx);

  double now_s() const;
  /// Wall seconds per second of work: checkpoint writes stretch a run.
  static double stretch(const JobSpec& spec) {
    return spec.checkpoint_interval > 0.0
               ? 1.0 + spec.checkpoint_cost / spec.checkpoint_interval
               : 1.0;
  }
  static double planning_estimate(const JobSpec& spec) {
    return (spec.estimate > 0.0 ? spec.estimate : spec.runtime) *
           stretch(spec);
  }

  void enqueue(RmJob& job, bool front);
  void dequeue(RmJob& job);
  RmJob* queue_head();

  void start_job(RmJob& job, bool via_backfill);
  void finish_job(RmJob& job);
  void requeue_job(RmJob& job);

  void run_queue();
  void quick_start();
  void maybe_backfill();
  void backfill_cycle();

  void update_gauges();

  des::Engine* engine_;
  RmConfig cfg_;
  BlockAllocator alloc_;
  PlanningTimeline timeline_;
  AccountingStore acct_;

  std::deque<RmJob> jobs_;
  support::FlatMap64<std::uint32_t> job_index_;  ///< JobId -> slot
  std::uint32_t head_ = kNilIndex;  ///< queue ends (slots)
  std::uint32_t tail_ = kNilIndex;
  std::size_t pending_count_ = 0;
  std::size_t running_count_ = 0;

  /// Tick of the last backfill cycle (integer ticks: the rate-limit
  /// comparison and the deferred-timer target must agree exactly, which
  /// double seconds cannot guarantee).
  des::SimTime last_backfill_tick_ = std::numeric_limits<des::SimTime>::min() / 2;
  bool backfill_timer_set_ = false;
  bool in_run_queue_ = false;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t backfilled_ = 0;
  std::uint64_t requeues_ = 0;
  std::uint64_t decision_passes_ = 0;
  std::uint64_t backfill_cycles_ = 0;

  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_running_ = nullptr;
  obs::Gauge* g_nodes_free_ = nullptr;
  obs::Gauge* g_nodes_drained_ = nullptr;
  obs::Counter* c_started_ = nullptr;
  obs::Counter* c_backfilled_ = nullptr;
  obs::Counter* c_requeues_ = nullptr;
  obs::LogHistogram* h_wait_ = nullptr;  ///< queue wait, microseconds
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  bool have_track_ = false;
};

}  // namespace polaris::rm
