// Live fault injection for the simulated cluster.
//
// The Injector turns the analytic failure models (FailureTimeline) into DES
// events against a fabric::SimNetwork: at each scheduled instant it flips a
// node or link down (killing every in-flight message crossing it — both
// fast-path tiers) and, optionally, back up after a repair delay.  It also
// gives simulated applications two coordination points:
//
//   - work_for(seconds): compute for a duration, but return early (false)
//     if ANY fault fires meanwhile — the hook a checkpointing app uses to
//     lose only the in-progress segment rather than discovering the crash
//     a full segment later.
//   - await_all_nodes_up(): park until every crashed node has been
//     repaired (the "wait for the replacement node" phase of recovery).
//
// Fault events are mirrored into obs: instants + down-time spans on a
// "faults" track, and gauges/counters for nodes down and events injected.
// A constructed-but-idle Injector schedules nothing and perturbs nothing:
// runs with injection disabled stay event-for-event identical.
#pragma once

#include <cstdint>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/sync.hpp"
#include "polaris/des/task.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"

namespace polaris::fault {

/// 16 bytes, so a scheduled fault (injector pointer, event and a repair
/// delay) fits the engine's 32-byte inline callback.
struct FaultEvent {
  enum class Kind : std::uint8_t { kNodeCrash, kNodeRepair, kLinkDown, kLinkUp };
  double time = 0.0;
  std::uint32_t id = 0;  ///< node or link
  Kind kind{};
};

/// Observer of applied faults (and repairs).  The resource manager
/// registers one to requeue jobs off crashed nodes; listeners run inside
/// the fault event, after the network state has been flipped, so a
/// listener sees the machine exactly as the survivors do.
class FaultListener {
 public:
  virtual ~FaultListener() = default;
  virtual void on_fault(const FaultEvent& ev) = 0;
};

class Injector {
 public:
  Injector(des::Engine& engine, fabric::SimNetwork& network);

  /// Schedules a node crash at sim time `at` (seconds).  `repair_after` > 0
  /// brings the node back up that many seconds later; <= 0 is permanent.
  void schedule_node_crash(double at, std::uint32_t node,
                           double repair_after = 0.0);

  /// Schedules a link outage at `at`, restored `repair_after` seconds later
  /// (<= 0 is permanent).
  void schedule_link_outage(double at, fabric::LinkId link,
                            double repair_after = 0.0);

  /// Drains `timeline` over the half-open window [cursor, horizon) and
  /// schedules each event as a node crash (node ids taken modulo the
  /// topology size — distinct timeline ids may collide on one node; see
  /// the overlap rules below).  Returns the number of crashes scheduled.
  std::size_t load_node_timeline(FailureTimeline& timeline, double horizon,
                                 double repair_after);

  /// Same, but each event takes down a link (event node id modulo the
  /// topology's link count) — a link-failure schedule driven by the same
  /// statistical machinery.
  std::size_t load_link_timeline(FailureTimeline& timeline, double horizon,
                                 double repair_after);

  bool node_up(std::uint32_t node) const { return network_->node_up(node); }
  bool all_nodes_up() const { return nodes_down_ == 0; }
  std::uint64_t crashes() const { return crashes_; }
  std::uint64_t link_outages() const { return link_outages_; }
  std::uint32_t nodes_down() const { return nodes_down_; }
  std::uint32_t links_down() const { return links_down_; }
  /// Faults that landed on an already-down node/link.  An overlapping
  /// fault never double-counts (crashes_/nodes_down_ move only on real
  /// state flips) and never resurrects early: its repair window is merged
  /// into the pending one — the repair deadline extends to the later of
  /// the two, and an overlapping permanent fault (repair_after <= 0) pins
  /// the target down by cancelling the pending repair.
  std::uint64_t overlapped_faults() const { return overlapped_faults_; }
  /// Overlaps that pushed a pending repair later (or pinned it permanent).
  std::uint64_t repair_extensions() const { return repair_extensions_; }
  /// Sim time of the node's most recent crash (-1 if it never crashed).
  double downed_at(std::uint32_t node) const;
  const std::vector<FaultEvent>& history() const { return history_; }

  /// Computes for `seconds`, returning true iff no fault (node crash or
  /// link outage) fired anywhere in the machine meanwhile.
  des::Task<bool> work_for(double seconds);

  /// Completes once every crashed node has been repaired (immediately if
  /// none are down).
  des::Task<void> await_all_nodes_up();

  void attach_tracer(obs::Tracer& tracer);
  void attach_metrics(obs::MetricsRegistry& metrics);

  /// Registers a listener notified of every applied fault and repair (in
  /// registration order).  The listener must outlive the injector.
  void add_listener(FaultListener* listener) {
    listeners_.push_back(listener);
  }

 private:
  struct TimedWait {
    Injector* injector;
    des::OneShotEvent event;
  };
  /// Pending-repair bookkeeping for one node or link.  While the target is
  /// down, `at` holds the scheduled repair time (< 0 = permanent — no
  /// repair pending).  `gen` stamps the currently-valid repair event:
  /// extending or cancelling a repair bumps it, so a superseded repair
  /// event recognises itself as stale and does nothing — the target can
  /// never resurrect before the latest fault's window elapses.
  struct RepairPlan {
    double at = -1.0;
    std::uint32_t gen = 0;
  };

  static void work_timer_cb(void* ctx);

  void apply(FaultEvent ev, double repair_after);
  void apply_repair(FaultEvent ev, std::uint32_t gen);
  /// Merges an overlapping fault's repair window into `plan`; schedules
  /// the extended repair when the deadline moved.  Returns true when the
  /// plan changed.
  bool extend_repair(RepairPlan& plan, FaultEvent::Kind repair_kind,
                     std::uint32_t id, double at, double repair_after);
  void schedule_repair(const RepairPlan& plan, FaultEvent::Kind repair_kind,
                       std::uint32_t id);
  void notify_fault();
  void update_gauges();

  des::Engine* engine_;
  fabric::SimNetwork* network_;

  std::uint64_t crashes_ = 0;
  std::uint64_t link_outages_ = 0;
  std::uint64_t faults_applied_ = 0;  ///< crashes + outages (repairs excluded)
  std::uint64_t overlapped_faults_ = 0;
  std::uint64_t repair_extensions_ = 0;
  std::uint32_t nodes_down_ = 0;
  std::uint32_t links_down_ = 0;
  std::vector<double> crash_time_;     ///< per node, -1 if never crashed
  std::vector<des::SimTime> down_since_;  ///< per node, for down-span traces
  std::vector<RepairPlan> node_repair_;   ///< per node, valid while down
  std::vector<RepairPlan> link_repair_;   ///< per link, valid while down
  std::vector<FaultEvent> history_;

  std::vector<des::OneShotEvent*> fault_waiters_;  ///< work_for parks here
  std::vector<des::OneShotEvent*> up_waiters_;
  std::vector<FaultListener*> listeners_;

  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  bool have_track_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace polaris::fault
