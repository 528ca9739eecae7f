// Sharded conservative parallel DES driver.
//
// The machine is block-partitioned across shards (fabric::Partition); each
// shard owns a ShardWorld (its own des::Engine — engines are strictly
// single-threaded and are never shared).  Synchronization is classic
// conservative windowing: because any cross-shard message pays at least
// the min-cut path latency L, every shard may process the window
// [T, T + L) without hearing from its peers — all cross-shard traffic
// generated inside the window arrives at T + L or later, i.e. in a later
// window.
//
// One SpinBarrier per window, with the window decision in the barrier's
// serial section: the last-arriving worker takes the minimum over every
// shard's reported next-action time (engine's next event, or the earliest
// handoff it pushed this window), and opens the next window as
// [global_next, global_next + L - 1] — an *adaptive* window that skips
// idle simulated time (compute blocks) in one hop instead of grinding
// through empty L-sized windows.  When the global minimum is "no events
// anywhere", the simulation is complete.  Workers that finish a window
// early spin, yield, then block on the barrier's generation word, and the
// last arriver wakes them as it opens the next window.  A timed sleep
// would wake them late by a large share of a window: a 20us sleep lasts
// about 75us on a 4-core x86 VM, where windows last 0.1-0.4 ms.
//
// Cross-shard handoffs go to mailboxes: two plain vectors per ordered shard
// pair, one for each window parity.  During window w the source shard's
// worker appends to side w; when window w + 1 starts, the destination's
// worker copies and clears that side while this window's handoffs go to
// the other.  The window barrier between the two orders every access, so
// a mailbox needs no lock, no atomics and no capacity: it keeps the
// largest window's worth of room.  The consumer sorts each window's batch
// into canonical (t, src, phase, kind, push order), then folds each
// payload into its receiver (a run without faults) or schedules each
// handoff as an engine event (a run with faults; see world.hpp).
//
// Shard count is the *simulation* parameter (it must not change results);
// worker count is purely an execution parameter (shards round-robin onto
// workers).  Per-window metrics follow the same ownership: each ShardWorld
// records into its own obs::LogHistograms, and run() folds them into the
// Result after the workers join.
#pragma once

#include <memory>
#include <vector>

#include "polaris/fabric/partition.hpp"
#include "polaris/pdes/config.hpp"
#include "polaris/pdes/world.hpp"
#include "polaris/support/check.hpp"

namespace polaris::pdes {

class ShardedEngine {
 public:
  explicit ShardedEngine(Config cfg);

  /// Runs the simulation to completion.  Call once per engine.
  Result run();

  const Config& config() const { return cfg_; }
  const fabric::Partition& partition() const { return part_; }

  /// Post-run inspection: global rank `g`'s final state.  Each shard
  /// builds its ranks when the run starts.
  const RankState& rank_state(std::uint32_t g) const {
    POLARIS_CHECK_MSG(ran_, "rank_state before run()");
    const std::size_t s = part_.shard_of(g);
    return worlds_[s]->rank(g - part_.first_node[s]);
  }

  // -- internal: shard-worker wire (called by ShardWorld) -------------------
  /// The mailbox shard `src` fills for shard `dst` during window `w`; only
  /// src's worker appends to it, and only dst's worker empties it, when
  /// window w + 1 starts.
  std::vector<ShardWorld::Handoff>& mailbox(std::size_t src, std::size_t dst,
                                            std::uint64_t w) {
    return mail_[((w & 1) * part_.shards + src) * part_.shards + dst].box;
  }

 private:
  /// On a cache line of its own: shards append to theirs concurrently.
  struct alignas(64) Mailbox {
    std::vector<ShardWorld::Handoff> box;
  };

  Config cfg_;
  fabric::Partition part_;
  std::vector<std::unique_ptr<ShardWorld>> worlds_;
  std::vector<Mailbox> mail_;  ///< [window parity][src][dst]
  bool ran_ = false;
};

/// One-shot convenience: configure, run, collect.
Result run(const Config& cfg);

}  // namespace polaris::pdes
