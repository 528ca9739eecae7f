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
// Cross-shard handoffs travel on per-ordered-shard-pair rt::SpscRing
// channels (single producer: the source shard's worker; single consumer:
// the destination's).  A full ring must not block mid-window — the
// consumer only drains at its window prologue — so overflow spills to a
// mutex-protected vector on the side.  Arrival order off the wire is
// irrelevant: the consumer sorts each window's batch into canonical
// (t, src, phase, kind, seq) order before scheduling.
//
// Worker threads are leased from support::WorkerBudget, so pdes shards
// compose with SweepRunner points instead of multiplying thread counts.
// Shard count is the *simulation* parameter (it must not change results);
// worker count is purely an execution parameter (shards round-robin onto
// workers).  Per-window metrics follow the same ownership: each ShardWorld
// records into its own obs::LogHistograms, and run() folds them into the
// Result after the workers join.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "polaris/fabric/partition.hpp"
#include "polaris/pdes/config.hpp"
#include "polaris/pdes/world.hpp"
#include "polaris/rt/spsc_ring.hpp"

namespace polaris::pdes {

class ShardedEngine {
 public:
  explicit ShardedEngine(Config cfg);

  /// Runs the simulation to completion.  Call once per engine.
  Result run();

  const Config& config() const { return cfg_; }
  const fabric::Partition& partition() const { return part_; }

  /// Post-run inspection: global rank `g`'s final state.
  const RankState& rank_state(std::uint32_t g) const {
    const std::size_t s = part_.shard_of(g);
    return worlds_[s]->rank(g - part_.first_node[s]);
  }

  // -- internal: shard-worker wire (called by ShardWorld) -------------------
  /// Producer side: only shard `src`'s worker pushes on (src, dst).
  void push_handoff(std::size_t src, std::size_t dst,
                    fabric::ShardHandoff h);
  /// Consumer side: only shard `dst`'s worker drains its inbound channels.
  void drain_into(std::size_t dst, std::vector<fabric::ShardHandoff>& out);

 private:
  struct Channel {
    explicit Channel(std::size_t cap) : ring(cap) {}
    rt::SpscRing<fabric::ShardHandoff> ring;
    std::mutex mu;                           // guards spill only
    std::vector<fabric::ShardHandoff> spill; // ring-full overflow
    std::uint32_t seq = 0;                   // producer-side stamp
  };

  Channel& channel(std::size_t src, std::size_t dst) {
    return *channels_[src * part_.shards + dst];
  }

  Config cfg_;
  fabric::Partition part_;
  std::vector<std::unique_ptr<ShardWorld>> worlds_;
  std::vector<std::unique_ptr<Channel>> channels_;
  bool ran_ = false;
};

/// One-shot convenience: configure, run, collect.
Result run(const Config& cfg);

}  // namespace polaris::pdes
