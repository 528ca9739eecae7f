// One shard of the partitioned machine: a des::Engine plus flat rank
// state machines for every rank the shard owns.
//
// Ranks are not coroutines here.  At 10^6 ranks a coroutine frame per rank
// (simrt's model) is gigabytes of stacks; a pdes rank is a 56-byte record
// (RankState), and in a run without faults its phase start is its only
// engine event.  The price is generality: only the halo / allreduce / CG
// traffic shapes are expressible, which is exactly the trade the scale
// explosion calls for.
//
// Timing model (LogGP-flavored, closed form, no shared link state): the
// i-th message a rank issues at phase start T injects at T + i*o_send,
// serializes when the rank's NIC frees up, and arrives at
//   nic_start + bytes/link_bw + path_latency(switch_hops) + o_recv.
// Folding o_recv into the arrival keeps arrival processing commutative:
// nothing about a message's effect depends on what else lands at the same
// tick.  An arrival ORs a direction bit or adds to a count, and raises the
// phase's `ready` tick to its own; a phase completes at max(its open tick,
// its latest needed arrival tick), the tick at which its completion
// predicate first holds.  Any processing order therefore yields the same
// rank trace, so shard count, ingestion interleaving and *when* an arrival
// is folded cannot change the golden hash.
//
// That last freedom is what a run without faults uses: a payload is folded
// into its receiver when it is sent (same shard) or when the receiving
// shard drains its handoffs (another shard), never as an engine event.
// The completion is hashed as soon as its last needed arrival is known and
// schedules the next phase start itself, so a healthy run executes exactly
// one engine event per rank-phase.  A run with faults cannot do this: a
// NACK must act at its own tick, and a halo rank's completion depends on
// whether the NACK or the payload lands first.  There every arrival stays
// a 24-byte trivially copyable closure in its engine event's inline
// callback storage, and the event calls the same fold with t = now.
//
// Arrivals may precede their receiver's phase by several phases
// (recursive doubling lets a fast rank sprint several stages while a slow
// one lags).  The rank's own slots hold its current phase and the next;
// arrivals further ahead park in a per-shard flat map keyed (local_rank,
// phase), and a per-rank count skips that lookup for ranks with none.
#pragma once

#include <cstdint>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/partition.hpp"
#include "polaris/pdes/config.hpp"
#include "polaris/support/flat_map.hpp"

namespace polaris::pdes {

class ShardedEngine;

/// 64-bit-at-a-time FNV-1a fold (whole words, not bytes: the golden hash
/// needs collision resistance against trace edits, not standards
/// compliance, and one multiply per field keeps it off the profile).
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ull;
inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Flat per-rank program state.  `phase` is the phase being worked or
/// about to start; `got`/`ready` collect its arrivals (whether or not it is
/// open yet) and `next_got`/`next_ready` those of the phase after it.
struct RankState {
  des::SimTime nic_free = 0;   ///< when this rank's NIC finishes serializing
  des::SimTime done_at = 0;    ///< completion tick of the last finished phase
  des::SimTime ready = 0;      ///< latest arrival tick folded into `got`
  des::SimTime next_ready = 0; ///< latest arrival tick folded into `next_got`
  std::uint64_t hash = kFnvOffset;  ///< per-phase completion trace
  std::uint32_t phase = 0;
  std::uint8_t got = 0;         ///< halo: direction bits; stage: arrivals
  std::uint8_t next_got = 0;    ///< the same for phase + 1
  std::uint8_t need = 0;        ///< open phase's required mask or count
  std::uint8_t alive_mask = 0;  ///< dirs with a distinct neighbor (static)
  std::uint8_t nbr_dead = 0;    ///< dirs NACKed as dead (monotone)
  std::uint8_t status = 0;      ///< kRankOk / latched NACK status / crashed
  std::uint8_t flags = 0;
  std::uint16_t parked = 0;     ///< parked-map entries (phases >= phase + 2)

  static constexpr std::uint8_t kDead = 1u << 0;
  static constexpr std::uint8_t kHalted = 1u << 1;
  static constexpr std::uint8_t kFinished = 1u << 2;
  static constexpr std::uint8_t kPhaseOpen = 1u << 3;

  bool dead() const { return (flags & kDead) != 0; }
  bool halted() const { return (flags & kHalted) != 0; }
  bool finished() const { return (flags & kFinished) != 0; }
  bool phase_open() const { return (flags & kPhaseOpen) != 0; }
};

class ShardWorld {
 public:
  enum class Kind : std::uint8_t {
    kPayload = 0,
    kNack = 1,
    kPhaseStart = 2,
    kCrash = 3,
  };

  /// One delivery or control event: what an engine event captures by value
  /// (with the world pointer), and what a handoff carries to another shard.
  struct MsgRec {
    std::uint32_t src = 0;    ///< global rank (payload sender / NACK origin)
    std::uint32_t dst = 0;    ///< local rank index on the receiving shard
    std::uint32_t phase = 0;
    Kind kind = Kind::kPayload;
    std::uint8_t status = 0;
    std::uint8_t lane = 0;
  };

  /// A delivery handed to another shard: its record, its arrival tick, and
  /// its index in the mailbox it was pushed to (the tie-break of the
  /// canonical ingestion order).
  struct Handoff {
    des::SimTime t = 0;
    MsgRec rec;
    std::uint32_t seq = 0;
  };

  ShardWorld(const Config& cfg, const fabric::Partition& part,
             std::size_t shard, ShardedEngine* parent);

  /// Builds the rank array (on the calling worker, so the pages are first
  /// touched there) and schedules every owned rank's phase-0 start and any
  /// owned crashes.
  void init();

  /// Window prologue: copies and clears the mailboxes the other shards
  /// filled for this shard during the previous window, and sorts the
  /// handoffs into canonical (t, src, phase, kind, push order).  A run
  /// without faults folds each payload into its receiver; a run with
  /// faults schedules each handoff as an engine event.
  void begin_window();

  /// Runs all events with t <= until and advances the clock to until.
  void run_window(des::SimTime until);

  /// This shard's bound on the earliest unprocessed action anywhere:
  /// min(engine's next event, earliest handoff pushed this window).
  des::SimTime next_time() const {
    return std::min(engine_.next_event_time(), out_min_);
  }

  // -- merge-time accessors (single-threaded, after the run) ---------------
  std::size_t rank_count() const { return ranks_.size(); }
  const RankState& rank(std::size_t local) const { return ranks_[local]; }
  std::uint64_t events() const { return events_; }
  std::uint64_t msgs_intra() const { return msgs_intra_; }
  std::uint64_t msgs_cross() const { return msgs_cross_; }
  std::uint64_t nacks() const { return nacks_; }
  std::uint64_t peak_event_nodes() const {
    return engine_.stats().max_pool_in_use;
  }
  const obs::LogHistogram& window_ns() const { return window_ns_; }
  const obs::LogHistogram& window_events() const { return window_events_; }
  const obs::LogHistogram& drain_batch() const { return drain_batch_; }
  void note_window_ns(std::uint64_t ns) { window_ns_.record(ns); }

 private:
  /// Arrivals for a (local_rank, phase) at least two phases ahead.
  struct Parked {
    des::SimTime ready = 0;
    std::uint8_t got = 0;
  };

  /// Decoded shape of one program phase.
  struct PhaseInfo {
    bool is_halo = true;
    std::uint32_t stage = 0;
    std::uint64_t bytes = 0;
  };

  void dispatch(const MsgRec& rec);
  void start_phase(std::uint32_t lr, std::uint32_t p);
  /// Applies a payload that arrives at tick t.  Runs at send or drain time
  /// without faults, and as the arrival's own event (t == now) with them.
  void fold(des::SimTime t, const MsgRec& rec);
  void on_nack(const MsgRec& rec);
  void on_crash(const MsgRec& rec);
  /// Completes rank lr's open phase if its predicate holds: hashes it at
  /// max(ready, now), slides the arrival slots and schedules the next
  /// phase start.
  void check_complete(std::uint32_t lr);

  /// Issues rank src's idx-th message of the phase (1-based) and routes
  /// the arrival to its destination shard.
  void send_msg(std::uint32_t src_g, std::uint32_t dst_g, std::uint64_t bytes,
                std::uint32_t phase, std::uint8_t lane, int idx);
  /// Delivers locally (fold or event) / pushes a cross-shard handoff at t.
  void route(des::SimTime t, std::uint32_t src_g, std::uint32_t dst_g,
             Kind kind, std::uint8_t status, std::uint8_t lane,
             std::uint32_t phase);
  void schedule(des::SimTime t, const MsgRec& rec);

  PhaseInfo phase_info(std::uint32_t p) const;
  des::SimTime gap_before(std::uint32_t next_p) const;
  std::uint32_t neighbor(std::uint32_t g, int dir) const;
  std::size_t torus_dist(std::uint32_t a, std::uint32_t b) const;
  des::SimTime path_ticks(std::uint32_t a, std::uint32_t b) const;
  std::uint64_t payload_bytes(std::uint32_t src_g, std::uint32_t phase,
                              std::uint8_t lane, std::uint64_t base) const;
  static std::uint64_t park_key(std::uint32_t lr, std::uint32_t phase) {
    return (static_cast<std::uint64_t>(lr) << 32) | phase;
  }

  const Config& cfg_;
  const fabric::Partition& part_;
  ShardedEngine* parent_;
  std::size_t shard_;
  std::uint32_t first_;  ///< global rank id of local rank 0
  std::size_t w_ = 0, h_ = 0;
  std::uint32_t stages_ = 0;       ///< ceil(log2 ranks) hypercube stages
  std::uint32_t per_iter_ = 1;     ///< phases per application iteration
  std::uint32_t total_phases_ = 0;
  des::SimTime o_send_ = 0, o_recv_ = 0, compute_ = 1;
  /// Faults configured: every arrival runs as its own engine event.
  bool arrival_events_ = false;
  std::vector<des::SimTime> path_by_dist_;  ///< [dist] -> latency ticks

  des::Engine engine_;
  std::vector<RankState> ranks_;
  support::FlatMap64<Parked> parked_;
  std::vector<Handoff> scratch_;

  std::uint64_t window_ = 0;     ///< windows begun; picks the mailbox side
  des::SimTime cur_until_ = -1;  ///< current window's inclusive bound
  des::SimTime out_min_ = des::Engine::kNoEventTime;

  std::uint64_t events_ = 0;
  std::uint64_t msgs_intra_ = 0, msgs_cross_ = 0, nacks_ = 0;
  // Written only by this shard's worker; ShardedEngine::run folds them
  // after the join.
  obs::LogHistogram window_events_;
  obs::LogHistogram window_ns_;
  obs::LogHistogram drain_batch_;
};

}  // namespace polaris::pdes
