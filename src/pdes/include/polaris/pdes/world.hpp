// One shard of the partitioned machine: a des::Engine plus flat rank
// state machines for every rank the shard owns.
//
// Ranks are not coroutines here.  At 10^6 ranks a coroutine frame per rank
// (simrt's model) is gigabytes of stacks; a pdes rank is a ~40-byte record
// driven by four event kinds (phase start, payload arrival, NACK arrival,
// crash), and a message in flight is a 24-byte trivially copyable closure
// held in its engine event's inline callback storage, so a delivery costs
// one pooled engine node and nothing else.  The price is generality — only
// the halo / allreduce / CG traffic shapes are expressible — which is
// exactly the trade the scale explosion calls for.
//
// Timing model (LogGP-flavored, closed form, no shared link state): the
// i-th message a rank issues at phase start T injects at T + i*o_send,
// serializes when the rank's NIC frees up, and arrives at
//   nic_start + bytes/link_bw + path_latency(switch_hops) + o_recv.
// Folding o_recv into the arrival keeps arrival processing commutative —
// nothing about a message's effect depends on what else lands at the same
// tick.  That commutativity (got-bits OR in, counts add, statuses latch
// via max, completion fires at the tick the predicate first holds) is the
// determinism argument: any same-tick processing order yields the same
// rank trace, so shard count and ingestion interleaving cannot change the
// golden hash.
//
// Messages may arrive *phases* ahead of their receiver (recursive doubling
// lets a fast rank sprint several stages while a slow one lags), so early
// arrivals park in a per-shard flat map keyed (local_rank, phase) and are
// consumed when the receiver opens that phase.
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
/// about to start; `need`/`got_*` describe the currently open phase.
struct RankState {
  des::SimTime nic_free = 0;   ///< when this rank's NIC finishes serializing
  des::SimTime done_at = 0;    ///< completion tick of the last finished phase
  std::uint64_t hash = kFnvOffset;  ///< per-phase completion trace
  std::uint32_t phase = 0;
  std::uint8_t got_mask = 0;    ///< halo: direction bits received
  std::uint8_t got_count = 0;   ///< stage: arrivals received
  std::uint8_t need = 0;        ///< open phase's required mask or count
  std::uint8_t alive_mask = 0;  ///< dirs with a distinct neighbor (static)
  std::uint8_t nbr_dead = 0;    ///< dirs NACKed as dead (monotone)
  std::uint8_t status = 0;      ///< kRankOk / latched NACK status / crashed
  std::uint8_t flags = 0;

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
  ShardWorld(const Config& cfg, const fabric::Partition& part,
             std::size_t shard, ShardedEngine* parent);

  /// Schedules every owned rank's phase-0 start and any owned crashes.
  void init();

  /// Window prologue: drains this shard's inbound channels, sorts the
  /// handoffs into canonical (t, src, phase, kind, seq) order and
  /// schedules them as engine events.
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
  enum class Kind : std::uint8_t {
    kPayload = 0,  // matches fabric::HandoffKind
    kNack = 1,     // matches fabric::HandoffKind
    kPhaseStart = 2,
    kCrash = 3,
  };

  /// One scheduled delivery/control event, captured by value in the event's
  /// callback together with the world pointer.
  struct MsgRec {
    std::uint32_t src = 0;    ///< global rank (payload sender / NACK origin)
    std::uint32_t dst = 0;    ///< local rank index on this shard
    std::uint32_t phase = 0;
    Kind kind = Kind::kPayload;
    std::uint8_t status = 0;
    std::uint8_t lane = 0;
  };

  /// Early arrivals for a not-yet-open (local_rank, phase).
  struct Parked {
    std::uint8_t mask = 0;
    std::uint8_t count = 0;
  };

  /// Decoded shape of one program phase.
  struct PhaseInfo {
    bool is_halo = true;
    std::uint32_t stage = 0;
    std::uint64_t bytes = 0;
  };

  void dispatch(const MsgRec& rec);
  void start_phase(std::uint32_t lr, std::uint32_t p);
  void on_payload(const MsgRec& rec);
  void on_nack(const MsgRec& rec);
  void on_crash(const MsgRec& rec);
  void check_complete(std::uint32_t lr);

  /// Issues rank src's idx-th message of the phase (1-based) and routes
  /// the arrival to its destination shard.
  void send_msg(std::uint32_t src_g, std::uint32_t dst_g, std::uint64_t bytes,
                std::uint32_t phase, std::uint8_t lane, int idx);
  /// Schedules a local event / pushes a cross-shard handoff at time t.
  void route(des::SimTime t, std::uint32_t src_g, std::uint32_t dst_g,
             Kind kind, std::uint8_t status, std::uint8_t lane,
             std::uint32_t phase);
  void schedule_rec(des::SimTime t, std::uint32_t src_g,
                    std::uint32_t dst_local, Kind kind, std::uint8_t status,
                    std::uint8_t lane, std::uint32_t phase);

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
  std::vector<des::SimTime> path_by_dist_;  ///< [dist] -> latency ticks

  des::Engine engine_;
  std::vector<RankState> ranks_;
  support::FlatMap64<Parked> parked_;
  std::vector<fabric::ShardHandoff> scratch_;

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
