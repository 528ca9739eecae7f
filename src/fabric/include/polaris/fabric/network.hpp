// Packet-level simulated network with a two-tier data path.
//
// A SimNetwork carries byte payloads between hosts of a Topology under a
// FabricParams wire model.  Messages are split into at most kMaxPackets
// MTU-or-larger packets; each packet holds each directed link on its path
// for its serialization time (strict per-link FIFO), then pays wire and
// switch-forwarding latency.  This yields cut-through pipelining —
//     T(uncongested) ~ path_latency + bytes/link_bw + (hops-1)*pkt/link_bw
// — while modelling congestion exactly where it occurs: on shared links.
//
// The data path has two tiers, both exactly equivalent (to the simulated
// nanosecond) to the original per-packet-coroutine + per-link-semaphore
// model, which survives as the test oracle fabric::ReferenceNetwork
// (tests/oracles, linked by the tests and bench_d2_fabric).  The one
// caveat: when two packets with different upstream histories arrive at a
// shared link on the exact same tick, the models may break the tie in a
// different (equally valid) FIFO order — the semaphore model orders by its
// internal grant/release event sequence, this one by reservation event
// order; simultaneous arrivals are unordered in the paper-level model, and
// aggregate link occupancy is conserved either way.
//
//  - Tier 1, analytic bypass: when no other message is in flight on any
//    link of the path, the whole message becomes a pooled "flight" — the
//    last-byte arrival is computed in closed form (the cut-through formula
//    above, in exact tick arithmetic) and ONE completion event is
//    scheduled.  No per-packet events, no coroutine frames, no route copy.
//  - Tier 2, contended fallback: slab-pooled flat packet walkers advance
//    hop by hop via raw engine callbacks against per-link `busy_until`
//    reservation accumulators — one event per hop per packet instead of
//    the semaphore model's ~3 events plus a spawned coroutine frame.
//
// Exactness under mixed traffic comes from *lazy materialization*: an
// in-flight flight's packet positions are closed-form at any instant, so
// when a later transfer's path intersects it, the flight is converted into
// walkers positioned exactly where its packets would be, before the new
// message injects.  Flights in flight are always pairwise link-disjoint
// (a flight only starts on fully idle links), so materialization never
// cascades.  Per-link FIFO order is preserved because a walker reserves a
// link the moment it arrives (start = max(now, busy_until)), which is the
// order the semaphore granted in.
//
// Optical circuit switching (FabricParams::circuit_setup > 0) adds a
// per-source LRU circuit cache (fixed-size inline array — a 4-entry LRU
// does not justify a std::list + unordered_map's allocations): a transfer
// to a destination without an established light path first pays the
// reconfiguration delay.  Setup is modelled optimistically (concurrent
// transfers to the same destination wait only once); see circuit_ready().
//
// There is one transfer entry, transfer_raw(); transfer() is an awaiter
// over it, so a coroutine's transfer creates no frame of its own.
//
// Host-side overheads (o_send, o_recv, gap, copies, registration) are NOT
// applied here — they belong to the messaging layer (polaris::msg), which
// composes them around transfer().
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/support/slab_pool.hpp"

namespace polaris::fabric {

/// Outcome of a transfer.  Healthy runs only ever see kOk; the other values
/// appear once fault injection is enabled (enable_faults()) and a node or
/// link on the message's path goes down before the last byte lands.
enum class XferStatus : std::uint8_t {
  kOk = 0,
  kNodeDown,  ///< source or destination NIC down (at inject or mid-flight)
  kLinkDown,  ///< a routed link went down (at inject or mid-flight)
};

/// Per-message path selection policy.
///
///  - kOblivious (default): every message between a pair takes the
///    topology's single deterministic route — bit-identical to every run
///    before adaptive routing existed (the golden-trace tests pin this).
///  - kAdaptive: each injection scans the pair's equal-cost minimal paths
///    (Topology::route_k) and takes the one with the least live occupancy —
///    queued serialization time (`busy_until`) plus an in-flight-message
///    penalty so tier-1 analytic flights (which reserve no busy_until) are
///    still visible.  Ties break toward the lowest choice index, so the
///    decision is a pure function of simulator state and replays exactly.
///    With faults enabled, candidates crossing a downed link are skipped —
///    adaptive messages reroute around dead fabric that would refuse an
///    oblivious sender.
enum class RoutingMode : std::uint8_t {
  kOblivious = 0,
  kAdaptive = 1,
};

/// Aggregate traffic statistics for a SimNetwork.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t circuit_hits = 0;
  std::uint64_t circuit_misses = 0;
  double total_link_busy_s = 0.0;  ///< summed over links

  // Two-tier data-path accounting.
  std::uint64_t messages_bypassed = 0;  ///< completed via one analytic event
  std::uint64_t messages_walked = 0;    ///< walked hop-by-hop from injection
  std::uint64_t flights_materialized = 0;  ///< demoted to walkers mid-flight
  std::uint64_t walker_hop_events = 0;     ///< tier-2 hop-advance events

  /// Transfers that completed with an error: refused at injection because an
  /// endpoint/link was already down, or killed mid-flight by a fault.
  std::uint64_t messages_dropped = 0;

  // Adaptive-routing accounting (zero in oblivious mode).
  std::uint64_t adaptive_decisions = 0;  ///< injections with > 1 candidate
  std::uint64_t adaptive_rerouted = 0;   ///< picked a non-oblivious path

  /// Fraction of network messages (self-transfers excluded) that completed
  /// analytically without ever owning a walker.
  double bypass_rate() const {
    const std::uint64_t total =
        messages_bypassed + messages_walked + flights_materialized;
    return total == 0 ? 0.0
                      : static_cast<double>(messages_bypassed) /
                            static_cast<double>(total);
  }
};

class SimNetwork {
 public:
  /// Maximum packets a single message is split into.  Bounds event count
  /// per message while preserving pipelining behaviour.
  static constexpr std::uint32_t kMaxPackets = 16;

  /// Light paths a source NIC can keep established concurrently.
  static constexpr std::size_t kCircuitsPerSource = 4;

  /// Completion callback carrying the transfer outcome.  Healthy paths
  /// always deliver XferStatus::kOk.
  using DoneFn = void (*)(void* ctx, XferStatus status);

  SimNetwork(des::Engine& engine, FabricParams params,
             const Topology& topology);

  /// Moves `bytes` from src to dst and calls `done(ctx, status)` when the
  /// last byte lands (or when a fault kills the message — see XferStatus),
  /// never before this call returns.  Self-transfers cost one host copy.
  /// Zero-byte transfers pay propagation (and circuit setup) only — no
  /// serialization.  Does not include host overheads.  `ctx` must stay
  /// valid until `done` fires.
  void transfer_raw(NodeId src, NodeId dst, std::uint64_t bytes, DoneFn done,
                    void* ctx);

  /// Awaiter over transfer_raw(): suspending starts the transfer with the
  /// awaiter as its completion context, and the callback stores the status
  /// and resumes the coroutine.  Lives in the awaiting coroutine's frame.
  struct [[nodiscard]] TransferAwaiter {
    SimNetwork& net;
    NodeId src;
    NodeId dst;
    std::uint64_t bytes;
    std::coroutine_handle<> handle{};
    XferStatus status = XferStatus::kOk;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      net.transfer_raw(src, dst, bytes, &resume_cb, this);
    }
    XferStatus await_resume() const noexcept { return status; }

    static void resume_cb(void* ctx, XferStatus status) {
      auto& self = *static_cast<TransferAwaiter*>(ctx);
      self.status = status;
      self.handle.resume();
    }
  };

  /// `co_await net.transfer(src, dst, bytes)`: transfer_raw() for
  /// coroutines, with the same events and timing.
  TransferAwaiter transfer(NodeId src, NodeId dst, std::uint64_t bytes) {
    return TransferAwaiter{*this, src, dst, bytes};
  }

  // -- fault injection --------------------------------------------------------
  // Disabled by default: the checks below compile to one untaken branch per
  // injection, and a run that never calls enable_faults() is event-for-event
  // identical to a build without this feature (the golden-trace test pins
  // this).  set_node_up(false) / set_link_up(false) kill every in-flight
  // message crossing the dead element — both tiers — completing each with
  // an error status via a zero-delay event (never re-entrantly).  Occupancy
  // already reserved by killed packets is NOT rewound: the bytes were on
  // the wire.  Routes are deterministic, so messages injected while an
  // element is down fail immediately rather than rerouting.

  /// Idempotently switches the fault path on (allocates the up/down maps).
  void enable_faults();
  bool faults_enabled() const { return faults_enabled_; }
  void set_node_up(NodeId node, bool up);
  void set_link_up(LinkId link, bool up);
  bool node_up(NodeId node) const {
    return !faults_enabled_ || node_down_[node] == 0;
  }
  bool link_up(LinkId link) const {
    return !faults_enabled_ || link_down_[link] == 0;
  }

  /// Closed-form transfer time assuming an idle network (for tests and
  /// analytic baselines).  Includes circuit setup on a cold cache if
  /// `assume_circuit` is false.
  double uncongested_seconds(NodeId src, NodeId dst, std::uint64_t bytes,
                             bool assume_circuit = true) const;

  /// Switches path selection; takes effect for messages injected after the
  /// call.  In-flight messages keep the path they reserved.
  void set_routing(RoutingMode mode) { routing_ = mode; }
  RoutingMode routing() const { return routing_; }

  const FabricParams& params() const { return params_; }
  const Topology& topology() const { return topo_; }
  des::Engine& engine() { return engine_; }
  const NetworkStats& stats() const { return stats_; }

  /// Attaches a tracer: packet serialization occupancy becomes spans on
  /// that link's track (process "links", created lazily so quiet links
  /// stay invisible) — one "busy" span per packet when walking, one merged
  /// "busy" span per link covering every packet when a whole message
  /// bypassed — and circuit establishment emits instant events.  Untraced
  /// runs pay one null-pointer branch per reservation.
  void attach_tracer(obs::Tracer& tracer);

  /// Stops recording (hot paths take their null-tracer branches); tracks
  /// and interned names survive, so re-attaching the same tracer rebinds
  /// without creating duplicates.
  void detach_tracer() { tracer_ = nullptr; }

  /// Busy seconds accumulated on one link (serialization occupancy).
  double link_busy_seconds(LinkId id) const;

 private:
  static constexpr std::uint32_t kNoFlight = 0xffff'ffffu;

  struct PacketPlan {
    std::uint32_t count;
    std::uint64_t bytes_per_packet;  // last packet may be smaller
  };
  PacketPlan plan_packets(std::uint64_t bytes) const;

  des::SimTime serialize_ticks(std::uint64_t bytes) const {
    return des::from_seconds(static_cast<double>(bytes) / params_.link_bw);
  }

  // -- per-link state ---------------------------------------------------------
  struct LinkState {
    des::SimTime busy_until = 0;  ///< end of the latest reservation
    std::uint32_t inflight = 0;   ///< in-flight messages routed over this link
    std::uint32_t flight = kNoFlight;  ///< tier-1 holder, if any (exclusive)
  };

  // -- tier 1: analytic flights ----------------------------------------------
  // Both tiers complete through the caller's raw (fn, ctx) pair.
  struct Flight {
    SimNetwork* net = nullptr;
    const std::vector<LinkId>* path = nullptr;  // borrowed from Topology cache
    des::SimTime start = 0;  ///< injection time (post circuit setup)
    des::SimTime ser = 0;    ///< per-packet serialization, ticks
    std::uint32_t packets = 0;
    std::uint32_t slot = 0;  ///< own index in flights_
    NodeId src = 0;
    NodeId dst = 0;
    des::EventId completion{};
    DoneFn done_fn = nullptr;
    void* done_ctx = nullptr;
    bool active = false;
  };

  // -- tier 2: pooled flat packet walkers ------------------------------------
  struct WalkMessage;
  struct Walker {
    WalkMessage* msg = nullptr;
    std::uint32_t next_hop = 0;  ///< link index the pending event arrives at
                                 ///< (== hops means final-delivery event)
    des::EventId event{};        ///< pending arrival/delivery event, for kills
  };
  struct WalkMessage {
    SimNetwork* net = nullptr;
    const std::vector<LinkId>* path = nullptr;
    des::SimTime ser = 0;
    std::uint32_t remaining = 0;
    std::uint32_t count = 0;  ///< packets with walker slots (kill scan bound)
    std::uint32_t slot = 0;
    NodeId src = 0;
    NodeId dst = 0;
    bool from_flight = false;  ///< materialized (counted already), not walked
    bool active = false;
    DoneFn done_fn = nullptr;
    void* done_ctx = nullptr;
    std::array<Walker, kMaxPackets> walkers{};
  };

  /// A transfer_raw() parked behind an optical circuit setup delay; doubles
  /// as the pooled context for deferred status delivery (deliver_status_cb).
  struct RawTransfer {
    SimNetwork* net = nullptr;
    NodeId src = 0;
    NodeId dst = 0;
    std::uint64_t bytes = 0;
    DoneFn done = nullptr;
    void* ctx = nullptr;
    std::uint32_t slot = 0;
    XferStatus status = XferStatus::kOk;
  };

  /// Post-circuit injection: path selection, fault check, packet
  /// planning, flight materialization, idle-path test, then tier dispatch.
  void inject(NodeId src, NodeId dst, std::uint64_t bytes, DoneFn done,
              void* ctx);

  /// Adaptive path selection: least-occupied equal-cost candidate, lowest
  /// index on ties.  `ser_total` is this message's full serialization time
  /// in ticks — the congestion price of one in-flight message on a link.
  const std::vector<LinkId>& select_path(NodeId src, NodeId dst,
                                         des::SimTime ser_total);

  void begin_flight(NodeId src, NodeId dst, const std::vector<LinkId>& path,
                    des::SimTime ser, std::uint32_t packets, DoneFn done,
                    void* ctx);
  void complete_flight(Flight& f, bool defer_resume);
  void materialize_flight(Flight& f);

  void begin_walk(NodeId src, NodeId dst, const std::vector<LinkId>& path,
                  des::SimTime ser, std::uint32_t packets, DoneFn done,
                  void* ctx);
  /// Reserves the walker's next link (now == its arrival time there) and
  /// schedules the following arrival or the final delivery.
  void advance_walker(Walker& w);
  void finish_walk_packet(WalkMessage& m);

  // -- fault machinery --------------------------------------------------------
  /// Completes `done(ctx, status)` via one zero-delay event — fault
  /// completions never run re-entrantly inside the caller of set_*_up().
  void deliver_async(DoneFn done, void* ctx, XferStatus status);
  void kill_flight(Flight& f, XferStatus status);
  void kill_walk(WalkMessage& m, XferStatus status);

  static void flight_complete_cb(void* ctx);
  static void walker_arrive_cb(void* ctx);
  static void raw_setup_done_cb(void* ctx);
  static void deliver_status_cb(void* ctx);

  /// A record from `pool`, stamped with this network and its own slot.
  template <typename T>
  T& take(support::SlabPool<T>& pool) {
    const std::uint32_t slot = pool.acquire();
    T& r = pool[slot];
    r.net = this;
    r.slot = slot;
    return r;
  }

  /// Circuit-cache lookup: true on a hit (stats/trace recorded); on a miss
  /// records the setup span and installs the circuit optimistically — the
  /// caller pays params_.circuit_setup before injecting.
  bool circuit_ready(NodeId src, NodeId dst);

  /// Serialization occupancy bookkeeping shared by both tiers.
  void credit_link(LinkId l, des::SimTime start, des::SimTime ser,
                   std::uint32_t span_packets);

  /// Lazily-created trace track of a link (only called when tracer_ set).
  obs::TrackId link_track(LinkId id);

  des::Engine& engine_;
  FabricParams params_;
  const Topology& topo_;
  RoutingMode routing_ = RoutingMode::kOblivious;
  des::SimTime prop_mid_ = 0;   ///< wire + switch forwarding, ticks
  des::SimTime prop_last_ = 0;  ///< wire only (after the final link), ticks

  std::vector<LinkState> links_;
  std::vector<des::SimTime> link_busy_ticks_;

  // Fault state (empty until enable_faults()).
  bool faults_enabled_ = false;
  std::vector<std::uint8_t> node_down_;
  std::vector<std::uint8_t> link_down_;

  // Raw-callback contexts point into these records.
  support::SlabPool<Flight> flights_;
  support::SlabPool<WalkMessage> walks_;
  support::SlabPool<RawTransfer> raw_transfers_;

  NetworkStats stats_;
  obs::Tracer* tracer_ = nullptr;
  static constexpr obs::TrackId kNoTrack =
      std::numeric_limits<obs::TrackId>::max();
  std::vector<obs::TrackId> link_tracks_;
  obs::TrackId circuit_track_ = kNoTrack;
  obs::NameId busy_id_ = obs::kNoName;      ///< interned in attach_tracer
  obs::NameId cat_link_id_ = obs::kNoName;  ///< interned in attach_tracer
  obs::Tracer* bound_tracer_ = nullptr;     ///< tracer tracks were built for

  // Optical circuit cache: per source, LRU of destinations in a fixed
  // inline array (front = most recent).
  struct CircuitCache {
    std::array<NodeId, kCircuitsPerSource> dst{};
    std::uint32_t size = 0;

    bool touch(NodeId d);    ///< true on hit; moves d to the front
    void insert(NodeId d);   ///< pushes d to the front, evicting the LRU
  };
  std::vector<CircuitCache> circuits_;
};

}  // namespace polaris::fabric
