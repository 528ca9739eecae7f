// Simulated SPMD runtime.
//
// A SimWorld places one rank per node of a simulated cluster and runs SPMD
// programs written as C++20 coroutines:
//
//   des::Task<void> program(simrt::SimComm& c) {
//     co_await c.send(1, /*tag=*/0, /*bytes=*/1024);
//     co_await c.barrier();
//   }
//
// Message timing composes the user-level messaging protocol stack
// (polaris::msg: eager/rendezvous/RDMA, registration cache) over the
// packet-level fabric simulation (polaris::fabric::SimNetwork), with host
// overheads from the fabric's NIC parameters.  Collectives replay the same
// polaris::coll schedules the real runtime executes.
//
// Simulation carries byte counts, not data: correctness of data movement is
// proved by the tests' in-memory collective oracle and the real runtime;
// SimWorld answers "how long does it take on fabric X at scale N".
//
// Host-side hot path (simulated timing is bit-identical either way): every
// message is an InFlight record in a support::SlabPool, addressed by
// slot+generation, with no shared_ptr.  Its completion flags, and the join
// of a collective's concurrent send+recv step, are intrusive
// des::OneShotEvents.  Eager wire delivery runs as a raw-callback chain
// through fabric::SimNetwork::transfer_raw (no spawned coroutine frame),
// and a rendezvous leg awaits SimNetwork::transfer(), an awaiter over the
// same call.  Each (src, dst) pair that exchanges messages has one
// sequencing record, made on its first send and owned by the SimWorld: the
// send and expected sequence numbers, and a ring where out-of-order network
// completions park by sequence number.  A world's messaging state thus
// grows with the pairs its traffic uses, not with ranks².  Nonblocking
// requests are pooled slot+generation handles.  The coroutine frames a message still creates
// (send, recv and the calls they await) come from des's thread-local frame
// recycler, so once the pools and the recycler are warm the path makes no
// heap allocation; bench_d3_msg checks that by counting global operator
// new.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <vector>

#include "polaris/coll/algorithms.hpp"
#include "polaris/des/engine.hpp"
#include "polaris/des/sync.hpp"
#include "polaris/des/task.hpp"
#include "polaris/fabric/loggp.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/hw/node.hpp"
#include "polaris/msg/protocol.hpp"
#include "polaris/msg/reg_cache.hpp"
#include "polaris/msg/tag_matcher.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/support/flat_map.hpp"
#include "polaris/support/slab_pool.hpp"

namespace polaris::fault {
class Injector;
}  // namespace polaris::fault

namespace polaris::simrt {

class SimComm;
class SimWorld;

inline constexpr std::uint32_t kNilSlot = 0xffff'ffffu;

/// Outcome of a simulated messaging operation.  Healthy runs only ever see
/// kOk; the rest surface once SimWorld::enable_faults() is active.
enum class SimStatus : std::uint8_t {
  kOk = 0,
  kPeerDown,  ///< the peer's node crashed (detected or mid-transfer)
  kLinkDown,  ///< a routed link stayed down through every retry
  kTimeout,   ///< a receive, or a rendezvous send's match wait, timed out
};

/// Fault-recovery knobs for the messaging layer (SimWorld::enable_faults).
/// A failed wire transfer is retried up to max_retries times with
/// exponential backoff; recv_timeout > 0 additionally arms a timer on every
/// queued receive and on the rendezvous match wait.  Each fires once: the
/// operation fails with kPeerDown if the peer's node is down and kTimeout
/// otherwise, so a crashed or silent peer cannot hang it forever.
struct RetryPolicy {
  std::uint32_t max_retries = 3;
  double backoff = 1e-3;         ///< seconds before the first retry
  double backoff_factor = 2.0;   ///< multiplier per subsequent retry
  double recv_timeout = 0.0;     ///< seconds; 0 disables receive timeouts
};

namespace detail {

/// Pooled per-message simulation record (one per send, owned by the
/// SimWorld pool).  Released back to the pool when both sides are done:
/// the sender-side protocol chain and the receiving recv_impl each hold
/// one reference.
struct InFlight {
  SimComm* dst_comm = nullptr;  ///< receiver endpoint (raw-chain context)
  int src = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;  ///< per (src,dst) issue order (non-overtaking)
  std::uint32_t pair = 0;  ///< the (src,dst) PairSeq record's index
  msg::Protocol proto = msg::Protocol::kEager;
  des::OneShotEvent matched;    ///< recv posted & matched
  des::OneShotEvent delivered;  ///< payload landed
  std::uint32_t slot = 0;       ///< own index in the world pool
  std::uint32_t gen = 0;        ///< bumped on release (stale-handle check)
  std::uint8_t refs = 0;

  // Fault-path state (untouched on healthy runs beyond the acquire reset).
  SimStatus status = SimStatus::kOk;  ///< sticky first failure
  std::uint8_t retries_used = 0;      ///< eager wire retries consumed
  bool dropped = false;               ///< gave up; seq advanced, no delivery
  des::EventId sync_timeout{};        ///< rendezvous match-wait deadline
};

/// Sequencing state of one (src, dst) pair, made on the pair's first send.
/// Messages leave in send_seq order and reach the matcher in expect_seq
/// order (MPI non-overtaking); a network completion that overtakes parks in
/// `held` at its sequence number mod the ring's size (a power of two grown
/// to the largest in-flight sequence window).
struct PairSeq {
  std::uint64_t send_seq = 0;
  std::uint64_t expect_seq = 0;
  std::vector<std::uint32_t> held;  ///< InFlight slots, kNilSlot if empty
};

/// Matcher cookie: a generation-checked handle into the InFlight pool.
struct InFlightId {
  std::uint32_t slot = kNilSlot;
  std::uint32_t gen = 0;
};

/// Name ids for every hot span/instant SimComm records, interned once in
/// SimWorld::attach_tracer.  The record path then never touches the
/// tracer's intern table and never builds a std::string — required for the
/// tracer's steady-state no-allocation guarantee.
struct TraceIds {
  /// Rendezvous protocol-phase names ("rdv:*" or "rdma:*").
  struct Phase {
    obs::NameId rts = obs::kNoName;
    obs::NameId sync = obs::kNoName;
    obs::NameId stage = obs::kNoName;
    obs::NameId reg = obs::kNoName;
    obs::NameId payload = obs::kNoName;
  };

  obs::NameId send = obs::kNoName;
  obs::NameId eager_inject = obs::kNoName;
  obs::NameId retry = obs::kNoName;
  obs::NameId recv = obs::kNoName;
  obs::NameId recv_wait = obs::kNoName;
  obs::NameId recv_cpu = obs::kNoName;
  obs::NameId reg_miss = obs::kNoName;
  obs::NameId reg_hit = obs::kNoName;
  obs::NameId wait = obs::kNoName;
  obs::NameId wait_all = obs::kNoName;
  obs::NameId compute = obs::kNoName;
  obs::NameId barrier = obs::kNoName;
  obs::NameId broadcast = obs::kNoName;
  obs::NameId allreduce = obs::kNoName;

  obs::NameId cat_eager = obs::kNoName;
  obs::NameId cat_rendezvous = obs::kNoName;
  obs::NameId cat_rdma = obs::kNoName;
  obs::NameId cat_protocol = obs::kNoName;
  obs::NameId cat_fault = obs::kNoName;
  obs::NameId cat_p2p = obs::kNoName;
  obs::NameId cat_reg = obs::kNoName;
  obs::NameId cat_cpu = obs::kNoName;
  obs::NameId cat_coll = obs::kNoName;

  Phase rdv;
  Phase rdma;

  void intern_all(obs::Tracer& tracer);

  obs::NameId proto_cat(msg::Protocol p) const {
    switch (p) {
      case msg::Protocol::kEager:
        return cat_eager;
      case msg::Protocol::kRendezvous:
        return cat_rendezvous;
      case msg::Protocol::kRdma:
        return cat_rdma;
    }
    return obs::kNoName;
  }
};

/// All-kNoName ids: SimComm::ids_ points here until a tracer attaches, so
/// record sites may dereference unconditionally (a null tracer ignores the
/// arguments anyway).
inline constexpr TraceIds kNoTraceIds{};

}  // namespace detail

/// Completion info for a simulated receive (or a waited send, which fills
/// only `status`).
struct SimRecvStatus {
  int src = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
  SimStatus status = SimStatus::kOk;

  bool ok() const { return status == SimStatus::kOk; }
};

/// Handle for a nonblocking simulated operation: a pooled slot+generation
/// in the issuing SimComm (trivially copyable, two words — no shared_ptr).
/// Wait via SimComm::wait()/wait_all(); waiting consumes the handle.
class SimRequest {
 public:
  SimRequest() = default;
  bool valid() const { return slot_ != kNilSlot; }

 private:
  friend class SimComm;
  SimRequest(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNilSlot;
  std::uint32_t gen_ = 0;
};

/// Per-rank communication endpoint for simulated SPMD programs.  All
/// operations are awaitable coroutine tasks.
class SimComm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Blocking send (MPI_Send semantics): completes when the payload has
  /// been injected (eager) or transferred (rendezvous/RDMA).
  /// `buffer_addr` keys the registration cache; 0 = this rank's default
  /// buffer (cache-friendly reuse, the common application pattern).
  /// Not a coroutine itself: the per-destination sequence number is taken
  /// when send() is CALLED, so blocking and nonblocking sends interleave
  /// in program order.  Returns kOk on healthy runs; with faults enabled,
  /// the first unrecovered failure (retries exhausted, peer declared dead).
  des::Task<SimStatus> send(int dst, int tag, std::uint64_t bytes,
                            std::uintptr_t buffer_addr = 0);

  /// Blocking receive; completes when the payload has landed and the
  /// receiving CPU has processed it.  Like send(), the matcher posting
  /// happens when recv() is CALLED (posting order = program order).
  des::Task<SimRecvStatus> recv(int src, int tag);

  /// Nonblocking send/recv.  Issue order defines matching order exactly as
  /// for the blocking calls (sequence numbers are assigned at issue time).
  SimRequest isend(int dst, int tag, std::uint64_t bytes,
                   std::uintptr_t buffer_addr = 0);
  SimRequest irecv(int src, int tag);

  /// Awaits one request and consumes it (each handle is waited exactly
  /// once; the slot is recycled on return).
  des::Task<SimRecvStatus> wait(SimRequest request);

  /// Awaits every request in the span (accepts a std::vector directly),
  /// consuming each.  Returns the first non-kOk status (all requests are
  /// still waited, so no slot leaks on partial failure).
  des::Task<SimStatus> wait_all(std::span<const SimRequest> requests);

  /// Local computation of `flops` touching `mem_bytes` of DRAM, timed by
  /// the node's roofline model.
  des::Task<void> compute(double flops, double mem_bytes);

  /// Plain simulated-time delay.
  des::Task<void> sleep(double seconds);

  // -- collectives ------------------------------------------------------------
  /// Executes one rank's part of a schedule with elements of elem_bytes.
  /// With faults enabled a collective surfaces partial failure: the first
  /// failed step's status is returned and the remaining steps are skipped
  /// on this rank (peers discover the hole through their own failed steps
  /// or receive timeouts).
  des::Task<SimStatus> run_schedule(const coll::Schedule& schedule,
                                    std::size_t elem_bytes);

  des::Task<SimStatus> barrier();
  des::Task<SimStatus> broadcast(std::uint64_t bytes, int root);
  des::Task<SimStatus> allreduce(std::uint64_t bytes);

  /// Current simulated time in seconds.
  double now() const;

  /// The world's event engine (for advanced composition: triggers,
  /// spawning helper processes).
  des::Engine& engine();

  // -- stats -------------------------------------------------------------------
  std::uint64_t eager_count() const { return eager_count_; }
  std::uint64_t rendezvous_count() const { return rendezvous_count_; }
  const msg::RegCacheStats& reg_stats() const;

  /// This endpoint's tag-matching statistics and pool sizes (allocation
  /// observability: capacities that stop growing mean a steady state).
  const msg::MatchStats& match_stats() const { return matcher_.stats(); }
  std::size_t matcher_pool_capacity() const {
    return matcher_.posted_pool_capacity() +
           matcher_.unexpected_pool_capacity();
  }
  std::size_t request_pool_capacity() const {
    return request_pool_.capacity();
  }
  std::size_t max_held_depth() const { return max_held_; }

  /// This rank's trace track (valid after SimWorld::attach_tracer); user
  /// programs may add their own spans to it.
  obs::Tracer* tracer() const { return tracer_; }
  obs::TrackId track() const { return track_; }

 private:
  friend class SimWorld;

  /// Queued posted-receive state, pooled; the matcher's RecvId encodes
  /// (generation << 32) | slot so a match resolves here in O(1).
  struct PendingRecv {
    des::OneShotEvent trigger;
    std::uint32_t inflight_slot = kNilSlot;
    std::uint32_t gen = 0;
    // Receive-timeout state (armed only when a RetryPolicy asks for it).
    SimComm* owner = nullptr;
    des::EventId timeout_ev{};
    int src = -1;
    bool timed_out = false;
  };

  /// Pooled nonblocking-request record behind a SimRequest handle; reset
  /// when its handle is waited.
  struct Request {
    des::OneShotEvent done;
    SimRecvStatus status;
    std::uint32_t gen = 0;
  };

  SimComm(SimWorld& world, int rank);

  /// Index of the (rank_, dst) PairSeq record, made on first use.
  std::uint32_t pair_to(int dst);

  /// The body of send(); `seq` of record `pair` was assigned by the caller
  /// at issue time.
  des::Task<SimStatus> send_impl(int dst, int tag, std::uint64_t bytes,
                                 std::uintptr_t buffer_addr,
                                 std::uint32_t pair, std::uint64_t seq);

  /// Matcher posting done eagerly at recv()/irecv() call time.
  struct RecvTicket {
    std::uint32_t inflight_slot = kNilSlot;  ///< unexpected match, if any
    std::uint32_t pending_slot = kNilSlot;   ///< else the queued recv state
  };
  RecvTicket post_recv_now(int src, int tag);
  des::Task<SimRecvStatus> recv_impl(RecvTicket ticket);
  des::Task<void> send_eager(detail::InFlight& f);
  des::Task<SimStatus> send_rendezvous(detail::InFlight& f,
                                       std::uintptr_t buffer_addr);

  /// A fabric transfer wrapped in the world's RetryPolicy: on failure,
  /// backs off and re-sends up to max_retries times.  With faults
  /// disabled this adds no engine events — healthy timing is identical
  /// to a bare transfer.
  des::Task<fabric::XferStatus> transfer_retry(fabric::NodeId src,
                                               fabric::NodeId dst,
                                               std::uint64_t bytes);
  des::Task<void> isend_body(int dst, int tag, std::uint64_t bytes,
                             std::uintptr_t buffer_addr, std::uint32_t pair,
                             std::uint64_t seq, std::uint32_t request_slot);
  des::Task<void> irecv_body(RecvTicket ticket, std::uint32_t request_slot);

  /// Eager wire chain (replaces the spawned deliver_eager coroutine):
  /// a zero-delay raw event injects into the fabric, whose completion
  /// callback lands the message at the destination.  ctx is the InFlight.
  /// eager_delivered_cb doubles as the retry driver: a failed wire leg
  /// reschedules eager_wire_cb after the policy backoff, and a message
  /// that exhausts its retries is dropped (sequence still advances, so
  /// later traffic from the same source is not wedged).
  static void eager_wire_cb(void* ctx);
  static void eager_delivered_cb(void* ctx, fabric::XferStatus status);
  /// Receive-timeout timer (ctx is the PendingRecv).
  static void recv_timeout_cb(void* ctx);
  /// Rendezvous match-wait deadline (ctx is the InFlight): fails the send
  /// with kPeerDown if the peer's node is down, kTimeout otherwise.
  static void rdv_sync_timeout_cb(void* ctx);

  /// Applies an arrival in per-pair issue order (MPI non-overtaking).
  void arrive_ordered(std::uint32_t inflight_slot);
  void deliver_to_matcher(std::uint32_t inflight_slot);
  void hold_out_of_order(detail::PairSeq& pair, std::uint32_t inflight_slot);

  /// Host carrying `rank` (world placement; identity by default).
  fabric::NodeId node_of(int rank) const;

  std::uintptr_t default_addr() const;

  SimWorld* world_;
  int rank_;
  msg::TagMatcher<detail::InFlightId> matcher_;
  // References into both pools are held across awaits.
  support::SlabPool<PendingRecv> pending_pool_;
  support::SlabPool<Request> request_pool_;
  // Destination rank -> index of this rank's PairSeq record to it.
  support::FlatMap64<std::uint32_t> pair_of_dst_;
  std::size_t held_count_ = 0;  ///< messages parked in rings to this rank
  std::size_t max_held_ = 0;
  des::SimTime earliest_next_send_ = 0;
  std::uint64_t eager_count_ = 0;
  std::uint64_t rendezvous_count_ = 0;
  std::unique_ptr<msg::RegistrationCache> reg_cache_;

  // Observability hooks; null until SimWorld::attach_* is called, and every
  // instrumented path branches on that (zero cost when unobserved).
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  const detail::TraceIds* ids_ = &detail::kNoTraceIds;  ///< set with tracer_
  obs::Counter* sends_counter_ = nullptr;
  obs::LogHistogram* msg_bytes_ = nullptr;  ///< single DES thread: plain ops
};

/// Owner of the simulated cluster: engine, topology, network, node model
/// and one SimComm per rank.
class SimWorld {
 public:
  /// Protocol header bytes charged to control messages (envelope, RTS/CTS).
  static constexpr std::uint64_t kHeaderBytes = 40;

  /// `topology` defaults to make_default_topology(ranks); `node` defaults
  /// to the conventional 2002 node.  `eager_override` (bytes) replaces the
  /// fabric's eager/rendezvous threshold when non-zero.
  SimWorld(std::size_t ranks, fabric::FabricParams fabric,
           std::unique_ptr<fabric::Topology> topology = nullptr,
           hw::NodeModel node = hw::NodeDesigner().design(
               hw::NodeArch::kConventional, 2002.0),
           std::uint32_t eager_override = 0);

  /// Spawns `program` on every rank.  The callable is kept alive for the
  /// world's lifetime, so lambdas that are themselves coroutines are safe:
  /// their closure (which the coroutine frame references) survives until
  /// after run().
  void launch(std::function<des::Task<void>(SimComm&)> program);

  /// Runs the simulation to completion; returns elapsed simulated seconds.
  double run();

  std::size_t ranks() const { return comms_.size(); }
  SimComm& comm(std::size_t r) { return *comms_.at(r); }

  /// Maps ranks onto specific hosts of the topology (the resource
  /// manager's allocation, a fragmentation experiment, ...).  `nodes[r]`
  /// is rank r's host; one entry per rank, all distinct, all within the
  /// topology.  Call before launch().  Without it rank r runs on node r —
  /// the historical identity placement, so existing runs are unchanged.
  void set_placement(std::vector<fabric::NodeId> nodes);
  /// Host carrying `rank` under the current placement.
  fabric::NodeId node_of(int rank) const {
    return placement_.empty()
               ? static_cast<fabric::NodeId>(rank)
               : placement_[static_cast<std::size_t>(rank)];
  }
  des::Engine& engine() { return engine_; }
  fabric::SimNetwork& network() { return *network_; }
  const fabric::FabricParams& params() const { return network_->params(); }
  const hw::NodeModel& node() const { return node_; }
  std::uint32_t eager_threshold() const { return eager_threshold_; }

  /// LogGP view of this world's fabric at its typical hop count.
  fabric::LogGPParams loggp() const;

  // -- fault path --------------------------------------------------------------
  /// Arms the messaging layer against the injector's faults: wire
  /// failures are retried per `policy`, exhausted messages are dropped
  /// with an error status, and (if policy.recv_timeout > 0) receives and
  /// rendezvous handshakes time out instead of hanging on a dead peer.
  /// Call before launch().  Without this call the fault machinery is
  /// fully disabled and runs are event-for-event identical to the seed.
  void enable_faults(fault::Injector& injector, RetryPolicy policy = {});
  bool faults_enabled() const { return injector_ != nullptr; }
  fault::Injector* injector() const { return injector_; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  void count_retry() { ++msg_retries_; }
  void count_drop() { ++msg_drops_; }
  void count_timeout() { ++recv_timeouts_; }
  std::uint64_t msg_retries() const { return msg_retries_; }
  std::uint64_t msg_drops() const { return msg_drops_; }
  std::uint64_t recv_timeouts() const { return recv_timeouts_; }

  /// Program instances spawned / completed so far (one per rank per
  /// launch() call).  launched == finished once every rank's program ran
  /// to the end — the difference, mid-run, is the number of still-working
  /// or wedged ranks.
  std::uint64_t ranks_launched() const { return ranks_launched_; }
  std::uint64_t ranks_finished() const { return ranks_finished_; }

  /// Attaches a tracer (use an obs::SimClock over this world's engine):
  /// one track per rank plus the network's per-link tracks.  Rank spans
  /// cover every operation — send/recv with protocol-phase sub-spans,
  /// collectives, compute, waits — so TraceAnalysis can reconstruct the
  /// critical path.  Call before launch().  Re-attaching the same tracer
  /// (e.g. after detach_tracer) rebinds the record pointers without
  /// creating duplicate tracks.
  void attach_tracer(obs::Tracer& tracer);

  /// Stops all recording: the hot paths fall back to their null-tracer
  /// branches, exactly as if no tracer had ever been attached.  Tracks and
  /// interned names survive for a later re-attach.
  void detach_tracer();

  /// Attaches a metrics registry: live send counters/size histograms
  /// during the run, plus engine, fabric, matcher and registration-cache
  /// totals mirrored at the end of each run().
  void attach_metrics(obs::MetricsRegistry& metrics);

  /// Selected-and-generated schedule for a collective, memoized per world:
  /// every rank of every iteration reuses one selection + one schedule
  /// (selection alone costs more than a small collective's simulation).
  const coll::Schedule& collective_schedule(coll::Collective kind,
                                            std::size_t count, int root);

  /// InFlight pool (shared across ranks; the simulation is
  /// single-threaded).  Capacity growth = allocations.
  detail::InFlight& inflight(std::uint32_t slot) {
    return inflight_pool_[slot];
  }
  void release_inflight_ref(std::uint32_t slot);
  std::size_t inflight_pool_capacity() const {
    return inflight_pool_.capacity();
  }
  std::size_t inflight_in_use() const { return inflight_pool_.in_use(); }
  std::size_t max_inflight_in_use() const { return max_inflight_in_use_; }

 private:
  friend class SimComm;  // send_impl acquires InFlight records

  static std::uint64_t pack_schedule_key(coll::Collective kind,
                                         std::size_t count, int root);

  des::Engine engine_;
  std::unique_ptr<fabric::Topology> topo_;
  std::unique_ptr<fabric::SimNetwork> network_;
  std::vector<fabric::NodeId> placement_;  ///< empty = identity
  hw::NodeModel node_;
  std::uint32_t eager_threshold_;
  obs::MetricsRegistry* metrics_ = nullptr;
  detail::TraceIds trace_ids_;  ///< interned in attach_tracer
  obs::Tracer* bound_tracer_ = nullptr;  ///< tracer tracks were built for
  fault::Injector* injector_ = nullptr;
  RetryPolicy retry_policy_;
  std::uint64_t msg_retries_ = 0;
  std::uint64_t msg_drops_ = 0;
  std::uint64_t recv_timeouts_ = 0;
  std::uint64_t ranks_launched_ = 0;
  std::uint64_t ranks_finished_ = 0;
  std::vector<std::unique_ptr<SimComm>> comms_;
  // Launched programs; std::list keeps closure addresses stable because
  // coroutine frames created from a closure reference that exact object.
  std::list<std::function<des::Task<void>(SimComm&)>> programs_;
  // Memoized collective schedules: flat hash on a packed (kind, count,
  // root) key, values indirected through a deque so the references
  // collective_schedule() hands out stay stable across cache growth.
  support::FlatMap64<std::uint32_t> schedule_cache_;
  std::deque<coll::Schedule> schedules_;
  // One sequencing record per (src, dst) pair with traffic, never freed;
  // a deque, so references stay valid as the world's traffic adds pairs.
  std::deque<detail::PairSeq> pairs_;
  // Raw-chain contexts point at these records.
  support::SlabPool<detail::InFlight> inflight_pool_;
  std::size_t max_inflight_in_use_ = 0;
};

}  // namespace polaris::simrt
