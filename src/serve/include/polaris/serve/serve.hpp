// Datacenter serving tier over the simulated fabric.
//
// The commodity-cluster thesis the paper rides — assemble capability from
// volumes of identical parts — is also the datacenter serving story: a
// rank of front-ends fans millions of requests per second out to sharded
// service ranks, and the metric that matters is not mean throughput but
// the p99/p999 tail of end-to-end latency.  ServeSim models that tier on
// the packet-level fabric simulation:
//
//   - Front-ends generate OPEN-LOOP traffic (support::ArrivalProcess —
//     Poisson or bursty MMPP): requests arrive on their own clock, so an
//     overloaded system builds queues instead of conveniently slowing the
//     workload, which is where tails actually come from.
//   - A pluggable load-balancing policy picks the shard per request:
//     uniform random, round-robin, join-shortest-queue (by outstanding
//     requests), or power-of-two-choices (sample two shards, take the
//     shorter — the classic O(1) approximation of JSQ).
//   - Each shard serves one request at a time with exponentially
//     distributed service times, FIFO-queueing the rest; request and
//     response bytes ride fabric::SimNetwork::transfer_raw, so link
//     contention, topology, routing mode and faults all shape the tail.
//     Requests are support::SlabPool records, so the raw callbacks can
//     carry their addresses.
//   - End-to-end latency (arrival to response landed) is recorded in one
//     obs::LogHistogram shared by every front-end (the sim runs on one
//     thread); an optional time-bucketed timeline captures tail
//     excursions around a fault.
//
// Fault behaviour: register the sim as a fault::FaultListener and crash a
// shard's node mid-run — in-flight requests to it fail, the front-ends
// fail over to surviving shards (counted as retries), and the timeline
// shows the p999 excursion and recovery.  Everything is driven by one
// des::Engine and seeded RNG streams split per actor, so a run is
// reproducible bit-for-bit regardless of host thread count.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/support/arrival.hpp"
#include "polaris/support/rng.hpp"
#include "polaris/support/slab_pool.hpp"

namespace polaris::serve {

/// Per-request shard selection policy.
enum class LbPolicy : std::uint8_t {
  kRandom = 0,      ///< uniform random shard
  kRoundRobin = 1,  ///< per-front-end rotation
  kJsq = 2,         ///< join-shortest-queue (outstanding requests)
  kPo2c = 3,        ///< power of two choices
};

const char* to_string(LbPolicy policy);

struct ServeConfig {
  std::size_t frontends = 4;
  std::size_t shards = 16;

  /// Open-loop arrival process PER FRONT-END (aggregate offered load is
  /// frontends * arrival.rate).
  support::ArrivalSpec arrival = support::ArrivalSpec::poisson(100'000.0);

  double service_mean_s = 10e-6;  ///< exponential service time mean
  std::uint64_t request_bytes = 512;
  std::uint64_t response_bytes = 512;

  LbPolicy lb = LbPolicy::kRandom;
  fabric::RoutingMode routing = fabric::RoutingMode::kOblivious;
  fabric::FabricParams fabric;

  double duration_s = 0.1;  ///< arrival-generation window; then drain
  double warmup_s = 0.01;   ///< arrivals before this are not recorded

  /// > 0 slices recorded latencies into ceil(duration/bucket) per-bucket
  /// histograms (by arrival time) — the p999-over-time view of a fault.
  double timeline_bucket_s = 0.0;

  std::uint64_t seed = 1;

  /// Host of each front-end / shard.  Empty = identity packing: front-end
  /// i on node i, shard j on node frontends + j.
  std::vector<fabric::NodeId> frontend_nodes;
  std::vector<fabric::NodeId> shard_nodes;
};

struct ServeResult {
  std::uint64_t offered = 0;     ///< requests generated
  std::uint64_t completed = 0;   ///< responses landed
  std::uint64_t recorded = 0;    ///< completed with arrival >= warmup
  std::uint64_t dropped = 0;     ///< no live shard / response lost
  std::uint64_t rejected = 0;    ///< turned away by the admission limit
  std::uint64_t failovers = 0;   ///< re-dispatches after a shard failure

  double measured_s = 0.0;        ///< duration - warmup
  double throughput_rps = 0.0;    ///< recorded / measured_s
  std::size_t max_queue_depth = 0;

  /// End-to-end latency in engine ticks (nanoseconds), all front-ends,
  /// post-warmup arrivals only.
  obs::LogHistogram latency_ns;
  /// Per-arrival-time-bucket latency (empty unless timeline_bucket_s > 0).
  std::vector<obs::LogHistogram> timeline;

  fabric::NetworkStats net;

  double p50_us() const { return latency_ns.quantile(0.50) * 1e-3; }
  double p99_us() const { return latency_ns.quantile(0.99) * 1e-3; }
  double p999_us() const { return latency_ns.quantile(0.999) * 1e-3; }
  double mean_us() const { return latency_ns.mean() * 1e-3; }
};

/// One serving-tier simulation over its own engine + network.  Usage:
///
///   ServeSim sim(cfg, std::make_unique<fabric::FatTree>(4));
///   sim.injector().schedule_node_crash(0.05, sim.shard_node(3), 0.02);
///   ServeResult r = sim.run();
///
/// run() is one-shot.  The injector is constructed lazily; a run that
/// never touches it is event-for-event identical to a faultless build.
class ServeSim : public fault::FaultListener {
 public:
  /// `topology` defaults to a crossbar over frontends + shards hosts.
  explicit ServeSim(ServeConfig cfg,
                    std::unique_ptr<fabric::Topology> topology = nullptr);

  ServeResult run();

  des::Engine& engine() { return engine_; }
  fabric::SimNetwork& network() { return *network_; }
  const fabric::Topology& topology() const { return *topo_; }

  /// Lazily-created fault injector wired to this sim's network, with the
  /// sim registered as listener (shard crash -> failover, repair ->
  /// back in rotation).
  fault::Injector& injector();

  fabric::NodeId frontend_node(std::size_t f) const;
  fabric::NodeId shard_node(std::size_t s) const;

  // -- live control (scenario hooks; safe to call from DES events mid-run) --

  /// Administratively drains (`accept` false) or restores a shard: a
  /// drained shard takes no NEW dispatches but finishes everything it
  /// already holds — the rolling-upgrade primitive.  Distinct from a
  /// crash, which kills in-flight work.
  void set_shard_admin(std::size_t shard, bool accept);
  /// Scales the open-loop arrival rate by `factor` (> 0) for all gaps
  /// drawn from now on.  1.0 restores the configured rate.
  void set_load_factor(double factor);
  /// Caps each shard's wait queue: a request landing on a full queue is
  /// turned away (counted in `rejected`, not `dropped`).  0 = unlimited.
  void set_admission_limit(std::size_t max_queue);

  // -- live probes (cheap, valid mid-run) --

  std::size_t shard_count() const { return shards_.size(); }
  bool shard_up(std::size_t s) const { return shards_[s].up; }
  bool shard_accepting(std::size_t s) const {
    return shards_[s].up && shards_[s].accepting;
  }
  /// True once a shard holds no work at all (empty queue, idle server, no
  /// in-flight responses) — the "safe to upgrade" signal after a drain.
  bool shard_drained(std::size_t s) const;
  std::size_t queue_depth(std::size_t s) const {
    const Shard& sh = shards_[s];
    return sh.queue.size() + (sh.in_service == kNilSlot ? 0 : 1);
  }
  std::uint64_t offered() const { return result_.offered; }
  std::uint64_t completed() const { return result_.completed; }
  std::uint64_t dropped() const { return result_.dropped; }
  std::uint64_t rejected() const { return result_.rejected; }
  std::uint64_t failovers() const { return result_.failovers; }
  std::size_t max_queue_depth() const { return result_.max_queue_depth; }
  /// Requests generated but not yet completed/dropped/rejected.  The
  /// conservation invariant: offered == completed + dropped + rejected +
  /// in_flight at every instant, and in_flight == 0 once the engine runs
  /// dry.
  std::uint64_t in_flight() const {
    return result_.offered - result_.completed - result_.dropped -
           result_.rejected;
  }
  /// Live request records in the pool — measures in-flight work from the
  /// allocator side, independently of the counters, so a conservation
  /// monitor can cross-check the two.
  std::size_t active_requests() const { return requests_.in_use(); }
  /// p99 of everything recorded so far.
  double live_p99_us() const { return result_.p99_us(); }

  void on_fault(const fault::FaultEvent& ev) override;

 private:
  static constexpr std::uint32_t kNilSlot = 0xffff'ffffu;

  struct Request {
    ServeSim* sim = nullptr;
    des::SimTime arrival = 0;
    std::uint32_t frontend = 0;
    std::uint32_t shard = 0;
    std::uint32_t slot = 0;
    std::uint8_t failovers = 0;
  };

  struct Frontend {
    support::Random rng{0};             ///< LB sampling (re-seeded by split)
    std::unique_ptr<support::ArrivalProcess> arrivals;
    std::uint32_t rr_next = 0;          ///< round-robin cursor
    des::SimTime next_arrival = 0;
    std::uint32_t index = 0;
    ServeSim* sim = nullptr;
  };

  struct Shard {
    support::Random rng{0};             ///< service times (re-seeded by split)
    std::deque<std::uint32_t> queue;    ///< waiting request slots
    std::uint32_t in_service = kNilSlot;
    std::uint32_t outstanding = 0;      ///< dispatched, not yet responded
    std::uint64_t served = 0;
    des::EventId service_ev{};          ///< pending completion (fault cancel)
    bool up = true;
    bool accepting = true;              ///< admin drain flag (see set_shard_admin)
  };

  static void arrival_cb(void* ctx);
  static void request_landed_cb(void* ctx, fabric::XferStatus status);
  static void service_done_cb(void* ctx);
  static void response_landed_cb(void* ctx, fabric::XferStatus status);

  std::uint32_t pick_shard(Frontend& fe);
  void dispatch(Request& req);
  /// Failover or drop after a shard-side failure.
  void redispatch(Request& req);
  void start_service(std::uint32_t shard_idx);
  void complete(Request& req);
  void drop(Request& req);
  void reject(Request& req);

  ServeConfig cfg_;
  des::Engine engine_;
  std::unique_ptr<fabric::Topology> topo_;
  std::unique_ptr<fabric::SimNetwork> network_;
  std::unique_ptr<fault::Injector> injector_;

  std::vector<Frontend> frontends_;
  std::vector<Shard> shards_;

  /// Raw-callback contexts point at these records.
  support::SlabPool<Request> requests_;

  des::SimTime duration_ticks_ = 0;
  des::SimTime warmup_ticks_ = 0;
  des::SimTime bucket_ticks_ = 0;
  double load_factor_ = 1.0;
  std::size_t admission_limit_ = 0;  ///< 0 = unlimited

  ServeResult result_;
  bool ran_ = false;
};

/// Mirrors a result into a metrics registry under "serve.*".
void export_metrics(const ServeResult& r, obs::MetricsRegistry& reg);

}  // namespace polaris::serve
