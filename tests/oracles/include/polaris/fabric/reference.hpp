// Semaphore-reference replica of the packet-level network model.
//
// This is a faithful copy of the pre-two-tier SimNetwork data path: one
// spawned coroutine per packet, a des::Semaphore per directed link, a
// route-vector copy per packet, ~3 engine events plus two semaphore
// suspensions per hop per packet.  It exists for exactly two purposes:
//
//  1. Equivalence proof: tests/fabric drives randomized traffic through
//     both this model and SimNetwork on the same topologies and asserts
//     bit-identical simulated completion times (the two-tier engine is an
//     optimization, not a remodel).
//  2. Perf baseline: bench_d2_fabric measures messages/sec against this
//     model to record the data-path speedup in BENCH_FABRIC.json.
//
// It intentionally shares no code with SimNetwork so a bug in the new
// data path cannot hide in a shared helper.  The only deliberate updates
// from the historical code are semantic fixes that apply to both models:
// zero-byte transfers pay propagation only (no fake 1-byte serialization),
// and link busy time accumulates in integer ticks so equality checks are
// exact.  It lives in the test-only polaris_oracles library, which no
// library under src/ links.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/semaphore.hpp"
#include "polaris/des/task.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"

namespace polaris::fabric {

class ReferenceNetwork {
 public:
  static constexpr std::uint32_t kMaxPackets = SimNetwork::kMaxPackets;
  static constexpr std::size_t kCircuitsPerSource =
      SimNetwork::kCircuitsPerSource;

  ReferenceNetwork(des::Engine& engine, FabricParams params,
                   const Topology& topology);

  /// Same contract as SimNetwork::transfer.
  des::Task<void> transfer(NodeId src, NodeId dst, std::uint64_t bytes);

  const FabricParams& params() const { return params_; }
  des::Engine& engine() { return engine_; }
  const NetworkStats& stats() const { return stats_; }

  /// Busy seconds accumulated on one link (serialization occupancy).
  double link_busy_seconds(LinkId id) const;

 private:
  struct PacketPlan {
    std::uint32_t count;
    std::uint64_t bytes_per_packet;
  };
  PacketPlan plan_packets(std::uint64_t bytes) const;

  des::Task<void> send_packet(std::vector<LinkId> path,
                              std::uint64_t pkt_bytes);
  des::Task<void> ensure_circuit(NodeId src, NodeId dst);

  des::SimTime serialize_time(std::uint64_t bytes) const {
    return des::from_seconds(static_cast<double>(bytes) / params_.link_bw);
  }

  des::Engine& engine_;
  FabricParams params_;
  const Topology& topo_;
  std::vector<std::unique_ptr<des::Semaphore>> links_;
  std::vector<des::SimTime> link_busy_ticks_;
  NetworkStats stats_;

  // Same exact-LRU circuit cache as SimNetwork (hit/miss pattern must
  // match for the equivalence runs with circuit_setup > 0).
  struct CircuitCache {
    std::vector<NodeId> lru;  // front = most recent
  };
  std::vector<CircuitCache> circuits_;
};

}  // namespace polaris::fabric
