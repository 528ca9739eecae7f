// Shard partitioning of a simulated machine for parallel DES.
//
// A partition assigns every host (rank + NIC) to exactly one shard; shard
// boundaries cut only fabric links, never a host's attachment to its NIC.
// The cut links are what make conservative parallel simulation work: any
// cross-shard interaction must traverse at least one switch hop of
// simulated fabric, so a message generated at time t cannot take effect on
// another shard before t + lookahead, and every shard may safely simulate
// a window of that width without hearing from its peers.
//
// The lookahead is derived from the fabric parameters, not configured: the
// minimum cross-shard path is min_cut_switch_hops switch traversals, and
// path_latency() of that hop count is wire physics no message can beat.
// Host-side overheads (o_send) are deliberately excluded — NACKs generated
// at a dead node's NIC pay wire latency only, and the bound must cover
// them too.
//
// ShardHandoff is the serialized form a cross-shard message takes on an
// rt::SpscRing between shard workers: a fixed-size trivially-copyable
// record, so channels never allocate and a push is a 40-byte store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"

namespace polaris::fabric {

/// What a cross-shard handoff record carries.
enum class HandoffKind : std::uint8_t {
  kPayload = 0,  ///< application bytes arriving at dst
  kNack = 1,     ///< delivery failure report returning to src
};

/// One cross-shard message on the wire between shard workers.  Timestamped
/// with its simulated *arrival* time at the destination host; `seq` is the
/// sender-channel sequence number that (with src/phase/kind) makes the
/// destination's ingestion order canonical regardless of shard count.
struct ShardHandoff {
  std::int64_t t = 0;        ///< arrival time at dst, engine ticks
  std::uint64_t bytes = 0;   ///< payload size (0 for control)
  std::uint32_t src = 0;     ///< originating rank (global NodeId)
  std::uint32_t dst = 0;     ///< destination rank (global NodeId)
  std::uint32_t phase = 0;   ///< sender's program phase when issued
  std::uint32_t seq = 0;     ///< per-channel sequence number
  std::uint8_t kind = 0;     ///< HandoffKind
  std::uint8_t status = 0;   ///< XferStatus payload for kNack
  std::uint8_t lane = 0;     ///< app-defined sub-channel (halo direction)
  std::uint8_t pad[5] = {};  ///< explicit tail padding
};
static_assert(sizeof(ShardHandoff) == 40, "handoff record layout drifted");
static_assert(std::is_trivially_copyable_v<ShardHandoff>,
              "handoffs must memcpy across ring channels");

/// A block partition of a topology's hosts into contiguous shards.
struct Partition {
  std::size_t shards = 1;
  /// first_node[s] .. first_node[s+1]-1 are shard s's hosts
  /// (first_node.size() == shards + 1, last entry == node_count).
  std::vector<NodeId> first_node;
  /// Ordered host pairs split across shards (diagnostic: how much of the
  /// machine's pairwise traffic could cross a boundary).
  std::uint64_t cut_host_pairs = 0;
  /// Minimum switch hops on any cross-shard host-to-host path.
  std::size_t min_cut_switch_hops = 1;
  /// Conservative window width: no cross-shard effect can occur sooner
  /// than this after its cause (seconds).
  double lookahead_s = 0.0;

  std::size_t shard_of(NodeId n) const {
    // Shards are contiguous and near-equal: jump to the estimate, then
    // correct by at most one step (remainder ranks skew block sizes by 1).
    const std::size_t total = first_node.back();
    std::size_t s = static_cast<std::size_t>(n) * shards / total;
    while (n < first_node[s]) --s;
    while (n >= first_node[s + 1]) ++s;
    return s;
  }

  std::size_t shard_size(std::size_t s) const {
    return first_node[s + 1] - first_node[s];
  }
};

/// Splits `nodes` hosts into `shards` contiguous near-equal blocks and
/// derives the conservative lookahead from `params`.  Contiguous NodeId
/// blocks follow each topology's locality order (rows of a torus, pods of
/// a fat tree), so boundary cuts are a small fraction of traffic for
/// neighbor-dominated workloads.  `dims` are the grid extents
/// (Topology::dims(); empty = single-switch/tree-style fabric).  The
/// machine is described by host count and extents, not a Topology: the
/// million-node pdes configurations use this, and instantiating a real
/// Topology eagerly builds every link's hash-map entry, which at 10^6
/// hosts costs gigabytes for routes the closed-form model never walks.
Partition make_block_partition(std::size_t nodes,
                               const std::vector<std::size_t>& dims,
                               const FabricParams& params,
                               std::size_t shards);

}  // namespace polaris::fabric
