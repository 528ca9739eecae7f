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
// What crosses a cut, and how, is the simulator's business: pdes hands its
// own delivery records between shards (pdes/engine.hpp).
#pragma once

#include <cstddef>
#include <vector>

#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"

namespace polaris::fabric {

/// A block partition of a topology's hosts into contiguous shards.
struct Partition {
  std::size_t shards = 1;
  /// first_node[s] .. first_node[s+1]-1 are shard s's hosts
  /// (first_node.size() == shards + 1, last entry == node_count).
  std::vector<NodeId> first_node;
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
