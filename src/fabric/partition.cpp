#include "polaris/fabric/partition.hpp"

#include "polaris/support/check.hpp"

namespace polaris::fabric {

Partition make_block_partition(std::size_t nodes,
                               const std::vector<std::size_t>& dims,
                               const FabricParams& params,
                               std::size_t shards) {
  POLARIS_CHECK_MSG(shards >= 1 && shards <= nodes,
                    "shard count must be in [1, node_count]");

  Partition p;
  p.shards = shards;
  p.first_node.resize(shards + 1);
  const std::size_t base = nodes / shards;
  const std::size_t rem = nodes % shards;
  NodeId at = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    p.first_node[s] = at;
    at += static_cast<NodeId>(base + (s < rem ? 1 : 0));
  }
  p.first_node[shards] = static_cast<NodeId>(nodes);

  // Grid topologies (tori) attach each host to its own switch: any
  // distinct-host path is host -> switch -> ... -> switch -> host with at
  // least two switch traversals.  Single-switch and tree fabrics can
  // connect two hosts through one shared edge switch.
  p.min_cut_switch_hops = dims.empty() ? 1 : 2;
  p.lookahead_s =
      params.path_latency(static_cast<int>(p.min_cut_switch_hops));
  return p;
}

}  // namespace polaris::fabric
