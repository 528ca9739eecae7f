// Brute-force topology diameter: the small-n cross-check of each
// topology's closed-form Topology::diameter().
#pragma once

#include <cstddef>

#include "polaris/fabric/topology.hpp"

namespace polaris::fabric {

/// Longest route, in links, between any two of the first `max_nodes`
/// hosts.  Exact only when topo.node_count() <= max_nodes.
std::size_t scan_diameter(const Topology& topo, std::size_t max_nodes = 128);

}  // namespace polaris::fabric
