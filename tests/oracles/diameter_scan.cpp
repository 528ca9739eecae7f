#include "polaris/fabric/diameter_scan.hpp"

#include <algorithm>

namespace polaris::fabric {

std::size_t scan_diameter(const Topology& topo, std::size_t max_nodes) {
  const std::size_t n = std::min(topo.node_count(), max_nodes);
  std::size_t d = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) d = std::max(d, topo.hop_count(a, b));
    }
  }
  return d;
}

}  // namespace polaris::fabric
