#include "polaris/hw/cluster.hpp"

#include <cmath>

#include "polaris/support/check.hpp"

namespace polaris::hw {

double ClusterModel::peak_flops() const {
  return node.peak_flops * static_cast<double>(node_count);
}

double ClusterModel::memory_bytes() const {
  return node.mem_bytes * static_cast<double>(node_count);
}

double ClusterModel::cost_usd() const {
  const auto n = static_cast<double>(node_count);
  return n * (node.cost_usd + interconnect.cost_per_port_usd);
}

double ClusterModel::power_w() const {
  const auto n = static_cast<double>(node_count);
  return n * (node.power_w + interconnect.power_per_port_w);
}

double ClusterModel::racks() const {
  return std::ceil(static_cast<double>(node_count) / node.nodes_per_rack());
}

double ClusterModel::floor_area_m2() const { return racks() * 1.5; }

double ClusterModel::gflops_per_rack() const {
  if (node_count == 0) return 0.0;
  return peak_flops() / racks() / 1e9;
}

double ClusterModel::mflops_per_watt() const {
  return peak_flops() / power_w() / 1e6;
}

double ClusterModel::flops_per_dollar() const {
  return peak_flops() / cost_usd();
}

ClusterModel ClusterDesigner::fixed_size(NodeArch arch, double year,
                                         std::size_t node_count) const {
  POLARIS_CHECK(node_count > 0);
  ClusterModel c;
  c.node = nodes_.design(arch, year);
  c.node_count = node_count;
  c.interconnect = interconnect_;
  c.disk_bytes = nodes_.technology().at(year).disk_bytes_per_node *
                 static_cast<double>(node_count);
  return c;
}

ClusterModel ClusterDesigner::fixed_budget(NodeArch arch, double year,
                                           double budget_usd) const {
  POLARIS_CHECK(budget_usd > 0);
  NodeModel n = nodes_.design(arch, year);
  const double per_node = n.cost_usd + interconnect_.cost_per_port_usd;
  const auto count = static_cast<std::size_t>(budget_usd / per_node);
  POLARIS_CHECK_MSG(count > 0, "budget buys no nodes at this year");
  return fixed_size(arch, year, count);
}

}  // namespace polaris::hw
