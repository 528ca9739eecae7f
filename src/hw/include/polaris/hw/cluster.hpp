// Cluster composition: nodes + racks + interconnect => the system-level
// performance / capacity / power / size / cost figures of merit the talk
// projects.
#pragma once

#include <cstddef>

#include "polaris/hw/node.hpp"

namespace polaris::hw {

/// Per-port interconnect cost/power model (switch share + NIC + cable).
struct InterconnectCost {
  double cost_per_port_usd = 150.0;  ///< GigE-class commodity default
  double power_per_port_w = 10.0;
};

/// A fully composed cluster design and its figures of merit.
struct ClusterModel {
  NodeModel node;
  std::size_t node_count = 0;
  InterconnectCost interconnect;

  double peak_flops() const;
  double memory_bytes() const;
  double disk_bytes = 0.0;  ///< filled by the designer
  double cost_usd() const;
  double power_w() const;
  double racks() const;           ///< 42U racks occupied (nodes only)
  double floor_area_m2() const;   ///< ~1.5 m^2 per rack incl. service aisle
  double gflops_per_rack() const;
  double mflops_per_watt() const;
  double flops_per_dollar() const;
};

/// Composes cluster designs from node models, by node count or by budget.
class ClusterDesigner {
 public:
  explicit ClusterDesigner(NodeDesigner nodes = NodeDesigner(),
                           InterconnectCost interconnect = {})
      : nodes_(std::move(nodes)), interconnect_(interconnect) {}

  /// A cluster of exactly `node_count` nodes of `arch` at `year`.
  ClusterModel fixed_size(NodeArch arch, double year,
                          std::size_t node_count) const;

  /// The largest cluster of `arch` nodes purchasable for `budget_usd` at
  /// `year` (interconnect ports included in the budget).
  ClusterModel fixed_budget(NodeArch arch, double year,
                            double budget_usd) const;

  const NodeDesigner& nodes() const { return nodes_; }

 private:
  NodeDesigner nodes_;
  InterconnectCost interconnect_;
};

}  // namespace polaris::hw
