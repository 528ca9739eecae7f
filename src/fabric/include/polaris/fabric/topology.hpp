// Interconnect topologies.
//
// A topology maps (source host, destination host) to a deterministic path
// of directed links.  Hosts and switches are devices; every directed edge
// between adjacent devices is one LinkId, which the packet-level network
// model serializes independently (full-duplex links are two LinkIds).
//
// Provided topologies: single-switch crossbar, three-level k-ary fat tree
// (the Clos build of Myrinet/InfiniBand clusters), and the 2-D torus (the
// "mesh of commodity nodes" alternative).  Routing is deterministic —
// destination-mod uplink selection in the fat tree, dimension-order with
// shortest wrap in the torus — so simulations replay identically.
//
// Pairs with redundant fabric additionally expose their full *equal-cost
// minimal path set* (route_choices / route_k): every ECMP uplink+core
// combination in the fat tree, every dimension-traversal order in the
// torus.  One generator per topology, compute_route(src, dst, k), yields
// them all; choice 0 is the deterministic oblivious route, so a consumer
// that never asks for k > 0 sees exactly the historical paths.
// fabric::SimNetwork's adaptive routing mode picks among the alternates
// by live link occupancy.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace polaris::fabric {

using NodeId = std::uint32_t;    ///< host index, 0..node_count-1
using LinkId = std::uint32_t;    ///< directed link index
using DeviceId = std::uint32_t;  ///< host or switch

class Topology {
 public:
  virtual ~Topology() = default;

  virtual std::string name() const = 0;
  std::size_t node_count() const { return node_count_; }
  std::size_t link_count() const { return link_ends_.size(); }
  std::size_t switch_count() const { return switch_count_; }

  /// Directed link path from src to dst.  Empty for src == dst.
  /// The reference is stable for the topology's lifetime (the cache is a
  /// node-based map and never evicts), so the network model holds routes
  /// by pointer instead of copying them per message.
  const std::vector<LinkId>& route(NodeId src, NodeId dst) const;

  /// Equal-cost minimal paths the topology can enumerate for the pair
  /// (>= 1; exactly 1 for src == dst and for single-path topologies).
  virtual std::size_t route_choices(NodeId src, NodeId dst) const {
    (void)src;
    (void)dst;
    return 1;
  }

  /// The k-th equal-cost minimal path, k in [0, route_choices(src, dst)).
  /// Choice 0 is bit-identical to route() — the deterministic oblivious
  /// path — so callers that never ask for k > 0 replay historical traces
  /// exactly.  Same stable-reference contract as route().
  const std::vector<LinkId>& route_k(NodeId src, NodeId dst,
                                     std::size_t k) const;

  /// Number of links traversed (0 for self).
  std::size_t hop_count(NodeId src, NodeId dst) const {
    return route(src, dst).size();
  }

  /// Switch devices traversed between two distinct hosts (links - 1).
  std::size_t switch_hops(NodeId src, NodeId dst) const {
    const auto h = hop_count(src, dst);
    return h == 0 ? 0 : h - 1;
  }

  /// Diameter in links, exact at any scale: each topology supplies a
  /// closed form (the tests cross-check it against a brute-force scan at
  /// small n).
  virtual std::size_t diameter() const = 0;

  /// Grid extents for topologies whose hosts form a coordinate grid,
  /// innermost (fastest-varying in NodeId) dimension first: {w, h} for a
  /// 2-D torus.  Empty for non-grid topologies (crossbar, fat tree — whose
  /// natural NodeId order is already the locality hierarchy).  Consumers: the resource manager's
  /// locality-preserving linearization (polaris::rm).
  virtual std::vector<std::size_t> dims() const { return {}; }

 protected:
  Topology(std::size_t nodes, std::size_t switches)
      : node_count_(nodes), switch_count_(switches) {}

  /// Creates (or returns) the LinkId for directed edge u->v.  Constructors
  /// build the full link set eagerly; compute_route only looks links up.
  LinkId link(DeviceId u, DeviceId v);

  /// Looks up an existing directed link; throws if absent (routing bug).
  LinkId link_between(DeviceId u, DeviceId v) const;

  /// Subclasses produce the k-th path, k < route_choices(src, dst) (k = 0:
  /// the oblivious path); the base class caches it.
  virtual std::vector<LinkId> compute_route(NodeId src, NodeId dst,
                                            std::size_t k) const = 0;

  std::size_t node_count_;
  std::size_t switch_count_;

 private:
  // Two caches: route()'s (src, dst) key takes any host count, while the
  // (src, dst, k) packing of the k > 0 paths needs fewer than 2^24 hosts.
  mutable std::unordered_map<std::uint64_t, std::vector<LinkId>> route_cache_;
  mutable std::unordered_map<std::uint64_t, std::vector<LinkId>>
      alt_route_cache_;
  std::unordered_map<std::uint64_t, LinkId> link_ids_;
  std::vector<std::pair<DeviceId, DeviceId>> link_ends_;
};

/// All hosts attached to one ideal central switch.  The model for a single
/// large crossbar (or an optical switch's electronic control plane).
class Crossbar final : public Topology {
 public:
  explicit Crossbar(std::size_t nodes);
  std::string name() const override { return "crossbar"; }

  /// Any pair is host -> switch -> host.
  std::size_t diameter() const override { return 2; }

 private:
  std::vector<LinkId> compute_route(NodeId src, NodeId dst,
                                    std::size_t k) const override;
};

/// Three-level k-ary fat tree: k pods of k/2 edge + k/2 aggregation
/// switches, (k/2)^2 cores, k^3/4 hosts.  k must be even.
class FatTree final : public Topology {
 public:
  explicit FatTree(std::size_t k);
  std::string name() const override;

  std::size_t radix() const { return k_; }

  /// Cross-pod pairs exist for every even k >= 2, and the longest route is
  /// host-edge-agg-core-agg-edge-host: 6 links regardless of radix.
  std::size_t diameter() const override { return 6; }

  /// Smallest even k such that a k-ary fat tree holds >= nodes hosts.
  static std::size_t radix_for(std::size_t nodes);

  /// ECMP width: 1 under the same edge switch, k/2 aggregation choices
  /// within a pod, (k/2)^2 core choices across pods.
  std::size_t route_choices(NodeId src, NodeId dst) const override;

 private:
  std::vector<LinkId> compute_route(NodeId src, NodeId dst,
                                    std::size_t k) const override;

  // Device numbering helpers (hosts are 0..k^3/4-1).
  DeviceId edge_switch(std::size_t pod, std::size_t idx) const;
  DeviceId agg_switch(std::size_t pod, std::size_t idx) const;
  DeviceId core_switch(std::size_t idx) const;

  std::size_t k_;
};

/// 2-D torus, one host per router, dimension-order (x then y) routing with
/// shortest wraparound direction.
class Torus2D final : public Topology {
 public:
  Torus2D(std::size_t width, std::size_t height);
  std::string name() const override;

  /// Host injection + ejection links plus the worst-case shortest ring
  /// walk in each dimension.
  std::size_t diameter() const override { return 2 + w_ / 2 + h_ / 2; }

  std::vector<std::size_t> dims() const override { return {w_, h_}; }

  /// Minimal-adaptive width: 2 dimension orders (XY, YX) when both
  /// dimensions move, else the single dimension-order path.
  std::size_t route_choices(NodeId src, NodeId dst) const override;

 private:
  std::vector<LinkId> compute_route(NodeId src, NodeId dst,
                                    std::size_t k) const override;
  DeviceId router(std::size_t x, std::size_t y) const;

  std::size_t w_, h_;
};

/// Factory: builds the conventional topology for a fabric class and node
/// count — fat tree for switched fabrics, sized-up crossbar for tiny runs.
std::unique_ptr<Topology> make_default_topology(std::size_t nodes);

}  // namespace polaris::fabric
