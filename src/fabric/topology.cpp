#include "polaris/fabric/topology.hpp"

#include <algorithm>

#include "polaris/support/check.hpp"

namespace polaris::fabric {

namespace {
std::uint64_t pair_key(DeviceId u, DeviceId v) {
  return (static_cast<std::uint64_t>(u) << 32) | v;
}
}  // namespace

const std::vector<LinkId>& Topology::route(NodeId src, NodeId dst) const {
  POLARIS_CHECK(src < node_count_ && dst < node_count_);
  const auto key = pair_key(src, dst);
  if (auto it = route_cache_.find(key); it != route_cache_.end()) {
    return it->second;
  }
  auto [it, inserted] = route_cache_.emplace(key, compute_route(src, dst, 0));
  return it->second;
}

const std::vector<LinkId>& Topology::route_k(NodeId src, NodeId dst,
                                             std::size_t k) const {
  if (k == 0) return route(src, dst);  // the oblivious path, shared cache
  POLARIS_CHECK(src < node_count_ && dst < node_count_);
  POLARIS_CHECK_MSG(k < route_choices(src, dst), "route choice out of range");
  // Alternate paths get their own cache keyed (src, dst, k).  24 bits per
  // node and 16 for k bound the packing; checked so growth past 16M hosts
  // fails loudly instead of aliasing.
  POLARIS_CHECK(node_count_ < (1u << 24) && k < (1u << 16));
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 40) |
                            (static_cast<std::uint64_t>(dst) << 16) |
                            static_cast<std::uint64_t>(k);
  if (auto it = alt_route_cache_.find(key); it != alt_route_cache_.end()) {
    return it->second;
  }
  auto [it, inserted] =
      alt_route_cache_.emplace(key, compute_route(src, dst, k));
  return it->second;
}

LinkId Topology::link(DeviceId u, DeviceId v) {
  POLARIS_CHECK_MSG(u != v, "self-links are not allowed");
  const auto key = pair_key(u, v);
  if (auto it = link_ids_.find(key); it != link_ids_.end()) return it->second;
  const auto id = static_cast<LinkId>(link_ends_.size());
  link_ids_.emplace(key, id);
  link_ends_.emplace_back(u, v);
  return id;
}

LinkId Topology::link_between(DeviceId u, DeviceId v) const {
  const auto it = link_ids_.find(pair_key(u, v));
  POLARIS_CHECK_MSG(it != link_ids_.end(),
                    "routing produced a non-existent link");
  return it->second;
}

// ------------------------------------------------------------------ Crossbar

Crossbar::Crossbar(std::size_t nodes) : Topology(nodes, 1) {
  POLARIS_CHECK(nodes >= 2);
  const DeviceId sw = static_cast<DeviceId>(nodes);  // the single switch
  for (DeviceId h = 0; h < nodes; ++h) {
    link(h, sw);
    link(sw, h);
  }
}

std::vector<LinkId> Crossbar::compute_route(NodeId src, NodeId dst,
                                            std::size_t /*k*/) const {
  if (src == dst) return {};
  const DeviceId sw = static_cast<DeviceId>(node_count_);
  return {link_between(src, sw), link_between(sw, dst)};
}

// ------------------------------------------------------------------- FatTree

FatTree::FatTree(std::size_t k)
    : Topology(k * k * k / 4, k * k + k * k / 4), k_(k) {
  POLARIS_CHECK_MSG(k >= 2 && k % 2 == 0, "fat-tree radix must be even");
  const std::size_t half = k / 2;
  // Hosts <-> edge switches.
  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      const DeviceId edge = edge_switch(pod, e);
      for (std::size_t h = 0; h < half; ++h) {
        const auto host = static_cast<DeviceId>(
            pod * half * half + e * half + h);
        link(host, edge);
        link(edge, host);
      }
      // Edge <-> aggregation within the pod (full bipartite).
      for (std::size_t a = 0; a < half; ++a) {
        const DeviceId agg = agg_switch(pod, a);
        link(edge, agg);
        link(agg, edge);
      }
    }
    // Aggregation <-> core: agg a connects to cores [a*half, (a+1)*half).
    for (std::size_t a = 0; a < half; ++a) {
      const DeviceId agg = agg_switch(pod, a);
      for (std::size_t c = 0; c < half; ++c) {
        const DeviceId core = core_switch(a * half + c);
        link(agg, core);
        link(core, agg);
      }
    }
  }
}

std::string FatTree::name() const {
  return "fat-tree-k" + std::to_string(k_);
}

std::size_t FatTree::radix_for(std::size_t nodes) {
  std::size_t k = 2;
  while (k * k * k / 4 < nodes) k += 2;
  return k;
}

DeviceId FatTree::edge_switch(std::size_t pod, std::size_t idx) const {
  return static_cast<DeviceId>(node_count_ + pod * (k_ / 2) + idx);
}

DeviceId FatTree::agg_switch(std::size_t pod, std::size_t idx) const {
  return static_cast<DeviceId>(node_count_ + k_ * (k_ / 2) + pod * (k_ / 2) +
                               idx);
}

DeviceId FatTree::core_switch(std::size_t idx) const {
  return static_cast<DeviceId>(node_count_ + 2 * k_ * (k_ / 2) + idx);
}

std::size_t FatTree::route_choices(NodeId src, NodeId dst) const {
  if (src == dst) return 1;
  const std::size_t half = k_ / 2;
  const std::size_t hosts_per_pod = half * half;
  if (src / hosts_per_pod != dst / hosts_per_pod) {
    return half * half;  // one path per core switch
  }
  if ((src % hosts_per_pod) / half != (dst % hosts_per_pod) / half) {
    return half;  // one path per aggregation switch in the pod
  }
  return 1;  // same edge switch: single two-link path
}

std::vector<LinkId> FatTree::compute_route(NodeId src, NodeId dst,
                                           std::size_t k) const {
  if (src == dst) return {};
  const std::size_t half = k_ / 2;
  const std::size_t hosts_per_pod = half * half;
  const std::size_t src_pod = src / hosts_per_pod;
  const std::size_t dst_pod = dst / hosts_per_pod;
  const std::size_t src_edge = (src % hosts_per_pod) / half;
  const std::size_t dst_edge = (dst % hosts_per_pod) / half;

  std::vector<LinkId> path;
  const DeviceId se = edge_switch(src_pod, src_edge);
  const DeviceId de = edge_switch(dst_pod, dst_edge);
  path.push_back(link_between(src, se));

  if (src_pod == dst_pod && src_edge == dst_edge) {
    path.push_back(link_between(se, dst));
    return path;
  }

  if (src_pod == dst_pod) {
    // The oblivious path takes aggregation switch dst % half, which
    // spreads flows by destination; choice k rotates off it.
    const DeviceId agg = agg_switch(src_pod, (dst % half + k) % half);
    path.push_back(link_between(se, agg));
    path.push_back(link_between(agg, de));
    path.push_back(link_between(de, dst));
    return path;
  }

  // Cross-pod: each core switch gives exactly one minimal path, and the
  // core determines the aggregation switch on both sides (core c hangs off
  // agg c / half in every pod).  The oblivious core sits in the uplink
  // group of agg dst % half; choice k rotates off it.
  const std::size_t base_core = (dst % half) * half + (dst / half) % half;
  const std::size_t core_idx = (base_core + k) % (half * half);
  const std::size_t agg_idx = core_idx / half;
  const DeviceId up_agg = agg_switch(src_pod, agg_idx);
  const DeviceId core = core_switch(core_idx);
  const DeviceId down_agg = agg_switch(dst_pod, agg_idx);
  path.push_back(link_between(se, up_agg));
  path.push_back(link_between(up_agg, core));
  path.push_back(link_between(core, down_agg));
  path.push_back(link_between(down_agg, de));
  path.push_back(link_between(de, dst));
  return path;
}

// -------------------------------------------------------------------- Torus2D

Torus2D::Torus2D(std::size_t width, std::size_t height)
    : Topology(width * height, width * height), w_(width), h_(height) {
  POLARIS_CHECK(width >= 2 && height >= 2);
  for (std::size_t y = 0; y < h_; ++y) {
    for (std::size_t x = 0; x < w_; ++x) {
      const DeviceId r = router(x, y);
      const auto host = static_cast<DeviceId>(y * w_ + x);
      link(host, r);
      link(r, host);
      const DeviceId xp = router((x + 1) % w_, y);
      const DeviceId yp = router(x, (y + 1) % h_);
      link(r, xp);
      link(xp, r);
      link(r, yp);
      link(yp, r);
    }
  }
}

std::string Torus2D::name() const {
  return "torus2d-" + std::to_string(w_) + "x" + std::to_string(h_);
}

DeviceId Torus2D::router(std::size_t x, std::size_t y) const {
  return static_cast<DeviceId>(node_count_ + y * w_ + x);
}

namespace {
/// Steps from a to b along a ring of size n, shortest direction.
/// Returns +1/-1 step and count.
std::pair<int, std::size_t> ring_steps(std::size_t a, std::size_t b,
                                       std::size_t n) {
  if (a == b) return {0, 0};
  const std::size_t fwd = (b + n - a) % n;
  const std::size_t bwd = n - fwd;
  if (fwd <= bwd) return {+1, fwd};
  return {-1, bwd};
}
}  // namespace

std::size_t Torus2D::route_choices(NodeId src, NodeId dst) const {
  if (src == dst) return 1;
  const bool moves_x = src % w_ != dst % w_;
  const bool moves_y = src / w_ != dst / w_;
  return (moves_x && moves_y) ? 2 : 1;
}

std::vector<LinkId> Torus2D::compute_route(NodeId src, NodeId dst,
                                           std::size_t k) const {
  if (src == dst) return {};
  std::size_t x = src % w_, y = src / w_;

  std::vector<LinkId> path;
  path.push_back(link_between(src, router(x, y)));
  // Walks one dimension to the destination's coordinate, shortest way
  // round its ring.
  const auto walk = [&](bool along_x) {
    std::size_t& at = along_x ? x : y;
    const std::size_t n = along_x ? w_ : h_;
    const auto [step, count] = ring_steps(at, along_x ? dst % w_ : dst / w_, n);
    for (std::size_t i = 0; i < count; ++i) {
      const DeviceId from = router(x, y);
      at = (at + n + static_cast<std::size_t>(step)) % n;
      path.push_back(link_between(from, router(x, y)));
    }
  };
  // Choice 0 is dimension order x then y; choice 1 its mirror, y then x.
  walk(k == 0);
  walk(k != 0);
  path.push_back(link_between(router(x, y), dst));
  return path;
}

std::unique_ptr<Topology> make_default_topology(std::size_t nodes) {
  POLARIS_CHECK(nodes >= 2);
  if (nodes <= 16) return std::make_unique<Crossbar>(nodes);
  return std::make_unique<FatTree>(FatTree::radix_for(nodes));
}

}  // namespace polaris::fabric
