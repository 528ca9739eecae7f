#include "polaris/fabric/reference.hpp"

#include <algorithm>
#include <utility>

#include "polaris/des/sync.hpp"
#include "polaris/support/check.hpp"

namespace polaris::fabric {

ReferenceNetwork::ReferenceNetwork(des::Engine& engine, FabricParams params,
                                   const Topology& topology)
    : engine_(engine), params_(std::move(params)), topo_(topology) {
  POLARIS_CHECK(params_.link_bw > 0 && params_.mtu > 0);
  links_.reserve(topo_.link_count());
  for (std::size_t i = 0; i < topo_.link_count(); ++i) {
    links_.push_back(std::make_unique<des::Semaphore>(engine_, 1));
  }
  link_busy_ticks_.assign(topo_.link_count(), 0);
  if (params_.circuit_setup > 0.0) {
    circuits_.resize(topo_.node_count());
  }
}

ReferenceNetwork::PacketPlan ReferenceNetwork::plan_packets(
    std::uint64_t bytes) const {
  if (bytes == 0) return {1, 0};
  PacketPlan plan;
  const std::uint64_t raw = (bytes + params_.mtu - 1) / params_.mtu;
  plan.count = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(raw, 1, kMaxPackets));
  plan.bytes_per_packet = (bytes + plan.count - 1) / plan.count;
  return plan;
}

des::Task<void> ReferenceNetwork::transfer(NodeId src, NodeId dst,
                                           std::uint64_t bytes) {
  POLARIS_CHECK(src < topo_.node_count() && dst < topo_.node_count());
  ++stats_.messages;
  stats_.bytes += bytes;

  if (src == dst) {
    const double t = static_cast<double>(bytes) / params_.copy_bw;
    co_await des::delay(engine_, des::from_seconds(t));
    co_return;
  }

  if (params_.circuit_setup > 0.0) {
    co_await ensure_circuit(src, dst);
  }

  const std::vector<LinkId> path = topo_.route(src, dst);  // copy: coroutine
  const PacketPlan plan = plan_packets(bytes);
  stats_.packets += plan.count;

  // One sub-process per packet; they pipeline through the per-link FIFO
  // semaphores.  `remaining`/`done` live in this frame, which outlives the
  // packets because we await `done` below; this coroutine is its only
  // waiter.
  std::uint32_t remaining = plan.count;
  des::OneShotEvent done;
  for (std::uint32_t i = 0; i < plan.count; ++i) {
    engine_.spawn([](ReferenceNetwork& net, std::vector<LinkId> p,
                     std::uint64_t pkt, std::uint32_t& rem,
                     des::OneShotEvent& join) -> des::Task<void> {
      co_await net.send_packet(std::move(p), pkt);
      if (--rem == 0) join.fire(net.engine());
    }(*this, path, plan.bytes_per_packet, remaining, done));
  }
  co_await done.wait();
}

des::Task<void> ReferenceNetwork::send_packet(std::vector<LinkId> path,
                                              std::uint64_t pkt_bytes) {
  const des::SimTime ser = serialize_time(pkt_bytes);
  const auto hops = path.size();
  for (std::size_t j = 0; j < hops; ++j) {
    const LinkId l = path[j];
    co_await links_[l]->acquire();
    co_await des::delay(engine_, ser);
    links_[l]->release();
    link_busy_ticks_[l] += ser;
    stats_.total_link_busy_s += des::to_seconds(ser);
    // Propagation: wire always; switch forwarding except after final link.
    double prop = params_.wire_latency;
    if (j + 1 < hops) prop += params_.switch_latency;
    co_await des::delay(engine_, des::from_seconds(prop));
  }
}

des::Task<void> ReferenceNetwork::ensure_circuit(NodeId src, NodeId dst) {
  CircuitCache& cache = circuits_[src];
  if (const auto it = std::find(cache.lru.begin(), cache.lru.end(), dst);
      it != cache.lru.end()) {
    cache.lru.erase(it);
    cache.lru.insert(cache.lru.begin(), dst);
    ++stats_.circuit_hits;
    co_return;
  }
  ++stats_.circuit_misses;
  cache.lru.insert(cache.lru.begin(), dst);
  if (cache.lru.size() > kCircuitsPerSource) cache.lru.pop_back();
  co_await des::delay(engine_, des::from_seconds(params_.circuit_setup));
}

double ReferenceNetwork::link_busy_seconds(LinkId id) const {
  POLARIS_CHECK(id < link_busy_ticks_.size());
  return des::to_seconds(link_busy_ticks_[id]);
}

}  // namespace polaris::fabric
