#include "polaris/msg/protocol.hpp"

#include <limits>

#include "polaris/support/check.hpp"

namespace polaris::msg {

Protocol choose_protocol(const fabric::FabricParams& p, std::uint64_t bytes,
                         std::uint32_t eager_threshold_override) {
  const std::uint32_t threshold = eager_threshold_override != 0
                                      ? eager_threshold_override
                                      : p.eager_threshold;
  if (bytes <= threshold) return Protocol::kEager;
  return p.rdma ? Protocol::kRdma : Protocol::kRendezvous;
}

namespace {

double wire_time(const fabric::FabricParams& p, std::uint64_t bytes,
                 int switch_hops) {
  return p.path_latency(switch_hops) + static_cast<double>(bytes) / p.link_bw;
}

double registration_cost(const fabric::FabricParams& p, std::uint64_t bytes) {
  if (p.reg_base == 0.0 && p.reg_per_page == 0.0) return 0.0;
  const double pages = static_cast<double>((bytes + 4095) / 4096);
  // Both sides pin their buffer.
  return 2.0 * (p.reg_base + p.reg_per_page * pages);
}

}  // namespace

ProtocolCost cost_model(const fabric::FabricParams& p, Protocol proto,
                        std::uint64_t bytes, int switch_hops,
                        bool registration_cached) {
  POLARIS_CHECK(switch_hops >= 0);
  const double copy = static_cast<double>(bytes) / p.copy_bw;
  const double rtt_small =
      2.0 * (p.o_send + p.path_latency(switch_hops) + p.o_recv);

  ProtocolCost c;
  c.wire = wire_time(p, bytes, switch_hops);
  switch (proto) {
    case Protocol::kEager:
      // Copy into the injection/bounce path at both ends; bounce buffers
      // are pre-registered so no pin-down charge.
      c.send_overhead = p.o_send + copy;
      c.recv_overhead = p.o_recv + copy;
      break;
    case Protocol::kRendezvous:
      c.handshake = rtt_small;
      c.send_overhead = p.o_send;
      c.recv_overhead = p.o_recv;
      if (!p.os_bypass) {
        // Kernel path cannot avoid socket-buffer copies even after the
        // handshake.
        c.send_overhead += copy;
        c.recv_overhead += copy;
      } else if (!registration_cached) {
        c.registration = registration_cost(p, bytes);
      }
      break;
    case Protocol::kRdma:
      POLARIS_CHECK_MSG(p.rdma, "RDMA protocol on a non-RDMA fabric");
      c.handshake = rtt_small;
      c.send_overhead = p.o_send;
      c.recv_overhead = 0.0;  // payload lands with no receiver CPU
      if (!registration_cached) {
        c.registration = registration_cost(p, bytes);
      }
      break;
  }
  return c;
}

std::uint64_t crossover_bytes(const fabric::FabricParams& p,
                              int switch_hops) {
  const Protocol big = p.rdma ? Protocol::kRdma : Protocol::kRendezvous;
  std::uint64_t lo = 1;
  std::uint64_t hi = 1ull << 30;
  const auto wins = [&](std::uint64_t k) {
    return cost_model(p, big, k, switch_hops).total() <
           cost_model(p, Protocol::kEager, k, switch_hops).total();
  };
  if (!wins(hi)) return std::numeric_limits<std::uint64_t>::max();
  if (wins(lo)) return lo;
  while (lo + 1 < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (wins(mid) ? hi : lo) = mid;
  }
  return hi;
}

}  // namespace polaris::msg
