// Point-to-point transfer protocols.
//
// A user-level messaging layer moves a message one of three ways:
//   eager       — payload piggybacks on the envelope into a bounce buffer
//                 at the receiver; one extra copy, no handshake.  Wins for
//                 small messages (latency = one traversal).
//   rendezvous  — envelope-only request; receiver replies "ready" when the
//                 receive is posted; payload then moves zero-copy.  Wins
//                 for large messages (no copy, bounded buffer use).
//   rdma        — rendezvous variant where the payload moves by remote DMA
//                 with no receiver CPU involvement (requires NIC support
//                 and registered memory).
// choose_protocol() applies the per-fabric eager threshold and capability
// flags; cost_model() gives the closed-form time decomposition used by
// tests and the analytic baselines benchmarks print alongside simulation.
#pragma once

#include <cstdint>

#include "polaris/fabric/params.hpp"

namespace polaris::msg {

enum class Protocol {
  kEager,
  kRendezvous,
  kRdma,
};

/// Picks the protocol for a message of `bytes` on fabric `p`, with an
/// optional threshold override (0 = use the fabric default).
Protocol choose_protocol(const fabric::FabricParams& p, std::uint64_t bytes,
                         std::uint32_t eager_threshold_override = 0);

/// Closed-form one-way cost decomposition of a protocol on an idle fabric
/// across `switch_hops` switches.  The simulated runtime reproduces these
/// components dynamically; this is the analytic cross-check.
struct ProtocolCost {
  double send_overhead = 0.0;  ///< CPU at sender (o_send + copies)
  double wire = 0.0;           ///< serialization + propagation
  double recv_overhead = 0.0;  ///< CPU at receiver (o_recv + copies)
  double handshake = 0.0;      ///< rendezvous RTS/CTS round trip
  double registration = 0.0;   ///< pin-down on a cold cache

  double total() const {
    return send_overhead + wire + recv_overhead + handshake + registration;
  }
};

ProtocolCost cost_model(const fabric::FabricParams& p, Protocol proto,
                        std::uint64_t bytes, int switch_hops = 1,
                        bool registration_cached = true);

/// The message size at which rendezvous first beats eager on fabric `p`
/// (by the cost model); used to validate per-fabric eager thresholds.
std::uint64_t crossover_bytes(const fabric::FabricParams& p,
                              int switch_hops = 1);

}  // namespace polaris::msg
