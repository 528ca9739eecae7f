// Commodity fabric parameter sets.
//
// Each FabricParams instance describes one interconnect generation of the
// 2002 commodity-cluster landscape, split into wire-side parameters (used
// by the packet-level network model) and host-side parameters (used by the
// user-level messaging layer: CPU overheads, OS-bypass and RDMA capability,
// copy and registration costs).  Preset values follow contemporaneous
// published microbenchmarks (netperf/NetPIPE/Pallas-class measurements of
// the era), rounded — see DESIGN.md for the substitution rationale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace polaris::fabric {

struct FabricParams {
  std::string name;

  // -- wire side ------------------------------------------------------------
  double link_bw = 125e6;        ///< per-link bandwidth, bytes/s
  double wire_latency = 100e-9;  ///< per-link propagation, seconds
  double switch_latency = 1e-6;  ///< per-switch-hop forwarding delay
  std::uint32_t mtu = 1500;      ///< packet payload size

  // -- host / NIC side -------------------------------------------------------
  double o_send = 10e-6;   ///< CPU time consumed to issue a send
  double o_recv = 10e-6;   ///< CPU time consumed to land a receive
  double gap = 12e-6;      ///< minimum inter-message gap (1/message-rate)
  bool os_bypass = false;  ///< user-level NIC access (no kernel crossing)
  bool rdma = false;       ///< remote DMA: zero-copy rendezvous payloads
  double copy_bw = 1.0e9;  ///< host memcpy bandwidth for staging copies

  /// Memory registration (pin-down) cost: base + per-4KiB-page component.
  /// Zero for fabrics whose NIC does not require registration.
  double reg_base = 0.0;
  double reg_per_page = 0.0;

  /// Optical circuit switching: time to establish a light path on circuit
  /// miss.  Zero for packet-switched fabrics.
  double circuit_setup = 0.0;

  /// Default eager/rendezvous protocol crossover used by the msg layer.
  std::uint32_t eager_threshold = 16 * 1024;

  /// End-to-end zero-byte one-way latency over `hops` switch hops,
  /// excluding host overheads (wire + switching only).
  double path_latency(int hops) const {
    return wire_latency * static_cast<double>(hops + 1) +
           switch_latency * static_cast<double>(hops);
  }
};

/// The five commodity fabrics of the talk's networking discussion, plus
/// QsNet as the contemporaneous high-end reference point.
namespace fabrics {

FabricParams fast_ethernet();   ///< 100 Mb/s, kernel TCP path
FabricParams gig_ethernet();    ///< 1 Gb/s, kernel TCP path
FabricParams myrinet2000();     ///< 2 Gb/s, user-level (GM-style)
FabricParams quadrics_qsnet();  ///< 3.2 Gb/s, user-level w/ RDMA (Elan3)
FabricParams infiniband_4x();   ///< 8 Gb/s data, user-level w/ RDMA
FabricParams optical_ocs();     ///< 10 Gb/s optical circuit switch

/// All presets in the order benchmarks report them.
std::vector<FabricParams> all();

/// Looks a preset up by name; throws on unknown name.
FabricParams by_name(const std::string& name);

}  // namespace fabrics
}  // namespace polaris::fabric
