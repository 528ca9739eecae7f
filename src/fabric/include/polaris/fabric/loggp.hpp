// LogGP parameter extraction.
//
// LogGP (Alexandrov et al.) characterizes a messaging system by
//   L  — wire latency,
//   o  — CPU overhead per message (send/recv split here),
//   g  — minimum gap between messages (1/message-rate),
//   G  — gap per byte (1/bandwidth) for long messages.
// The user-level-messaging story of the talk is exactly a LogGP story:
// OS-bypass NICs collapse o and g by an order of magnitude while kernel
// fabrics are overhead-dominated regardless of wire speed.
#pragma once

#include "polaris/fabric/params.hpp"

namespace polaris::fabric {

struct LogGPParams {
  double L = 0.0;    ///< end-to-end wire+switch latency, seconds
  double o_s = 0.0;  ///< send overhead
  double o_r = 0.0;  ///< receive overhead
  double g = 0.0;    ///< inter-message gap
  double G = 0.0;    ///< per-byte gap (seconds/byte)

  /// Peak small-message rate: 1/max(g, o_s).
  double message_rate() const;

  /// Asymptotic bandwidth 1/G.
  double bandwidth() const { return 1.0 / G; }
};

/// Derives LogGP parameters for a fabric across `switch_hops` switches.
/// Kernel-path fabrics fold one staging copy per side into o (size-
/// dependent terms ride G via the min of wire and copy bandwidth).
LogGPParams extract_loggp(const FabricParams& p, int switch_hops = 1);

}  // namespace polaris::fabric
