#include "polaris/fabric/loggp.hpp"

#include <algorithm>

#include "polaris/support/check.hpp"

namespace polaris::fabric {

double LogGPParams::message_rate() const {
  const double bottleneck = std::max(g, o_s);
  POLARIS_CHECK(bottleneck > 0.0);
  return 1.0 / bottleneck;
}

LogGPParams extract_loggp(const FabricParams& p, int switch_hops) {
  POLARIS_CHECK(switch_hops >= 0);
  LogGPParams lg;
  lg.L = p.path_latency(switch_hops);
  lg.o_s = p.o_send;
  lg.o_r = p.o_recv;
  lg.g = p.gap;
  // Long-message per-byte cost: the wire, plus a staging copy per side on
  // kernel-path fabrics (send-side copy into socket buffers and recv-side
  // copy out are not overlapped with the wire in 2002-era stacks).
  double per_byte = 1.0 / p.link_bw;
  if (!p.os_bypass) {
    per_byte += 2.0 / p.copy_bw;
  }
  lg.G = per_byte;
  return lg;
}

}  // namespace polaris::fabric
