// F3 — The user-level messaging story in LogGP terms.
//
// Extracts (L, o_s, o_r, g, G) for every fabric, prints message rates and
// predicted one-way times, the eager/rendezvous protocol crossovers, and
// the registration-cache ablation (pin-down cost amortized vs not).
#include <iostream>
#include <limits>

#include "polaris/fabric/loggp.hpp"
#include "polaris/msg/protocol.hpp"
#include "polaris/msg/reg_cache.hpp"
#include "polaris/support/table.hpp"
#include "polaris/support/units.hpp"

int main() {
  using namespace polaris;

  support::Table lg("F3a: LogGP parameters per fabric (1 switch hop)");
  lg.header({"fabric", "L", "o_send", "o_recv", "g", "G (ns/B)",
             "msg rate (/s)", "1/G"});
  for (const auto& p : fabric::fabrics::all()) {
    const auto x = fabric::extract_loggp(p, 1);
    lg.add(p.name, support::format_time(x.L), support::format_time(x.o_s),
           support::format_time(x.o_r), support::format_time(x.g),
           support::Table::to_cell(x.G * 1e9),
           support::Table::to_cell(x.message_rate()),
           support::format_rate(x.bandwidth()));
  }
  lg.print(std::cout);

  std::cout << "\n";
  support::Table co("F3b: protocol cost decomposition and eager/rendezvous "
                    "crossover");
  co.header({"fabric", "eager 1KiB", "eager 256KiB", "rdv/rdma 256KiB",
             "analytic crossover", "configured threshold"});
  for (const auto& p : fabric::fabrics::all()) {
    const auto e1 = msg::cost_model(p, msg::Protocol::kEager, 1024);
    const auto e256 = msg::cost_model(p, msg::Protocol::kEager, 256 * 1024);
    const auto big = p.rdma ? msg::Protocol::kRdma : msg::Protocol::kRendezvous;
    const auto r256 = msg::cost_model(p, big, 256 * 1024);
    const auto x = msg::crossover_bytes(p);
    co.add(p.name, support::format_time(e1.total()),
           support::format_time(e256.total()),
           support::format_time(r256.total()),
           x == std::numeric_limits<std::uint64_t>::max()
               ? std::string("never (kernel copies)")
               : support::format_bytes(x),
           support::format_bytes(p.eager_threshold));
  }
  co.print(std::cout);

  std::cout << "\n";
  support::Table rc("F3c: registration-cache ablation, 64 KiB rendezvous "
                    "send repeated 1000x");
  rc.header({"fabric", "no cache (s total)", "cached (s total)", "saving"});
  for (const auto& p : fabric::fabrics::all()) {
    if (!p.os_bypass || (p.reg_base == 0.0 && p.reg_per_page == 0.0)) {
      continue;
    }
    const auto big = p.rdma ? msg::Protocol::kRdma : msg::Protocol::kRendezvous;
    const double uncached =
        1000.0 * msg::cost_model(p, big, 64 * 1024, 1,
                                 /*registration_cached=*/false)
                     .registration;
    msg::RegistrationCache cache(64u << 20, p.reg_base, p.reg_per_page);
    double cached = 0.0;
    for (int i = 0; i < 1000; ++i) {
      cached += 2.0 * cache.acquire(0x100000, 64 * 1024);
    }
    rc.add(p.name, support::Table::to_cell(uncached),
           support::Table::to_cell(cached),
           support::Table::to_cell(uncached / std::max(cached, 1e-12)));
  }
  rc.print(std::cout);

  std::cout << "\nShape: OS-bypass collapses o and g by an order of "
               "magnitude; kernel fabrics\nnever profit from rendezvous "
               "(copies dominate); the pin-down cache turns\nper-message "
               "registration into a one-time cost.\n";
  return 0;
}
