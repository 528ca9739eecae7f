// Operating a 1024-node commodity cluster: resource management and fault
// recovery working together.
//
// Generates a synthetic month of job submissions, schedules it through
// rm::ResourceManager under FCFS, SJF and EASY backfill, then asks what
// the machine's failure behaviour means for its biggest jobs — system
// MTBF, detector settings, and the Daly checkpoint interval those jobs
// should use.
//
//   ./cluster_operations
#include <cmath>
#include <cstdio>
#include <iostream>

#include "polaris/des/engine.hpp"
#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/detector.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/table.hpp"
#include "polaris/support/units.hpp"
#include "polaris/workload/job_mix.hpp"

int main() {
  using namespace polaris;
  constexpr std::size_t kNodes = 1024;

  // -- resource management ---------------------------------------------------
  workload::MultiUserTraceConfig cfg;
  cfg.jobs = 8000;
  cfg.users = 1;
  cfg.accounts = 1;
  cfg.max_width_exp = 9;  // jobs up to 512 nodes
  cfg.mean_interarrival = 1900.0;  // offered load ~0.85
  const auto trace = workload::make_multi_user_trace(cfg, 2002);
  std::printf("synthetic trace: %zu jobs, offered load %.2f on %zu nodes\n\n",
              trace.size(), workload::offered_load(trace, kNodes), kNodes);

  support::Table st("scheduling policies on the same trace");
  st.header({"policy", "utilization", "mean wait", "p95 wait",
             "mean bounded slowdown", "backfilled"});
  for (auto policy :
       {rm::Policy::kFcfs, rm::Policy::kSjf, rm::Policy::kEasyBackfill}) {
    des::Engine engine;
    rm::ResourceManager manager(engine, kNodes,
                                rm::RmConfig::textbook(policy));
    for (const rm::JobSpec& j : trace) manager.submit(j);
    engine.run();
    const auto m = manager.summary();
    st.add(rm::to_string(policy),
           support::Table::to_cell(m.utilization),
           support::format_time(m.mean_wait),
           support::format_time(m.p95_wait),
           support::Table::to_cell(m.mean_bounded_slowdown),
           static_cast<unsigned long long>(m.backfilled));
  }
  st.print(std::cout);

  // -- fault recovery ----------------------------------------------------------
  const double node_mtbf = 5.0 * 365 * 86400.0;  // 5-year commodity node
  const double sys_mtbf = fault::system_mtbf_exponential(node_mtbf, kNodes);
  std::printf("\nnode MTBF 5 y  =>  %zu-node system MTBF: %s\n", kNodes,
              support::format_time(sys_mtbf).c_str());

  const auto dq = fault::evaluate_timeout_detector(
      /*period=*/1.0, /*jitter_sigma=*/0.8, /*timeout=*/4.0,
      /*heartbeats=*/100000, /*seed=*/7);
  std::printf("heartbeat detector (1 s period, 4 s timeout): "
              "%.2g false positives/heartbeat, %.1f s detection latency\n",
              dq.false_positive_rate, dq.detection_latency);

  fault::CheckpointConfig cc;
  cc.checkpoint_cost = 300.0;
  cc.restart_cost = 120.0;
  cc.system_mtbf = sys_mtbf;
  const double tau = fault::daly_interval(cc);
  std::printf("full-machine job: Daly checkpoint interval %s, "
              "efficiency %.1f%%\n",
              support::format_time(tau).c_str(),
              100.0 * fault::optimal_efficiency(cc));

  const double sim_eff =
      fault::simulate_efficiency(cc, tau, /*work=*/30 * 86400.0, /*seed=*/3);
  std::printf("Monte-Carlo check over a 30-day job: %.1f%% efficiency\n",
              100.0 * sim_eff);

  std::printf(
      "\nScale explosion (the talk's warning): the same job on future "
      "machines\n");
  support::Table ft("24 h of work vs machine scale (node MTBF 5 y)");
  ft.header({"nodes", "system MTBF", "no-ckpt wall", "Daly wall",
             "Daly interval"});
  for (std::size_t n : {128u, 1024u, 8192u, 65536u}) {
    const auto out =
        fault::wall_time_at_scale(86400.0, node_mtbf, n, 300.0, 120.0);
    ft.add(static_cast<unsigned long long>(n),
           support::format_time(out.system_mtbf_s),
           std::isinf(out.no_checkpoint_wall)
               ? std::string("never")
               : support::format_time(out.no_checkpoint_wall),
           support::format_time(out.daly_wall),
           support::format_time(out.daly_interval_s));
  }
  ft.print(std::cout);
  return 0;
}
