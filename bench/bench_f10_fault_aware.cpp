// F10 — Scheduling and fault recovery operating together: goodput of a
// failing machine with and without checkpointing, as scale explodes.
//
// The integrated form of the talk's system-software thesis: at small scale
// the two curves coincide (failures are rare); as the machine grows, the
// no-checkpoint goodput collapses (every kill restarts a long job from
// scratch) while Daly-interval checkpointing gives most of the machine
// back to the users.
//
// rm::ResourceManager runs the trace under EASY backfill; node crashes come
// from a FailureTimeline through fault::Injector, so a crash kills whichever
// job holds the node.  Exits non-zero when the shape does not hold.
#include <cstdint>
#include <iostream>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/des/time.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/checkpoint.hpp"
#include "polaris/fault/failure.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/support/table.hpp"
#include "polaris/support/units.hpp"
#include "polaris/workload/job_mix.hpp"

namespace {

using namespace polaris;

constexpr double kNodeMtbf = 0.5 * 365 * 86400.0;
constexpr double kRepair = 3600.0;

struct Outcome {
  std::uint64_t failures = 0;
  std::uint64_t kills = 0;
  double goodput = 0.0;         ///< trace work / (nodes * makespan)
  double waste_per_node = 0.0;  ///< lost node-seconds / nodes
};

Outcome run(std::vector<rm::JobSpec> jobs, std::uint32_t nodes,
            bool checkpointing) {
  des::Engine engine;
  fabric::Crossbar topo(nodes);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);
  rm::ResourceManager manager(
      engine, nodes, rm::RmConfig::textbook(rm::Policy::kEasyBackfill));
  manager.attach_injector(injector);

  double work = 0.0;
  for (rm::JobSpec& j : jobs) {
    if (checkpointing) {
      // A job dies when one of ITS nodes dies: its Daly interval comes
      // from its own width-scaled MTBF, not the whole machine's.
      fault::CheckpointConfig cc;  // 300 s checkpoints
      cc.system_mtbf = fault::system_mtbf_exponential(kNodeMtbf, j.width);
      j.checkpoint_interval = fault::daly_interval(cc);
      j.checkpoint_cost = cc.checkpoint_cost;
    }
    work += j.runtime * j.width;
    manager.submit(j);
  }
  fault::FailureTimeline timeline(fault::FailureModel::exponential(kNodeMtbf),
                                  nodes, /*seed=*/2002);
  // Crashes are loaded a day at a time until the last job completes.
  for (double horizon = 86400.0;
       manager.accounting().totals().completed < jobs.size();
       horizon += 86400.0) {
    injector.load_node_timeline(timeline, horizon, kRepair);
    engine.run_until(des::from_seconds(horizon));
  }

  const rm::AccountingStore::Totals t = manager.accounting().totals();
  Outcome out;
  out.failures = injector.crashes();
  out.kills = t.requeues;
  out.goodput = work / (nodes * manager.summary().makespan);
  out.waste_per_node = t.wasted_node_seconds / nodes;
  return out;
}

}  // namespace

int main() {
  support::Table t("F10: goodput on a failing machine (node MTBF 0.5 y, "
                   "1 h repair, 1-4 day jobs, load ~0.8)");
  t.header({"nodes", "failures", "kills naked", "kills ckpt",
            "goodput naked", "goodput ckpt", "waste/node naked",
            "waste/node ckpt"});

  std::vector<Outcome> naked, ckpt;
  for (std::uint32_t nodes : {64u, 256u, 1024u, 4096u}) {
    workload::MultiUserTraceConfig tc;
    tc.jobs = 600;
    tc.users = 1;
    tc.accounts = 1;
    tc.max_width_exp = 5;  // up to 32-node jobs
    tc.min_runtime = 24.0 * 3600.0;
    tc.max_runtime = 96.0 * 3600.0;
    // Scale arrivals so offered load stays ~0.8 as the machine grows.
    tc.mean_interarrival = 2.75e6 / static_cast<double>(nodes);
    const auto jobs = workload::make_multi_user_trace(tc, 77);

    naked.push_back(run(jobs, nodes, false));
    ckpt.push_back(run(jobs, nodes, true));
    const Outcome& mn = naked.back();
    const Outcome& mc = ckpt.back();
    t.add(static_cast<unsigned long long>(nodes),
          static_cast<unsigned long long>(mn.failures),
          static_cast<unsigned long long>(mn.kills),
          static_cast<unsigned long long>(mc.kills),
          support::Table::to_cell(mn.goodput),
          support::Table::to_cell(mc.goodput),
          support::format_time(mn.waste_per_node),
          support::format_time(mc.waste_per_node));
  }
  t.print(std::cout);

  std::cout << "\nShape: failures scale with node count; without "
               "checkpointing, each kill\nrestarts a day-scale job from "
               "zero and goodput collapses with scale;\nDaly checkpointing "
               "bounds the loss per failure to one interval and holds\n"
               "goodput — the management software carrying the burden, as "
               "the talk says.\n";

  const bool collapses = naked.front().goodput - naked.back().goodput >= 0.3;
  const bool ckpt_holds = ckpt.back().goodput - naked.back().goodput >= 0.04;
  const bool less_waste =
      naked.back().waste_per_node >= 4.0 * ckpt.back().waste_per_node;
  if (!(collapses && ckpt_holds && less_waste)) {
    std::cerr << "F10 shape violated: naked goodput must fall >= 0.3 from 64 "
                 "to 4096 nodes, checkpointing must beat it by >= 0.04 and "
                 "waste >= 4x less per node at 4096 nodes\n";
    return 1;
  }
  return 0;
}
