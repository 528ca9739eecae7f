// D5: the live resource manager — decision cost, placement quality,
// crash determinism.
//
// Three experiments, emitted to BENCH_RM.json:
//
//   1. Decision cost: the same saturating multi-user trace at growing job
//      counts (100x apart) through the EASY-backfill manager.  Amortized
//      wall-clock per job must stay flat — the rate-limited backfill and
//      the O(1) queue are what keep a 10^6-job backlog from going
//      quadratic.  `decision.flatness_ratio` is max/min us-per-job across
//      the sizes; CI asserts it stays under 2.
//   2. Placement quality: a 64-rank halo2d stencil on a 16x16 torus,
//      once on the contiguous 8x8 brick the BlockAllocator hands out and
//      once on a deliberately scattered stride placement.  Both runs use
//      the full simulated fabric, so the speedup is earned hop by hop.
//   3. Crash determinism: a seeded 120-job trace with six node crashes
//      sweeping the machine.  Every job must complete (requeue + eventual
//      replacement allocation), and two same-seed runs must produce
//      byte-identical accounting ledgers.
//
// Experiment 1 is wall-clock and scales its largest size down under
// POLARIS_BENCH_BUDGET_MS; 2 and 3 are pure simulation and always run in
// full.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/support/table.hpp"
#include "polaris/support/units.hpp"
#include "polaris/workload/apps.hpp"
#include "polaris/workload/job_mix.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------- decision cost

struct DecisionPoint {
  std::size_t jobs = 0;
  double us_per_job = 0.0;
  double jobs_per_sec = 0.0;
  std::uint64_t decision_passes = 0;
  std::uint64_t backfill_cycles = 0;
  std::uint64_t backfilled = 0;
};

// A burst trace: arrivals far faster than the drain rate, so the queue
// depth grows to the order of the job count and every decision runs
// against a deep backlog.
DecisionPoint decision_cost(std::size_t jobs) {
  constexpr std::size_t kNodes = 1024;
  workload::MultiUserTraceConfig tc;
  tc.jobs = jobs;
  tc.users = 32;
  tc.accounts = 4;
  tc.mean_interarrival = 1.0;  // ~1000x faster than the drain rate
  tc.max_width_exp = 6;        // widths <= 64
  tc.min_runtime = 60.0;
  tc.max_runtime = 3600.0;
  const std::vector<rm::JobSpec> specs = workload::make_multi_user_trace(tc, 42);

  des::Engine engine;
  rm::RmConfig cfg;  // EASY, default rate limit
  rm::ResourceManager manager(engine, kNodes, cfg);
  for (const rm::JobSpec& s : specs) manager.submit(s);

  const double t0 = wall_seconds();
  engine.run();
  const double elapsed = wall_seconds() - t0;

  const rm::ResourceManager::Summary sum = manager.summary();
  if (sum.completed != jobs) {
    std::cerr << "decision_cost(" << jobs << "): only " << sum.completed
              << " jobs completed\n";
    std::exit(1);
  }
  DecisionPoint p;
  p.jobs = jobs;
  p.us_per_job = elapsed / static_cast<double>(jobs) * 1e6;
  p.jobs_per_sec = static_cast<double>(jobs) / elapsed;
  p.decision_passes = manager.decision_passes();
  p.backfill_cycles = manager.backfill_cycles();
  p.backfilled = sum.backfilled;
  return p;
}

// ---------------------------------------------------- placement quality

struct PlacementResult {
  double time_s = 0.0;
  double comm_fraction = 0.0;
  std::size_t fragments = 0;
};

PlacementResult run_halo(const std::vector<fabric::NodeId>& nodes,
                         std::size_t fragments) {
  constexpr std::size_t kRanks = 64;
  workload::Halo2DConfig cfg;
  cfg.iterations = 10;
  workload::AppResult res;
  simrt::SimWorld world(kRanks, fabric::fabrics::myrinet2000(),
                        std::make_unique<fabric::Torus2D>(16, 16));
  world.set_placement(nodes);
  world.launch(workload::make_halo2d(cfg, kRanks, &res));
  world.run();
  PlacementResult out;
  out.time_s = res.elapsed;
  out.comm_fraction = res.comm_fraction;
  out.fragments = fragments;
  return out;
}

// ------------------------------------------------------ crash determinism

struct CrashResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t jobs = 0;
  std::uint64_t completed = 0;
  std::uint64_t requeues = 0;
  double wasted_node_seconds = 0.0;
};

CrashResult crashy_run(std::uint64_t seed) {
  des::Engine engine;
  fabric::Torus2D topo(4, 4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  fault::Injector injector(engine, net);

  rm::RmConfig cfg;
  cfg.backfill_interval = 15.0;
  rm::ResourceManager manager(engine, topo, cfg);
  manager.attach_injector(injector);

  workload::MultiUserTraceConfig tc;
  tc.jobs = 120;
  tc.users = 4;
  tc.accounts = 2;
  tc.mean_interarrival = 200.0;
  tc.max_width_exp = 3;  // widths <= 8 on 16 nodes
  tc.min_runtime = 100.0;
  tc.max_runtime = 2000.0;
  for (const rm::JobSpec& s : workload::make_multi_user_trace(tc, seed)) {
    manager.submit(s);
  }
  for (int i = 0; i < 6; ++i) {
    injector.schedule_node_crash(500.0 + 2500.0 * i,
                                 static_cast<std::uint32_t>((i * 5) % 16),
                                 /*repair_after=*/250.0);
  }
  engine.run();

  CrashResult out;
  out.fingerprint = manager.accounting().fingerprint();
  const rm::AccountingStore::Totals t = manager.accounting().totals();
  out.jobs = t.jobs;
  out.completed = t.completed;
  out.requeues = manager.summary().requeues;
  out.wasted_node_seconds = t.wasted_node_seconds;
  return out;
}

}  // namespace

int main() {
  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }

  bench::Report report("bench_d5_rm",
                       "resource manager: amortized decision cost, "
                       "topology-aware placement quality, crash-determinism");
  report.note("budget_ms", std::to_string(budget_ms));
  report.note_provenance();

  // --- 1. decision cost ------------------------------------------------
  // 100x between the smallest and largest size; a tight budget shrinks
  // the absolute sizes but keeps the spread, so the flatness ratio stays
  // meaningful.
  std::vector<std::size_t> sizes;
  if (budget_ms >= 1000.0) {
    sizes = {10'000, 100'000, 1'000'000};
  } else {
    sizes = {5'000, 50'000, 500'000};
  }
  report.note("decision.sizes",
              std::to_string(sizes.front()) + ".." + std::to_string(sizes.back()));

  support::Table dtab("D5a: EASY-backfill decision cost vs queued jobs "
                      "(1024 nodes, saturating burst)");
  dtab.header({"jobs", "us/job", "jobs/s", "passes", "bf cycles", "backfilled"});
  double us_min = 0.0;
  double us_max = 0.0;
  for (std::size_t n : sizes) {
    const DecisionPoint p = decision_cost(n);
    dtab.row({std::to_string(p.jobs), support::Table::to_cell(p.us_per_job),
              support::Table::to_cell(p.jobs_per_sec), std::to_string(p.decision_passes),
              std::to_string(p.backfill_cycles), std::to_string(p.backfilled)});
    const std::string key = "decision.n_" + std::to_string(n);
    report.add(key + ".us_per_job", p.us_per_job, "us");
    report.add(key + ".jobs_per_sec", p.jobs_per_sec, "jobs/s");
    report.add(key + ".backfill_cycles",
               static_cast<double>(p.backfill_cycles), "cycles");
    if (us_min == 0.0 || p.us_per_job < us_min) us_min = p.us_per_job;
    if (p.us_per_job > us_max) us_max = p.us_per_job;
  }
  dtab.print(std::cout);
  const double flatness = us_max / us_min;
  report.add("decision.flatness_ratio", flatness, "x");
  std::cout << "Decision-cost flatness over a 100x size spread: "
            << support::Table::to_cell(flatness) << "x (must stay < 2)\n";

  // --- 2. placement quality -------------------------------------------
  // The allocator's first 64-wide grant on an empty 16x16 torus is the
  // aligned 8x8 brick at the origin; the scatter placement strides the
  // same 64 ranks across the whole machine.
  fabric::Torus2D topo(16, 16);
  rm::BlockAllocator alloc(topo);
  rm::Allocation brick;
  if (!alloc.allocate(64, /*owner=*/1, brick) || brick.fragments() != 1) {
    std::cerr << "allocator refused a contiguous 64-block on an empty torus\n";
    return 1;
  }
  std::vector<fabric::NodeId> scattered;
  for (std::uint32_t i = 0; i < 64; ++i) {
    scattered.push_back(static_cast<fabric::NodeId>((i * 83) % 256));
  }
  const PlacementResult contiguous = run_halo(brick.nodes, brick.fragments());
  const PlacementResult scatter = run_halo(scattered, 64);
  const double speedup = scatter.time_s / contiguous.time_s;

  support::Table ptab("D5b: halo2d (64 ranks, 10 iter) on a 16x16 torus, "
                      "Myrinet-2000: allocator brick vs scatter");
  ptab.header({"placement", "time", "comm%"});
  ptab.row({"8x8 brick", support::format_time(contiguous.time_s),
            support::Table::to_cell(contiguous.comm_fraction * 100.0)});
  ptab.row({"stride-83 scatter", support::format_time(scatter.time_s),
            support::Table::to_cell(scatter.comm_fraction * 100.0)});
  ptab.print(std::cout);
  std::cout << "Contiguous-placement speedup: " << support::Table::to_cell(speedup)
            << "x\n";
  report.add("placement.contiguous_time", contiguous.time_s, "s");
  report.add("placement.scattered_time", scatter.time_s, "s");
  report.add("placement.speedup", speedup, "x");
  report.add("placement.contiguous_fragments",
             static_cast<double>(contiguous.fragments), "runs");

  // --- 3. crash determinism -------------------------------------------
  const CrashResult a = crashy_run(2002);
  const CrashResult b = crashy_run(2002);
  const bool deterministic =
      a.fingerprint == b.fingerprint && a.requeues == b.requeues;
  std::cout << "\nD5c: 120-job trace, 6 node crashes: " << a.completed << "/"
            << a.jobs << " completed, " << a.requeues << " requeues, "
            << support::Table::to_cell(a.wasted_node_seconds)
            << " node-seconds wasted; same-seed ledgers "
            << (deterministic ? "identical" : "DIVERGED") << " ("
            << a.fingerprint << ")\n";
  report.add("faults.jobs", static_cast<double>(a.jobs), "jobs");
  report.add("faults.completed_fraction",
             static_cast<double>(a.completed) / static_cast<double>(a.jobs),
             "fraction");
  report.add("faults.requeues", static_cast<double>(a.requeues), "requeues");
  report.add("faults.wasted_node_seconds", a.wasted_node_seconds, "node-s");
  report.add("faults.ledger_deterministic", deterministic ? 1.0 : 0.0, "bool");
  report.note("faults.fingerprint", std::to_string(a.fingerprint));

  if (!report.write_file("BENCH_RM.json")) {
    std::cerr << "warning: could not write BENCH_RM.json\n";
  }
  std::cout << "\nWrote BENCH_RM.json.\n";
  return 0;
}
