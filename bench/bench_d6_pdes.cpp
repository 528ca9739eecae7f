// D6: sharded parallel DES — simulate the scale explosion for real.
//
// Three experiments, emitted to BENCH_PDES.json:
//
//   1. Strong scaling: a 256x256 (65,536-rank) jittered halo exchange at
//      1/2/4/8 shards.  Two speedups are reported and must be read
//      differently:
//        - speedup_wall: end-to-end wall clock.  Honest but machine-bound;
//          on a single-core container it cannot exceed 1.  CI gates it at
//          >= 2x when the file's nproc note says the host had >= 4 cores.
//        - speedup_critical_path: serial work (1-shard sum_busy) divided by
//          the busiest shard's work at 8 shards (max_shard_busy).  This is
//          the wall-clock a perfectly parallel host would see, measured —
//          not modeled — from per-shard-per-window steady_clock timings, so
//          it captures every real cost of sharding (handoff traffic, sort,
//          drain, imbalance) while being independent of the host's core
//          count.  CI gates on it staying >= 3x.
//      The golden hash must be identical at every shard count.
//   2. The same scaling shape on the CG-style program (halo + allreduce
//      per iteration) at 1 and 8 shards.
//   3. Capacity: a 1024x1024 torus — 1,048,576 ranks, the paper's
//      "explosion in scale" regime — run to completion with per-rank flat
//      state instead of per-rank coroutine stacks.
//
// Workers are leased from the shared WorkerBudget (POLARIS_SIM_THREADS),
// so shard counts above the core count time-slice on one thread instead of
// oversubscribing; shard count is a simulation parameter, worker count an
// execution detail, and neither may change the hash.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "polaris/pdes/engine.hpp"
#include "polaris/support/table.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

struct ScalePoint {
  std::size_t shards = 0;
  pdes::Result res;
};

pdes::Config base_cfg(pdes::AppKind kind, std::size_t w, std::size_t h,
                      std::uint32_t iters) {
  pdes::Config cfg;
  cfg.workload.kind = kind;
  cfg.workload.grid_w = w;
  cfg.workload.grid_h = h;
  cfg.workload.iters = iters;
  cfg.workload.jitter = true;
  cfg.workload.seed = 2002;
  return cfg;
}

std::vector<ScalePoint> scale_curve(const pdes::Config& base,
                                    const std::vector<std::size_t>& shards) {
  std::vector<ScalePoint> pts;
  for (const std::size_t s : shards) {
    pdes::Config cfg = base;
    cfg.shards = s;
    pts.push_back({s, pdes::run(cfg)});
  }
  return pts;
}

bool hash_invariant(const std::vector<ScalePoint>& pts) {
  for (const ScalePoint& p : pts) {
    if (p.res.golden_hash != pts.front().res.golden_hash) return false;
  }
  return true;
}

void print_curve(const std::string& title,
                 const std::vector<ScalePoint>& pts) {
  support::Table tab(title);
  tab.header({"shards", "workers", "wall s", "crit-path s", "sum busy s",
              "events/s", "cross msgs", "windows"});
  for (const ScalePoint& p : pts) {
    tab.add(p.shards, p.res.workers, p.res.wall_s, p.res.max_shard_busy_s,
            p.res.sum_busy_s,
            p.res.sum_busy_s > 0.0
                ? static_cast<double>(p.res.events) / p.res.sum_busy_s
                : 0.0,
            p.res.msgs_cross, p.res.windows);
  }
  tab.print(std::cout);
}

void report_curve(bench::Report& report, const std::string& prefix,
                  const std::vector<ScalePoint>& pts) {
  const pdes::Result& serial = pts.front().res;
  for (const ScalePoint& p : pts) {
    const std::string at = prefix + ".shards" + std::to_string(p.shards);
    report.add(at + ".wall_s", p.res.wall_s, "s");
    report.add(at + ".critical_path_s", p.res.max_shard_busy_s, "s");
    report.add(at + ".sum_busy_s", p.res.sum_busy_s, "s");
    report.add(at + ".events_per_sec",
               p.res.sum_busy_s > 0.0
                   ? static_cast<double>(p.res.events) / p.res.sum_busy_s
                   : 0.0,
               "events/s");
  }
  const pdes::Result& widest = pts.back().res;
  report.add(prefix + ".ranks", static_cast<double>(serial.ranks_ok), "ranks");
  report.add(prefix + ".speedup_8shards_wall",
             widest.wall_s > 0.0 ? serial.wall_s / widest.wall_s : 0.0, "x");
  report.add(prefix + ".speedup_8shards_critical_path",
             widest.max_shard_busy_s > 0.0
                 ? serial.sum_busy_s / widest.max_shard_busy_s
                 : 0.0,
             "x");
  report.add(prefix + ".hash_invariant", hash_invariant(pts) ? 1.0 : 0.0,
             "bool");
}

}  // namespace

int main() {
  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }
  // The full experiment is the acceptance configuration (64k-rank scaling,
  // 10^6-rank capacity).  A sub-second budget runs a shape-preserving
  // miniature instead — same curves, same assertions, smaller grids.
  const bool full = budget_ms >= 1000.0;

  bench::Report report("bench_d6_pdes",
                       "sharded parallel DES: strong scaling at 64k ranks "
                       "and a million-rank capacity run");
  report.note_provenance();
  report.note("budget_ms", std::to_string(budget_ms));
  report.note("scale", full ? "full" : "mini");

  // --- 1. halo strong scaling -----------------------------------------
  const std::size_t dim = full ? 256 : 64;
  const std::uint32_t iters = full ? 10 : 5;
  const pdes::Config halo =
      base_cfg(pdes::AppKind::kHalo, dim, dim, iters);
  const std::vector<ScalePoint> halo_pts =
      scale_curve(halo, {1, 2, 4, 8});
  print_curve("D6a: jittered halo exchange, " + std::to_string(dim) + "x" +
                  std::to_string(dim) + " torus, " + std::to_string(iters) +
                  " iters",
              halo_pts);
  report_curve(report, "halo", halo_pts);
  if (!hash_invariant(halo_pts)) {
    std::cerr << "FATAL: halo golden hash varies with shard count\n";
    return 1;
  }
  const double crit_speedup =
      halo_pts.front().res.sum_busy_s /
      halo_pts.back().res.max_shard_busy_s;
  std::cout << "Critical-path speedup at 8 shards: "
            << support::Table::to_cell(crit_speedup) << "x\n"
            << "Wall speedup at 8 shards (host-bound): "
            << support::Table::to_cell(halo_pts.front().res.wall_s /
                                       halo_pts.back().res.wall_s)
            << "x\n\n";

  // --- 2. CG scaling ----------------------------------------------------
  const pdes::Config cg =
      base_cfg(pdes::AppKind::kCg, dim, dim, full ? 5 : 3);
  const std::vector<ScalePoint> cg_pts = scale_curve(cg, {1, 8});
  print_curve("D6b: CG iteration (halo + allreduce), " +
                  std::to_string(dim) + "x" + std::to_string(dim) + " torus",
              cg_pts);
  report_curve(report, "cg", cg_pts);
  if (!hash_invariant(cg_pts)) {
    std::cerr << "FATAL: cg golden hash varies with shard count\n";
    return 1;
  }
  std::cout << "\n";

  // --- 3. million-rank capacity ----------------------------------------
  const std::size_t cap_dim = full ? 1024 : 256;
  pdes::Config cap = base_cfg(pdes::AppKind::kHalo, cap_dim, cap_dim, 2);
  cap.workload.jitter = false;
  cap.shards = 8;
  const pdes::Result capr = pdes::run(cap);
  support::Table ctab("D6c: capacity — " + std::to_string(cap_dim) + "x" +
                      std::to_string(cap_dim) + " torus, 2 iters, 8 shards");
  ctab.header({"ranks", "ok", "events", "wall s", "events/s",
               "peak ev nodes"});
  ctab.add(cap_dim * cap_dim, capr.ranks_ok, capr.events, capr.wall_s,
           capr.wall_s > 0.0
               ? static_cast<double>(capr.events) / capr.wall_s
               : 0.0,
           capr.peak_event_nodes);
  ctab.print(std::cout);
  if (capr.ranks_ok != cap_dim * cap_dim) {
    std::cerr << "FATAL: capacity run stranded "
              << capr.ranks_failed << " ranks\n";
    return 1;
  }
  report.add("capacity.ranks", static_cast<double>(cap_dim * cap_dim),
             "ranks");
  report.add("capacity.ranks_ok", static_cast<double>(capr.ranks_ok),
             "ranks");
  report.add("capacity.events", static_cast<double>(capr.events), "events");
  report.add("capacity.wall_s", capr.wall_s, "s");
  report.add("capacity.events_per_sec",
             capr.wall_s > 0.0
                 ? static_cast<double>(capr.events) / capr.wall_s
                 : 0.0,
             "events/s");
  report.add("capacity.rank_state_bytes",
             static_cast<double>(sizeof(pdes::RankState)), "B");

  if (!report.write_file("BENCH_PDES.json")) {
    std::cerr << "warning: could not write BENCH_PDES.json\n";
  }
  std::cout << "\nWrote BENCH_PDES.json.\n";
  return 0;
}
