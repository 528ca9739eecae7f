// D3 — messaging-core throughput: the bucketed tag matcher against the
// linear reference it replaced, and the pooled simrt in-flight path.
//
// Five sections:
//
//  1. Incast matching: one matcher holding 512 posted receives (64 sources
//     x 8 tags) takes randomized arrivals, each repost keeping the depth
//     constant.  The linear matcher scans ~depth/2 per arrival; the
//     bucketed matcher does one hash lookup.
//  2. Wildcard-heavy receive: 4096 unexpected messages (64 sources x 64
//     tags); posts cycle exact / any-source / any-tag / fully-wild shapes,
//     re-arriving each match to hold the depth.  The linear matcher scans
//     the unexpected queue per post; the bucketed one reads a
//     category-list head.
//  3. Eager steady state: 2-rank simrt ping-pong of eager messages,
//     absolute messages/s through the full protocol + fabric stack.
//  4. CG-pattern churn: 16 ranks on a 4x4 torus, each round posting 4
//     irecvs + 4 isends and wait_all-ing them (the SpMV halo inner loop).
//  5. Scale: building a 4,096-rank world on a 64x64 Myrinet torus, and
//     selecting the algorithm for its first 16-byte allreduce, each timed
//     and with the heap bytes it asked for.  Per-rank state that grew
//     with the world, or a selection that built every candidate, would
//     show here as megabytes per rank or gigabytes per selection.
//
// Sections 3 and 4 also check that the steady state allocates nothing.
// The binary links heap_count.cpp's counting global operator new, so the
// count covers every heap allocation: coroutine frames, slab growth and
// callback storage alike.  After a warm-up, each phase runs at N rounds
// and then at 2N rounds; a launch allocates a fixed number of blocks
// however many rounds it runs, so the difference between the two counts
// is what N more rounds allocate.
//
// Emits BENCH_MSG.json.  POLARIS_BENCH_BUDGET_MS shrinks workloads for CI
// smoke runs (default ~2000 ms per section).  Exits non-zero if the
// matcher speedup falls below 2x or the steady-state phases allocate.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "polaris/coll/cost.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/msg/reference_matcher.hpp"
#include "polaris/msg/tag_matcher.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/support/table.hpp"
#include "heap_count.hpp"
#include "report.hpp"

namespace {

using namespace polaris;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------- matcher harness

constexpr int kSources = 64;
constexpr int kTags = 8;
constexpr int kDepth = kSources * kTags;  // one posted recv per (src,tag)

/// Incast: randomized arrivals against a constant-depth posted queue;
/// every arrival matches and is immediately reposted.  Returns wall s.
template <class Matcher>
double run_incast(Matcher& m, const std::vector<std::uint16_t>& order) {
  for (int p = 0; p < kDepth; ++p) {
    m.post_recv(static_cast<msg::RecvId>(p), p % kSources, p / kSources);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::uint16_t p : order) {
    msg::Envelope<int> env;
    env.src = p % kSources;
    env.tag = p / kSources;
    env.bytes = 64;
    env.cookie = p;
    const auto id = m.arrive(std::move(env));
    if (!id) std::abort();  // every arrival must match
    m.post_recv(*id, p % kSources, p / kSources);
  }
  return seconds_since(t0);
}

/// Wildcard-heavy: constant-depth unexpected queue (64 sources x 64 tags);
/// posts cycle the four receive shapes and each match is re-arrived.
/// Returns wall s.
constexpr int kWildTags = 64;
constexpr int kWildDepth = kSources * kWildTags;

template <class Matcher>
double run_wildcard(Matcher& m, const std::vector<std::uint16_t>& order) {
  for (int p = 0; p < kWildDepth; ++p) {
    msg::Envelope<int> env;
    env.src = p % kSources;
    env.tag = p / kSources;
    env.bytes = 64;
    env.cookie = p;
    m.arrive(std::move(env));
  }
  msg::RecvId next_id = kWildDepth;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t n = 0;
  for (const std::uint16_t p : order) {
    int src = p % kSources;
    int tag = p / kSources;
    switch (n++ % 4) {
      case 0: break;                           // exact
      case 1: src = msg::kAnySource; break;
      case 2: tag = msg::kAnyTag; break;
      default:
        src = msg::kAnySource;
        tag = msg::kAnyTag;
        break;
    }
    const auto got = m.post_recv(next_id++, src, tag);
    if (!got) std::abort();  // depth invariant: a match always exists
    msg::Envelope<int> env;
    env.src = got->src;
    env.tag = got->tag;
    env.bytes = 64;
    env.cookie = got->cookie;
    m.arrive(std::move(env));
  }
  return seconds_since(t0);
}

// ------------------------------------------------------------ steady state

struct SteadyState {
  double seconds;       ///< host time of the N-round run
  std::int64_t allocs;  ///< heap allocations at 2N rounds minus at N rounds
};

/// Runs `phase(rounds)`, timed, then `phase(2 * rounds)`, counting the heap
/// allocations of each.  Call after a warm-up run has filled every pool.
template <class Phase>
SteadyState measure_steady_state(Phase&& phase, std::uint64_t rounds) {
  const std::uint64_t a0 = bench::heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  phase(rounds);
  const double s = seconds_since(t0);
  const std::uint64_t a1 = bench::heap_allocations();
  phase(2 * rounds);
  const std::uint64_t a2 = bench::heap_allocations();
  return {s, static_cast<std::int64_t>(a2 - a1) -
                 static_cast<std::int64_t>(a1 - a0)};
}

}  // namespace

int main() {
  double budget_ms = 2000.0;
  if (const char* env = std::getenv("POLARIS_BENCH_BUDGET_MS")) {
    const double v = std::atof(env);
    if (v > 0) budget_ms = v;
  }

  bench::Report report(
      "bench_d3_msg",
      "Messaging core: bucketed tag matching vs the linear reference, and "
      "the pooled allocation-free simrt in-flight path");
  report.note("budget_ms", std::to_string(budget_ms));
  report.note("steady_state_allocs",
              "global operator new calls at 2N rounds minus at N rounds");
  report.note_provenance();

  // The linear matcher clears roughly 1M ops/s at depth 512, so budget*500
  // ops keeps its (slower) side inside the per-section budget.
  const auto ops = std::max<std::uint64_t>(
      100'000, static_cast<std::uint64_t>(budget_ms) * 500);
  std::vector<std::uint16_t> order(ops);
  std::mt19937_64 rng(2002);
  for (auto& p : order) p = static_cast<std::uint16_t>(rng() % kDepth);

  // -- 1. incast matching ---------------------------------------------------
  msg::ReferenceTagMatcher<int> inc_ref;
  const double inc_ref_s = run_incast(inc_ref, order);
  msg::TagMatcher<int> inc_fast;
  const double inc_fast_s = run_incast(inc_fast, order);
  const double inc_ref_rate = static_cast<double>(ops) / inc_ref_s;
  const double inc_fast_rate = static_cast<double>(ops) / inc_fast_s;
  const double inc_speedup = inc_fast_rate / inc_ref_rate;

  support::Table t1("D3a: incast matching, 512 posted recvs (64 src x 8 tag)");
  t1.header({"matcher", "arrivals/s", "speedup"});
  t1.add("linear", support::Table::to_cell(inc_ref_rate),
         support::Table::to_cell(1.0));
  t1.add("bucketed", support::Table::to_cell(inc_fast_rate),
         support::Table::to_cell(inc_speedup));
  t1.print(std::cout);
  report.note("matcher.ops", std::to_string(ops));
  report.add("incast.linear.ops_per_sec", inc_ref_rate, "ops/s");
  report.add("incast.bucketed.ops_per_sec", inc_fast_rate, "ops/s");
  report.add("incast.speedup", inc_speedup, "x");

  // -- 2. wildcard-heavy recv -----------------------------------------------
  std::vector<std::uint16_t> wc_order(ops);
  for (auto& p : wc_order) p = static_cast<std::uint16_t>(rng() % kWildDepth);
  msg::ReferenceTagMatcher<int> wc_ref;
  const double wc_ref_s = run_wildcard(wc_ref, wc_order);
  msg::TagMatcher<int> wc_fast;
  const double wc_fast_s = run_wildcard(wc_fast, wc_order);
  const double wc_ref_rate = static_cast<double>(ops) / wc_ref_s;
  const double wc_fast_rate = static_cast<double>(ops) / wc_fast_s;
  const double wc_speedup = wc_fast_rate / wc_ref_rate;

  std::cout << "\n";
  support::Table t2(
      "D3b: wildcard-heavy recv, 4096 unexpected (64 src x 64 tag), "
      "shapes cycled");
  t2.header({"matcher", "recvs/s", "speedup"});
  t2.add("linear", support::Table::to_cell(wc_ref_rate),
         support::Table::to_cell(1.0));
  t2.add("bucketed", support::Table::to_cell(wc_fast_rate),
         support::Table::to_cell(wc_speedup));
  t2.print(std::cout);
  report.add("wildcard.linear.ops_per_sec", wc_ref_rate, "ops/s");
  report.add("wildcard.bucketed.ops_per_sec", wc_fast_rate, "ops/s");
  report.add("wildcard.speedup", wc_speedup, "x");

  // -- 3. eager steady state ------------------------------------------------
  const auto eager_rounds = std::max<std::uint64_t>(
      20'000, static_cast<std::uint64_t>(budget_ms) * 100);
  simrt::SimWorld eg_world(2, fabric::fabrics::infiniband_4x());
  const auto eager_phase = [&](std::uint64_t rounds) {
    eg_world.launch([rounds](simrt::SimComm& c) -> des::Task<void> {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          co_await c.send(1, 0, 256);
        } else {
          co_await c.recv(0, 0);
        }
      }
    });
    eg_world.run();
  };
  eager_phase(eager_rounds / 10 + 64);  // warmup
  const SteadyState eg = measure_steady_state(eager_phase, eager_rounds);
  const double eg_rate = static_cast<double>(eager_rounds) / eg.seconds;

  std::cout << "\n";
  support::Table t3("D3c: eager steady state, 2 ranks, 256 B, infiniband");
  t3.header({"metric", "value"});
  t3.add("messages/s", support::Table::to_cell(eg_rate));
  t3.add("steady-state allocs", support::Table::to_cell(
                                    static_cast<double>(eg.allocs)));
  t3.print(std::cout);
  report.note("eager.rounds", std::to_string(eager_rounds));
  report.add("eager.msgs_per_sec", eg_rate, "msgs/s");
  report.add("eager.steady_state_allocs", static_cast<double>(eg.allocs),
             "count");

  // -- 4. CG-pattern irecv/wait_all churn ------------------------------------
  const auto cg_rounds = std::max<std::uint64_t>(
      500, static_cast<std::uint64_t>(budget_ms) * 3);
  constexpr int kGrid = 4;  // 4x4 torus, 4 neighbors per rank
  simrt::SimWorld cg_world(kGrid * kGrid, fabric::fabrics::myrinet2000());
  const auto cg_phase = [&](std::uint64_t rounds) {
    cg_world.launch([rounds](simrt::SimComm& c) -> des::Task<void> {
      const int x = c.rank() % kGrid;
      const int y = c.rank() / kGrid;
      const int nbr[4] = {
          y * kGrid + (x + 1) % kGrid, y * kGrid + (x + kGrid - 1) % kGrid,
          ((y + 1) % kGrid) * kGrid + x,
          ((y + kGrid - 1) % kGrid) * kGrid + x};
      std::vector<simrt::SimRequest> reqs;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        reqs.clear();
        for (const int n : nbr) reqs.push_back(c.irecv(n, 0));
        for (const int n : nbr) reqs.push_back(c.isend(n, 0, 2048));
        co_await c.wait_all(reqs);
      }
    });
    cg_world.run();
  };
  cg_phase(cg_rounds / 10 + 16);  // warmup
  const SteadyState cg = measure_steady_state(cg_phase, cg_rounds);
  const double cg_rate = static_cast<double>(cg_rounds) / cg.seconds;
  const double cg_msg_rate = cg_rate * kGrid * kGrid * 4;

  std::cout << "\n";
  support::Table t4("D3d: CG halo churn, 16 ranks, 4x4 torus, 2 KiB");
  t4.header({"metric", "value"});
  t4.add("rounds/s", support::Table::to_cell(cg_rate));
  t4.add("messages/s", support::Table::to_cell(cg_msg_rate));
  t4.add("steady-state allocs", support::Table::to_cell(
                                    static_cast<double>(cg.allocs)));
  t4.print(std::cout);
  report.note("cg.rounds", std::to_string(cg_rounds));
  report.add("cg.rounds_per_sec", cg_rate, "rounds/s");
  report.add("cg.msgs_per_sec", cg_msg_rate, "msgs/s");
  report.add("cg.steady_state_allocs", static_cast<double>(cg.allocs),
             "count");

  // -- 5. world construction and first selection at scale -------------------
  constexpr std::size_t kScaleSide = 64;
  constexpr std::size_t kScaleRanks = kScaleSide * kScaleSide;
  const std::uint64_t build_b0 = bench::heap_bytes();
  const auto build_t0 = std::chrono::steady_clock::now();
  simrt::SimWorld big(kScaleRanks, fabric::fabrics::myrinet2000(),
                      std::make_unique<fabric::Torus2D>(kScaleSide,
                                                        kScaleSide));
  const double build_ms = 1e3 * seconds_since(build_t0);
  const double build_bytes_per_rank =
      static_cast<double>(bench::heap_bytes() - build_b0) / kScaleRanks;
  // As SimWorld::collective_schedule asks for a 16-byte allreduce.
  const std::uint64_t select_b0 = bench::heap_bytes();
  const auto select_t0 = std::chrono::steady_clock::now();
  const coll::Algorithm chosen = coll::select_algorithm(
      coll::Collective::kAllreduce, kScaleRanks, 16, 1, big.loggp());
  const double select_ms = 1e3 * seconds_since(select_t0);
  const auto select_bytes =
      static_cast<double>(bench::heap_bytes() - select_b0);

  std::cout << "\n";
  support::Table t5("D3e: 4,096-rank world, 64x64 myrinet torus");
  t5.header({"metric", "value"});
  t5.add("construction ms", support::Table::to_cell(build_ms));
  t5.add("construction heap B/rank",
         support::Table::to_cell(build_bytes_per_rank));
  t5.add("16 B allreduce selection ms", support::Table::to_cell(select_ms));
  t5.add("16 B allreduce selection heap B",
         support::Table::to_cell(select_bytes));
  t5.print(std::cout);
  report.note("scale.ranks", std::to_string(kScaleRanks));
  report.note("scale.selected", coll::to_string(chosen));
  report.add("scale.construction_ms", build_ms, "ms");
  report.add("scale.construction_bytes_per_rank", build_bytes_per_rank, "B");
  report.add("scale.selection_ms", select_ms, "ms");
  report.add("scale.selection_bytes", select_bytes, "B");

  if (!report.write_file("BENCH_MSG.json")) {
    std::cerr << "warning: could not write BENCH_MSG.json\n";
  }
  std::cout << "\nWrote BENCH_MSG.json.\n";

  bool ok = true;
  if (inc_speedup < 2.0) {
    std::cerr << "ERROR: incast speedup " << inc_speedup << " < 2x\n";
    ok = false;
  }
  if (wc_speedup < 2.0) {
    std::cerr << "ERROR: wildcard speedup " << wc_speedup << " < 2x\n";
    ok = false;
  }
  if (eg.allocs != 0) {
    std::cerr << "ERROR: eager steady state allocated (" << eg.allocs
              << ")\n";
    ok = false;
  }
  if (cg.allocs != 0) {
    std::cerr << "ERROR: CG steady state allocated (" << cg.allocs << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
