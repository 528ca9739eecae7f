// Shard-count invariance: the golden trace is the determinism contract.
// Sharding and worker count are execution parameters — they must not
// change one bit of the simulation outcome.
#include <gtest/gtest.h>

#include <bit>

#include "polaris/pdes/engine.hpp"

namespace polaris::pdes {
namespace {

void expect_same_outcome(const Result& base, const Result& got,
                         const char* what) {
  EXPECT_EQ(base.golden_hash, got.golden_hash) << what;
  EXPECT_DOUBLE_EQ(base.sim_seconds, got.sim_seconds) << what;
  EXPECT_EQ(base.ranks_ok, got.ranks_ok) << what;
  EXPECT_EQ(base.ranks_failed, got.ranks_failed) << what;
  EXPECT_EQ(base.events, got.events) << what;
  EXPECT_EQ(base.msgs_intra + base.msgs_cross, got.msgs_intra + got.msgs_cross)
      << what;
  EXPECT_EQ(base.nacks, got.nacks) << what;
}

void expect_shard_invariant(Config cfg,
                            std::initializer_list<std::size_t> shard_counts) {
  cfg.shards = 1;
  const Result base = run(cfg);
  for (const std::size_t s : shard_counts) {
    Config c = cfg;
    c.shards = s;
    const Result got = run(c);
    SCOPED_TRACE(testing::Message() << "shards=" << s);
    expect_same_outcome(base, got, "shard count changed the outcome");
  }
}

TEST(ShardInvariance, JitteredHalo) {
  Config cfg;
  cfg.workload.kind = AppKind::kHalo;
  cfg.workload.grid_w = 12;
  cfg.workload.grid_h = 9;  // 108 ranks: odd blocks at every shard count
  cfg.workload.iters = 5;
  cfg.workload.jitter = true;
  cfg.workload.seed = 42;
  expect_shard_invariant(cfg, {2, 3, 4, 8});
}

TEST(ShardInvariance, JitteredAllreduce) {
  Config cfg;
  cfg.workload.kind = AppKind::kAllreduce;
  cfg.workload.grid_w = 6;
  cfg.workload.grid_h = 5;  // 30 ranks: ghost partners above the rank count
  cfg.workload.iters = 4;
  cfg.workload.jitter = true;
  cfg.workload.seed = 7;
  expect_shard_invariant(cfg, {2, 4, 7, 8});
}

TEST(ShardInvariance, Cg) {
  Config cfg;
  cfg.workload.kind = AppKind::kCg;
  cfg.workload.grid_w = 7;
  cfg.workload.grid_h = 4;
  cfg.workload.iters = 3;
  expect_shard_invariant(cfg, {2, 4, 8});
}

TEST(ShardInvariance, TinyComputeKeepsWindowsBusy) {
  // Near-zero compute makes every window dense with same-tick traffic —
  // the hardest case for commutative same-tick processing.
  Config cfg;
  cfg.workload.kind = AppKind::kHalo;
  cfg.workload.grid_w = 10;
  cfg.workload.grid_h = 10;
  cfg.workload.iters = 4;
  cfg.workload.compute_s = 0.0;  // clamped to one tick internally
  cfg.workload.jitter = true;
  expect_shard_invariant(cfg, {2, 5, 8});
}

TEST(Mailboxes, EveryHandoffIsIngestedExactlyOnce) {
  // A mailbox side read twice or cleared unread shows here even when no
  // hash can: a doubled halo arrival ORs a bit that is already set.
  for (const AppKind kind : {AppKind::kHalo, AppKind::kAllreduce,
                             AppKind::kCg}) {
    for (const bool crash : {false, true}) {
      for (const std::size_t s : {2, 4, 8}) {
        Config cfg;
        cfg.workload.kind = kind;
        cfg.workload.grid_w = 12;
        cfg.workload.grid_h = 9;
        cfg.workload.iters = 4;
        cfg.workload.jitter = true;
        if (crash) cfg.faults.push_back({37, 60e-6});
        cfg.shards = s;
        const Result r = run(cfg);
        SCOPED_TRACE(testing::Message()
                     << "kind=" << static_cast<int>(kind)
                     << " crash=" << crash << " shards=" << s);
        EXPECT_GT(r.msgs_cross, 0u);
        EXPECT_EQ(r.drain_batch.sum(), r.msgs_cross);
        if (crash) {
          EXPECT_GT(r.nacks, 0u);
        }
      }
    }
  }
}

TEST(WorkerInvariance, WorkerCountIsPureExecutionParameter) {
  Config cfg;
  cfg.workload.kind = AppKind::kHalo;
  cfg.workload.grid_w = 12;
  cfg.workload.grid_h = 9;
  cfg.workload.iters = 4;
  cfg.workload.jitter = true;
  cfg.shards = 8;
  cfg.workers = 1;
  const Result base = run(cfg);
  for (const std::size_t w : {2, 3, 8}) {
    Config c = cfg;
    c.workers = w;
    const Result got = run(c);
    SCOPED_TRACE(testing::Message() << "workers=" << w);
    expect_same_outcome(base, got, "worker count changed the outcome");
    EXPECT_EQ(got.workers, w);
  }
}

TEST(ShardInvariance, RepeatRunsAreBitIdentical) {
  Config cfg;
  cfg.workload.kind = AppKind::kAllreduce;
  cfg.workload.grid_w = 4;
  cfg.workload.grid_h = 8;
  cfg.workload.iters = 3;
  cfg.workload.jitter = true;
  cfg.shards = 4;
  const Result a = run(cfg);
  const Result b = run(cfg);
  EXPECT_EQ(a.golden_hash, b.golden_hash);
  EXPECT_EQ(a.events, b.events);
}

/// Phases per rank: halo one per iteration, allreduce one per hypercube
/// stage, CG both.
std::uint64_t phases_per_rank(const Workload& wl) {
  const auto stages =
      static_cast<std::uint64_t>(std::bit_width(wl.ranks() - 1));
  switch (wl.kind) {
    case AppKind::kHalo: return wl.iters;
    case AppKind::kAllreduce: return wl.iters * stages;
    case AppKind::kCg: return wl.iters * (1 + stages);
  }
  return 0;
}

/// A run without faults folds every payload into its receiver when it is
/// sent or drained; a crash anywhere makes every arrival an engine event.
/// A crash after the last completion changes no rank's trace, so both
/// paths must leave every rank with the same hash, completion tick and
/// phase.
void expect_arrival_paths_agree(Config cfg) {
  const std::size_t ranks = cfg.workload.ranks();
  for (const std::size_t s : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << s);
    cfg.shards = s;
    cfg.faults.clear();
    ShardedEngine folded(cfg);
    const Result fr = folded.run();
    ASSERT_EQ(fr.ranks_ok, ranks);
    EXPECT_EQ(fr.events, ranks * phases_per_rank(cfg.workload))
        << "a healthy run executes one event per rank-phase";
    cfg.faults.push_back({0, 2 * fr.sim_seconds + 1e-3});
    ShardedEngine evented(cfg);
    const Result er = evented.run();
    EXPECT_GT(er.events, fr.events);
    for (std::uint32_t g = 0; g < ranks; ++g) {
      const RankState& a = folded.rank_state(g);
      const RankState& b = evented.rank_state(g);
      if (a.hash != b.hash || a.done_at != b.done_at || a.phase != b.phase) {
        ADD_FAILURE() << "first divergent rank " << g << ": phase "
                      << a.phase << " folded vs " << b.phase
                      << " per-arrival, done_at " << a.done_at << " vs "
                      << b.done_at << ", hash " << a.hash << " vs "
                      << b.hash;
        break;
      }
    }
  }
}

TEST(ArrivalPaths, FoldedAndPerArrivalAgreeOnHalo) {
  Config cfg;
  cfg.workload.kind = AppKind::kHalo;
  cfg.workload.grid_w = 12;
  cfg.workload.grid_h = 9;
  cfg.workload.iters = 5;
  cfg.workload.jitter = true;
  cfg.workload.seed = 42;
  expect_arrival_paths_agree(cfg);
}

TEST(ArrivalPaths, FoldedAndPerArrivalAgreeOnAllreduce) {
  Config cfg;
  cfg.workload.kind = AppKind::kAllreduce;
  cfg.workload.grid_w = 6;
  cfg.workload.grid_h = 5;
  cfg.workload.iters = 4;
  cfg.workload.jitter = true;
  cfg.workload.seed = 7;
  expect_arrival_paths_agree(cfg);
}

TEST(ArrivalPaths, FoldedAndPerArrivalAgreeOnCg) {
  // 16x16 with jitter: stages run ahead far enough to park arrivals two
  // or more phases early.
  Config cfg;
  cfg.workload.kind = AppKind::kCg;
  cfg.workload.grid_w = 16;
  cfg.workload.grid_h = 16;
  cfg.workload.iters = 3;
  cfg.workload.jitter = true;
  cfg.workload.seed = 3;
  expect_arrival_paths_agree(cfg);
}

TEST(ArrivalPaths, FoldedAndPerArrivalAgreeWithTinyCompute) {
  // Near-zero compute: every window is dense with same-tick traffic.
  Config cfg;
  cfg.workload.kind = AppKind::kCg;
  cfg.workload.grid_w = 10;
  cfg.workload.grid_h = 10;
  cfg.workload.iters = 4;
  cfg.workload.compute_s = 0.0;
  cfg.workload.jitter = true;
  expect_arrival_paths_agree(cfg);
}

}  // namespace
}  // namespace polaris::pdes
