// Configuration and result types for the sharded parallel DES engine.
//
// A pdes run simulates a bulk-synchronous application (halo exchange,
// recursive-doubling allreduce, or a CG-style halo+dot-product iteration)
// on a 2-D torus of commodity nodes, at rank counts (10^5-10^6) far beyond
// what the coroutine-per-rank simrt path can hold in memory.  Ranks are
// compact flat state machines — a few dozen bytes each — and messages are
// closed-form LogGP-style timed arrivals, so the whole machine partitions
// cleanly across per-shard des::Engine instances.
//
// The golden hash in Result is the determinism contract: it folds every
// rank's per-phase completion trace in global rank order and must be
// bit-identical at any shard count and any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "polaris/fabric/params.hpp"
#include "polaris/obs/metrics.hpp"

namespace polaris::pdes {

/// Application traffic pattern, as a flat state machine per rank.
enum class AppKind : std::uint8_t {
  kHalo = 0,       ///< 4-neighbor exchange per iteration (stencil)
  kAllreduce = 1,  ///< recursive-doubling hypercube exchange
  kCg = 2,         ///< halo exchange + 8-byte allreduce per iteration
};

/// What the simulated machine runs.  Ranks live on a grid_w x grid_h
/// 2-D torus (ranks == grid_w * grid_h), one rank per node.
struct Workload {
  AppKind kind = AppKind::kHalo;
  std::size_t grid_w = 16;
  std::size_t grid_h = 16;
  std::uint32_t iters = 10;    ///< application iterations
  std::uint64_t bytes = 8192;  ///< payload per neighbor/partner message
  double compute_s = 50e-6;    ///< compute time between iterations
  std::uint64_t seed = 1;      ///< jitter stream seed
  /// Randomize per-message payload sizes in [bytes/2, 3*bytes/2) from a
  /// pure function of (sender, phase, lane) — exercises non-uniform
  /// timing without breaking shard-count invariance.
  bool jitter = false;

  std::size_t ranks() const { return grid_w * grid_h; }
};

/// A node crash injected at a simulated time: the rank dies, its NIC
/// NACKs every later delivery with XferStatus::kNodeDown.
struct RankFault {
  std::uint32_t rank = 0;
  double time_s = 0.0;
};

struct Config {
  Workload workload;
  fabric::FabricParams fabric = fabric::fabrics::myrinet2000();
  std::size_t shards = 1;
  /// OS threads driving the shards, clamped to the shard count.  0 = the
  /// hardware concurrency (at least 1).
  std::size_t workers = 0;
  /// Cross-shard channel ring depth (per ordered shard pair).  Overflow
  /// spills to a mutex-protected vector, so this sizes the fast path only.
  std::size_t channel_capacity = 4096;
  std::vector<RankFault> faults;
};

/// Rank status values folded into the golden hash.  The first two match
/// fabric::XferStatus numerically (a NACK latches its status verbatim).
inline constexpr std::uint8_t kRankOk = 0;
inline constexpr std::uint8_t kRankPeerDown = 1;  ///< == XferStatus::kNodeDown
inline constexpr std::uint8_t kRankCrashed = 255;

struct Result {
  // -- simulation outcome (shard-count invariant) ---------------------------
  double sim_seconds = 0.0;       ///< latest rank completion time
  std::uint64_t golden_hash = 0;  ///< per-phase completion trace, rank order
  std::uint64_t ranks_ok = 0;     ///< finished all iterations cleanly
  std::uint64_t ranks_failed = 0; ///< crashed, halted on NACK, or stranded

  // -- execution shape ------------------------------------------------------
  std::size_t shards = 1;
  std::size_t workers = 1;
  std::uint64_t events = 0;      ///< engine events across all shards
  std::uint64_t windows = 0;     ///< conservative sync windows
  std::uint64_t msgs_intra = 0;  ///< deliveries within a shard
  std::uint64_t msgs_cross = 0;  ///< deliveries handed off between shards
  std::uint64_t nacks = 0;       ///< failed-delivery reports generated
  double lookahead_s = 0.0;      ///< conservative window width used

  // -- performance ----------------------------------------------------------
  double wall_s = 0.0;            ///< end-to-end host wall clock
  double max_shard_busy_s = 0.0;  ///< busiest shard's window work (critical
                                  ///< path of a perfectly parallel run)
  double sum_busy_s = 0.0;        ///< total window work across shards
  std::uint64_t parks = 0;        ///< blocking barrier waits (idle proxy)

  // -- memory ---------------------------------------------------------------
  std::uint64_t peak_event_nodes = 0;  ///< max engine pool occupancy (sum)

  // -- per-shard hot-path timers, merged at export --------------------------
  obs::LogHistogram window_ns;      ///< per-shard per-window busy time
  obs::LogHistogram window_events;  ///< events executed per shard-window
  obs::LogHistogram drain_batch;    ///< handoffs ingested per shard-window
};

/// Publishes a Result into a metrics registry: scalar counters/gauges plus
/// the merged log-linear histograms (merge_from into the registry's own
/// instances, so repeated runs accumulate).
void export_metrics(const Result& r, obs::MetricsRegistry& reg);

}  // namespace polaris::pdes
