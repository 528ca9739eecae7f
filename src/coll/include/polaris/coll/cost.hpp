// LogGP timing executor and algorithm selection.
//
// Replays a schedule against a LogGP fabric characterization, tracking one
// clock per rank and message-arrival times per pairwise FIFO channel.  The
// result predicts collective completion time on an uncongested fabric —
// enough to rank algorithms against each other, which is all selection
// needs (the full simulator adds congestion).  Selection predicts every
// candidate except one whose lower bound already loses: ring allreduce's
// schedule grows as ranks², so it is built only where it might win.
#pragma once

#include <cstddef>

#include "polaris/coll/algorithms.hpp"
#include "polaris/fabric/loggp.hpp"

namespace polaris::coll {

/// Completion time (seconds, max over ranks) of `schedule` with elements
/// of `elem_bytes` under `net`.  Zero-count steps cost an envelope-only
/// message (header of ~kEnvelopeBytes).
double predicted_seconds(const Schedule& schedule,
                         const fabric::LogGPParams& net,
                         std::size_t elem_bytes);

/// Envelope bytes charged for zero-payload messages (barrier, RTS/CTS).
inline constexpr std::size_t kEnvelopeBytes = 32;

/// A lower bound on predicted_seconds for ring allreduce over `ranks`: each
/// rank runs 2(ranks - 1) send+recv steps, and the executor adds at least
/// max(o_s, g) and then o_r per step.  Summed in the executor's order, and
/// with rounding monotone, the executor's result is never below it.
double ring_allreduce_floor(std::size_t ranks, const fabric::LogGPParams& net);

/// Picks the fastest valid algorithm for (kind, ranks, count elements of
/// elem_bytes) under `net`: the first candidate with the strictly smallest
/// predicted time.  Binomial gather/scatter are skipped unless root == 0,
/// and ring allreduce is skipped (never built) when its floor exceeds the
/// best time so far, since it could then not win.
Algorithm select_algorithm(Collective kind, std::size_t ranks,
                           std::size_t count, std::size_t elem_bytes,
                           const fabric::LogGPParams& net, int root = 0);

}  // namespace polaris::coll
