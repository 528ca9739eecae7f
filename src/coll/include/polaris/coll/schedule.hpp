// Collective communication schedules.
//
// A collective algorithm in Polaris compiles to a *schedule*: for every
// rank, an ordered list of communication steps over element ranges of the
// collective buffer.  The same schedule is executed by the LogGP timing
// executor (cost.hpp), the simulated and the real runtimes, and the
// in-memory correctness oracle the tests run (tests/oracles), so each
// algorithm is written once and exercised everywhere.
//
// Step semantics: a step may carry a send part, a receive part, or both
// (both => post concurrently, as in MPI_Sendrecv; required for ring and
// exchange patterns to avoid rendezvous deadlock).  Receives either
// replace the destination range or combine into it with the collective's
// reduction operator.  Pairwise message order is FIFO in every executor,
// so steps need no tags beyond the collective's own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace polaris::coll {

/// Reduction operator a receive step with recv_reduce applies.
enum class ReduceOp { kSum, kMax, kMin, kProd };

double combine(ReduceOp op, double a, double b);

/// One communication step of one rank.  peer == kNoPeer disables a part.
struct CommStep {
  static constexpr int kNoPeer = -1;

  int send_peer = kNoPeer;
  std::size_t send_offset = 0;  ///< elements into the buffer
  std::size_t send_count = 0;

  int recv_peer = kNoPeer;
  std::size_t recv_offset = 0;
  std::size_t recv_count = 0;
  bool recv_reduce = false;  ///< combine incoming into local range

  /// Alltoall sends read from the input buffer rather than the in-place
  /// collective buffer.
  bool send_from_input = false;

  bool has_send() const { return send_peer != kNoPeer; }
  bool has_recv() const { return recv_peer != kNoPeer; }

  static CommStep send(int peer, std::size_t offset, std::size_t count) {
    CommStep s;
    s.send_peer = peer;
    s.send_offset = offset;
    s.send_count = count;
    return s;
  }
  static CommStep recv(int peer, std::size_t offset, std::size_t count,
                       bool reduce = false) {
    CommStep s;
    s.recv_peer = peer;
    s.recv_offset = offset;
    s.recv_count = count;
    s.recv_reduce = reduce;
    return s;
  }
  static CommStep sendrecv(int speer, std::size_t soff, std::size_t scnt,
                           int rpeer, std::size_t roff, std::size_t rcnt,
                           bool reduce = false) {
    CommStep s;
    s.send_peer = speer;
    s.send_offset = soff;
    s.send_count = scnt;
    s.recv_peer = rpeer;
    s.recv_offset = roff;
    s.recv_count = rcnt;
    s.recv_reduce = reduce;
    return s;
  }
};

/// A complete collective schedule.
struct Schedule {
  std::string name;            ///< e.g. "allreduce/ring"
  std::size_t ranks = 0;
  std::size_t total_count = 0;  ///< elements in the collective buffer
  /// Alltoall: executors copy input[rank block] -> output[rank block]
  /// before running the steps.
  bool needs_local_copy = false;
  std::vector<std::vector<CommStep>> per_rank;

  std::size_t max_steps() const;
  std::uint64_t total_elements_moved() const;  ///< sum of send counts
};

/// Structural validation: for every ordered rank pair, the send sequence
/// at the source matches the receive sequence at the destination (same
/// length and element counts, in order), and all ranges lie within the
/// buffer.  Throws support::ContractViolation describing the first defect.
void validate(const Schedule& schedule);

}  // namespace polaris::coll
