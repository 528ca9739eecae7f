// Real threaded runtime: user-level messaging over shared memory.
//
// ShmWorld runs one OS thread per rank; ranks exchange messages through
// per-pair lock-free rings exactly the way a user-level NIC library
// exchanges descriptors through queue pairs:
//   eager       — payload copied into a transport buffer at send time;
//                 the send completes immediately (one copy, as on a NIC
//                 bounce buffer).
//   rendezvous  — the ring carries an RTS descriptor pointing at the
//                 sender's buffer; when the receive is posted, the receiver
//                 pulls the payload directly (zero-copy, the shared-memory
//                 analogue of RDMA read) and signals the sender's
//                 completion flag.
// Tag matching, protocol choice and collective schedules are the same code
// the simulated runtime uses (polaris::msg / polaris::coll).  A
// Communicator offers point-to-point send/recv/irecv/wait, barrier and
// allreduce; any other coll schedule (a broadcast, reduce, allgather,
// alltoall, reduce-scatter or scan) runs through run_schedule.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "polaris/coll/algorithms.hpp"
#include "polaris/msg/tag_matcher.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"
#include "polaris/rt/spsc_ring.hpp"

namespace polaris::rt {

/// Tunables for a ShmWorld.
struct ShmOptions {
  std::size_t eager_threshold = 8 * 1024;  ///< bytes; larger => rendezvous
  std::size_t ring_capacity = 1024;        ///< descriptors per rank pair
};

class Communicator;

namespace detail {

/// Descriptor travelling through a ring.
struct WireMsg {
  enum class Kind : std::uint8_t { kEager, kRts };
  Kind kind = Kind::kEager;
  int src = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  /// kEager: heap payload owned by the message (receiver frees).
  /// kRts: the sender's user buffer (receiver pulls from it).
  const std::byte* payload = nullptr;
  /// kRts: sender-side completion flag the receiver releases.
  std::atomic<bool>* done_flag = nullptr;
};

struct PendingRecv {
  std::byte* out = nullptr;
  std::size_t capacity = 0;
  std::atomic<bool> done{false};
  std::uint64_t received_bytes = 0;
  int src = -1;
  int tag = -1;
};

}  // namespace detail

/// Handle for a nonblocking receive; wait() completes and empties it.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Communicator;
  explicit Request(std::shared_ptr<detail::PendingRecv> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::PendingRecv> state_;
};

/// Status of a completed receive.
struct RecvStatus {
  int src = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
};

/// Per-rank endpoint + MPI-flavoured API.  Each Communicator is owned and
/// driven by exactly one rank thread; cross-thread interaction happens only
/// through the rings and atomic completion flags.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  // -- point to point --------------------------------------------------------
  void send(int dst, int tag, std::span<const std::byte> data);
  RecvStatus recv(int src, int tag, std::span<std::byte> out);

  Request irecv(int src, int tag, std::span<std::byte> out);
  RecvStatus wait(Request& r);

  // -- collectives (double element type) --------------------------------------
  void barrier();
  void allreduce(std::span<double> buf, coll::ReduceOp op);

  /// Executes an arbitrary schedule (collective building block).  An
  /// alltoall schedule (needs_local_copy) reads its sends from `input`,
  /// which holds size()*block doubles like `buf`.
  void run_schedule(const coll::Schedule& schedule, std::span<double> buf,
                    coll::ReduceOp op,
                    std::span<const double> input = {});

  /// Drives incoming traffic; called automatically inside blocking ops.
  /// Returns the number of descriptors handled (blocking ops use a nonzero
  /// return to reset their idle backoff).
  std::size_t progress();

  // -- introspection -----------------------------------------------------------
  const msg::MatchStats& match_stats() const { return matcher_.stats(); }
  std::uint64_t eager_sends() const { return eager_sends_; }
  std::uint64_t rendezvous_sends() const { return rendezvous_sends_; }

  /// This rank's trace track (valid after ShmWorld::attach_tracer); rank
  /// code may add its own spans around application phases.
  obs::Tracer* tracer() const { return tracer_; }
  obs::TrackId track() const { return track_; }

 private:
  friend class ShmWorld;
  Communicator() = default;

  SpscRing<detail::WireMsg>& ring_to(int dst);
  SpscRing<detail::WireMsg>& ring_from(int src);
  void push_with_progress(int dst, detail::WireMsg m);
  void handle_incoming(const detail::WireMsg& m);
  void complete_recv(detail::PendingRecv& pr, const detail::WireMsg& m);
  void deliver_local(int tag, std::span<const std::byte> data);

  int rank_ = 0;
  int size_ = 0;
  ShmOptions opts_;
  // rings_[s * size + d]: ring from rank s to rank d (shared, world-owned).
  std::vector<std::unique_ptr<SpscRing<detail::WireMsg>>>* rings_ = nullptr;

  msg::TagMatcher<detail::WireMsg> matcher_;
  std::unordered_map<msg::RecvId, std::shared_ptr<detail::PendingRecv>>
      pending_;
  std::uint64_t next_recv_id_ = 1;
  std::atomic<bool>* abort_flag_ = nullptr;
  std::vector<double> scratch_;
  std::uint64_t eager_sends_ = 0;
  std::uint64_t rendezvous_sends_ = 0;

  // Observability hooks; null until ShmWorld::attach_* is called, and every
  // instrumented path branches on that (zero cost when unobserved).
  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  obs::Gauge* ring_depth_ = nullptr;
  obs::Counter* sends_counter_ = nullptr;
  // Recorded from this rank's own thread with plain stores; ShmWorld::run
  // folds it into the registry after the join.  Created by attach_metrics
  // inside the Communicator, so no two ranks' histograms share a line.
  std::optional<obs::LogHistogram> msg_bytes_;
};

/// Spawns `ranks` threads, each running `fn(Communicator&)`, and joins.
/// The first exception thrown by any rank is rethrown from run().
class ShmWorld {
 public:
  explicit ShmWorld(int ranks, ShmOptions opts = {});
  ~ShmWorld();

  int size() const { return size_; }

  /// Runs one SPMD program across all ranks.  May be called repeatedly;
  /// communicator state persists between runs.
  void run(const std::function<void(Communicator&)>& fn);

  /// Attaches a tracer (use an obs::WallClock): one track per rank with
  /// spans around sends, receives, waits and collectives, stamped in real
  /// time from each rank's own thread.  Call before run().
  void attach_tracer(obs::Tracer& tracer);

  /// Attaches a metrics registry: a send counter updated live from rank
  /// threads, a ring-occupancy high-water gauge sampled in progress(), and,
  /// after each run(), the ranks' message-size histograms folded into
  /// `rt.msg_bytes` and the eager/rendezvous totals mirrored.
  void attach_metrics(obs::MetricsRegistry& metrics);

 private:
  int size_;
  std::atomic<bool> abort_flag_{false};
  std::vector<std::unique_ptr<SpscRing<detail::WireMsg>>> rings_;
  std::vector<std::unique_ptr<Communicator>> comms_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace polaris::rt
