#include "polaris/rt/runtime.hpp"

#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "polaris/coll/cost.hpp"
#include "polaris/rt/wait.hpp"
#include "polaris/support/check.hpp"

namespace polaris::rt {

namespace {

/// Tag space reserved for collective traffic.  User tags must be >= 0 and
/// below this.
constexpr int kCollTag = 0x4000'0000;

/// Shared-memory "fabric" characterization used for collective algorithm
/// selection (intra-node latencies/bandwidth of a 2002-class SMP).
fabric::LogGPParams shm_loggp() {
  fabric::LogGPParams p;
  p.L = 150e-9;
  p.o_s = 120e-9;
  p.o_r = 120e-9;
  p.g = 150e-9;
  p.G = 1.0 / 1.2e9;
  return p;
}

std::span<const std::byte> as_bytes(std::span<const double> d) {
  return {reinterpret_cast<const std::byte*>(d.data()), d.size_bytes()};
}

std::span<std::byte> as_writable_bytes(std::span<double> d) {
  return {reinterpret_cast<std::byte*>(d.data()), d.size_bytes()};
}

}  // namespace

// ------------------------------------------------------------- Communicator

SpscRing<detail::WireMsg>& Communicator::ring_to(int dst) {
  return *(*rings_)[static_cast<std::size_t>(rank_) * size_ + dst];
}

SpscRing<detail::WireMsg>& Communicator::ring_from(int src) {
  return *(*rings_)[static_cast<std::size_t>(src) * size_ + rank_];
}

void Communicator::push_with_progress(int dst, detail::WireMsg m) {
  auto& ring = ring_to(dst);
  IdleBackoff backoff;
  while (!ring.try_push(std::move(m))) {
    if (progress() != 0) backoff.reset();
    if (abort_flag_->load(std::memory_order_relaxed)) {
      throw std::runtime_error("polaris::rt: aborted (a peer rank failed)");
    }
    backoff.pause();
  }
}

void Communicator::send(int dst, int tag, std::span<const std::byte> data) {
  POLARIS_CHECK(dst >= 0 && dst < size_);
  POLARIS_CHECK_MSG(tag >= 0 && tag <= kCollTag,
                    "user tags must be non-negative");
  const bool eager = data.size() <= opts_.eager_threshold;
  obs::ScopedSpan span(tracer_, track_, "send",
                       eager ? "eager" : "rendezvous");
  if (sends_counter_) {
    sends_counter_->add();
    msg_bytes_->record(data.size());
  }
  if (dst == rank_) {
    deliver_local(tag, data);
    return;
  }
  if (eager) {
    ++eager_sends_;
    detail::WireMsg m;
    m.kind = detail::WireMsg::Kind::kEager;
    m.src = rank_;
    m.tag = tag;
    m.bytes = data.size();
    if (!data.empty()) {
      auto* buf = new std::byte[data.size()];
      std::memcpy(buf, data.data(), data.size());
      m.payload = buf;
    }
    push_with_progress(dst, m);
    return;
  }
  // Rendezvous: publish an RTS pointing at our buffer, then serve progress
  // until the receiver has pulled the payload.
  ++rendezvous_sends_;
  std::atomic<bool> pulled{false};
  detail::WireMsg m;
  m.kind = detail::WireMsg::Kind::kRts;
  m.src = rank_;
  m.tag = tag;
  m.bytes = data.size();
  m.payload = data.data();
  m.done_flag = &pulled;
  push_with_progress(dst, m);
  IdleBackoff backoff;
  while (!pulled.load(std::memory_order_acquire)) {
    if (progress() != 0) backoff.reset();
    if (abort_flag_->load(std::memory_order_relaxed)) {
      throw std::runtime_error("polaris::rt: aborted (a peer rank failed)");
    }
    backoff.pause();
  }
}

void Communicator::deliver_local(int tag, std::span<const std::byte> data) {
  detail::WireMsg m;
  m.kind = detail::WireMsg::Kind::kEager;
  m.src = rank_;
  m.tag = tag;
  m.bytes = data.size();
  if (!data.empty()) {
    auto* buf = new std::byte[data.size()];
    std::memcpy(buf, data.data(), data.size());
    m.payload = buf;
  }
  handle_incoming(m);
}

Request Communicator::irecv(int src, int tag, std::span<std::byte> out) {
  POLARIS_CHECK(src == msg::kAnySource || (src >= 0 && src < size_));
  auto state = std::make_shared<detail::PendingRecv>();
  state->out = out.data();
  state->capacity = out.size();
  state->src = src;
  state->tag = tag;

  const msg::RecvId id = next_recv_id_++;
  if (auto env = matcher_.post_recv(id, src, tag)) {
    complete_recv(*state, env->cookie);
    return Request(std::move(state));
  }
  pending_.emplace(id, state);
  return Request(std::move(state));
}

RecvStatus Communicator::wait(Request& r) {
  POLARIS_CHECK_MSG(r.valid(), "wait on an empty request");
  obs::ScopedSpan span(tracer_, track_, "wait", "p2p");
  IdleBackoff backoff;
  while (!r.state_->done.load(std::memory_order_acquire)) {
    if (progress() != 0) backoff.reset();
    if (abort_flag_->load(std::memory_order_relaxed)) {
      throw std::runtime_error("polaris::rt: aborted (a peer rank failed)");
    }
    backoff.pause();
  }
  RecvStatus st;
  st.src = r.state_->src;
  st.tag = r.state_->tag;
  st.bytes = r.state_->received_bytes;
  r.state_.reset();
  return st;
}

RecvStatus Communicator::recv(int src, int tag, std::span<std::byte> out) {
  obs::ScopedSpan span(tracer_, track_, "recv", "p2p");
  Request r = irecv(src, tag, out);
  return wait(r);
}

std::size_t Communicator::progress() {
  std::size_t handled = 0;
  for (int src = 0; src < size_; ++src) {
    if (src == rank_) continue;
    auto& ring = ring_from(src);
    if (ring_depth_) {
      ring_depth_->observe_max(static_cast<double>(ring.size_approx()));
    }
    handled += ring.drain([this](detail::WireMsg&& m) { handle_incoming(m); });
  }
  return handled;
}

void Communicator::handle_incoming(const detail::WireMsg& m) {
  msg::Envelope<detail::WireMsg> env;
  env.src = m.src;
  env.tag = m.tag;
  env.bytes = m.bytes;
  env.cookie = m;
  if (auto rid = matcher_.arrive(std::move(env))) {
    const auto it = pending_.find(*rid);
    POLARIS_CHECK_MSG(it != pending_.end(), "matched recv with no state");
    auto state = it->second;
    pending_.erase(it);
    complete_recv(*state, m);
  }
  // else: unexpected; envelope (and payload/RTS pointer) parked in matcher.
}

void Communicator::complete_recv(detail::PendingRecv& pr,
                                 const detail::WireMsg& m) {
  POLARIS_CHECK_MSG(m.bytes <= pr.capacity,
                    "message larger than receive buffer");
  if (m.bytes > 0) {
    std::memcpy(pr.out, m.payload, m.bytes);
  }
  if (m.kind == detail::WireMsg::Kind::kEager) {
    delete[] m.payload;
  } else {  // kRts: release the spinning sender
    m.done_flag->store(true, std::memory_order_release);
  }
  pr.received_bytes = m.bytes;
  pr.src = m.src;
  pr.tag = m.tag;
  pr.done.store(true, std::memory_order_release);
}

// ------------------------------------------------------------ collectives

void Communicator::run_schedule(const coll::Schedule& schedule,
                                std::span<double> buf, coll::ReduceOp op,
                                std::span<const double> input) {
  POLARIS_CHECK(schedule.ranks == static_cast<std::size_t>(size_));
  POLARIS_CHECK(buf.size() >= schedule.total_count);

  if (schedule.needs_local_copy) {
    POLARIS_CHECK_MSG(input.size() >= schedule.total_count,
                      "alltoall needs a full input buffer");
    const std::size_t block = schedule.total_count / schedule.ranks;
    std::memcpy(buf.data() + static_cast<std::size_t>(rank_) * block,
                input.data() + static_cast<std::size_t>(rank_) * block,
                block * sizeof(double));
  }

  for (const coll::CommStep& s : schedule.per_rank[rank_]) {
    Request recv_req;
    double* recv_dst = nullptr;
    if (s.has_recv()) {
      if (s.recv_reduce) {
        scratch_.resize(std::max(scratch_.size(), s.recv_count));
        recv_dst = scratch_.data();
      } else {
        recv_dst = buf.data() + s.recv_offset;
      }
      recv_req = irecv(
          s.recv_peer, kCollTag,
          as_writable_bytes(std::span<double>(recv_dst, s.recv_count)));
    }
    if (s.has_send()) {
      const double* base = s.send_from_input ? input.data() : buf.data();
      send(s.send_peer, kCollTag,
           as_bytes(std::span<const double>(base + s.send_offset,
                                            s.send_count)));
    }
    if (s.has_recv()) {
      wait(recv_req);
      if (s.recv_reduce) {
        double* dst = buf.data() + s.recv_offset;
        for (std::size_t i = 0; i < s.recv_count; ++i) {
          dst[i] = coll::combine(op, dst[i], scratch_[i]);
        }
      }
    }
  }
}

void Communicator::barrier() {
  obs::ScopedSpan span(tracer_, track_, "barrier", "coll");
  const auto schedule =
      coll::barrier(static_cast<std::size_t>(size_));
  double dummy = 0.0;
  run_schedule(schedule, {&dummy, 1}, coll::ReduceOp::kSum);
}

void Communicator::allreduce(std::span<double> buf, coll::ReduceOp op) {
  obs::ScopedSpan span(tracer_, track_, "allreduce", "coll");
  const auto ranks = static_cast<std::size_t>(size_);
  const auto a = coll::select_algorithm(coll::Collective::kAllreduce, ranks,
                                        buf.size(), sizeof(double),
                                        shm_loggp());
  run_schedule(coll::allreduce(ranks, buf.size(), a), buf, op);
}

// ------------------------------------------------------------------ ShmWorld

ShmWorld::ShmWorld(int ranks, ShmOptions opts) : size_(ranks) {
  POLARIS_CHECK(ranks >= 1);
  rings_.resize(static_cast<std::size_t>(ranks) * ranks);
  for (auto& r : rings_) {
    r = std::make_unique<SpscRing<detail::WireMsg>>(opts.ring_capacity);
  }
  comms_.resize(ranks);
  for (int i = 0; i < ranks; ++i) {
    comms_[i] = std::unique_ptr<Communicator>(new Communicator());
    comms_[i]->rank_ = i;
    comms_[i]->size_ = ranks;
    comms_[i]->opts_ = opts;
    comms_[i]->rings_ = &rings_;
    comms_[i]->abort_flag_ = &abort_flag_;
  }
}

ShmWorld::~ShmWorld() = default;

void ShmWorld::attach_tracer(obs::Tracer& tracer) {
  for (auto& c : comms_) {
    c->tracer_ = &tracer;
    c->track_ =
        tracer.add_track("ranks", "rank " + std::to_string(c->rank_));
  }
}

void ShmWorld::attach_metrics(obs::MetricsRegistry& metrics) {
  metrics_ = &metrics;
  for (auto& c : comms_) {
    c->sends_counter_ = &metrics.counter("rt.sends");
    c->msg_bytes_.emplace();
    c->ring_depth_ = &metrics.gauge("rt.ring_depth_max");
  }
}

void ShmWorld::run(const std::function<void(Communicator&)>& fn) {
  abort_flag_.store(false);
  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(size_);
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(*comms_[r]);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        abort_flag_.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  if (metrics_) {
    // Rank threads are joined: fold each rank's histogram into the shared
    // registry and clear it so repeated run() calls count every send once.
    obs::LogHistogram& msg_bytes = metrics_->log_histogram("rt.msg_bytes");
    std::uint64_t eager = 0, rendezvous = 0;
    for (const auto& c : comms_) {
      eager += c->eager_sends_;
      rendezvous += c->rendezvous_sends_;
      msg_bytes.merge_from(*c->msg_bytes_);
      c->msg_bytes_->reset();
    }
    metrics_->gauge("rt.eager_sends").set(static_cast<double>(eager));
    metrics_->gauge("rt.rendezvous_sends")
        .set(static_cast<double>(rendezvous));
  }
}

}  // namespace polaris::rt
