#include "polaris/simrt/sim_world.hpp"

#include <algorithm>

#include "polaris/coll/cost.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/support/check.hpp"
#include "polaris/support/units.hpp"

namespace polaris::simrt {

namespace {
/// Tag reserved for collective traffic.
constexpr int kCollTag = 0x4000'0000;

SimStatus from_xfer(fabric::XferStatus status) {
  switch (status) {
    case fabric::XferStatus::kOk:
      return SimStatus::kOk;
    case fabric::XferStatus::kNodeDown:
      return SimStatus::kPeerDown;
    case fabric::XferStatus::kLinkDown:
      return SimStatus::kLinkDown;
  }
  return SimStatus::kPeerDown;
}
}  // namespace

// ----------------------------------------------------------------- SimComm

SimComm::SimComm(SimWorld& world, int rank, std::size_t ranks)
    : world_(&world),
      rank_(rank),
      send_seq_(ranks, 0),
      expect_seq_(ranks, 0),
      held_(ranks) {
  const auto& p = world.params();
  // 256 MiB pin-down budget per NIC, costs from the fabric model.
  reg_cache_ = std::make_unique<msg::RegistrationCache>(
      256u << 20, p.reg_base, p.reg_per_page);
}

int SimComm::size() const { return static_cast<int>(world_->ranks()); }

double SimComm::now() const {
  return des::to_seconds(world_->engine().now());
}

des::Engine& SimComm::engine() { return world_->engine(); }

const msg::RegCacheStats& SimComm::reg_stats() const {
  return reg_cache_->stats();
}

std::uintptr_t SimComm::default_addr() const {
  // A fixed, page-aligned synthetic address per rank: repeated sends reuse
  // the same registration, the common application buffer pattern.
  return (static_cast<std::uintptr_t>(rank_) + 1) << 32;
}

des::Task<SimStatus> SimComm::send(int dst, int tag, std::uint64_t bytes,
                                   std::uintptr_t buffer_addr) {
  POLARIS_CHECK(dst >= 0 && dst < size());
  return send_impl(dst, tag, bytes, buffer_addr, send_seq_[dst]++);
}

des::Task<SimStatus> SimComm::send_impl(int dst, int tag,
                                        std::uint64_t bytes,
                                        std::uintptr_t buffer_addr,
                                        std::uint64_t seq) {
  auto& pool = world_->inflight_pool_;
  const std::uint32_t slot = pool.acquire();
  world_->max_inflight_in_use_ =
      std::max(world_->max_inflight_in_use_, pool.in_use());
  detail::InFlight& f = pool[slot];
  f.slot = slot;
  f.matched.reset();
  f.delivered.reset();
  f.refs = 2;  // the sender's protocol chain + the receiving recv
  f.status = SimStatus::kOk;
  f.retries_used = 0;
  f.dropped = false;
  f.sync_timeout = des::EventId{};
  f.dst_comm = &world_->comm(static_cast<std::size_t>(dst));
  f.src = rank_;
  f.tag = tag;
  f.bytes = bytes;
  f.seq = seq;
  f.proto = msg::choose_protocol(world_->params(), bytes,
                                 world_->eager_threshold());

  obs::ScopedSpan span(tracer_, track_, ids_->send, ids_->proto_cat(f.proto));
  if (sends_counter_) {
    sends_counter_->add();
    msg_bytes_->record(bytes);
  }

  // Enforce the NIC's inter-message gap.
  auto& eng = world_->engine();
  if (eng.now() < earliest_next_send_) {
    co_await des::delay(eng, earliest_next_send_ - eng.now());
  }

  if (f.proto == msg::Protocol::kEager) {
    ++eager_count_;
    // Buffered semantics: the send "completes" once injected; a wire
    // failure is retried (and ultimately dropped) by the raw chain.
    co_await send_eager(f);
    co_return SimStatus::kOk;
  }
  ++rendezvous_count_;
  co_return co_await send_rendezvous(f, buffer_addr);
}

des::Task<void> SimComm::send_eager(detail::InFlight& f) {
  const auto& p = world_->params();
  auto& eng = world_->engine();
  // CPU: overhead plus the copy into the injection/bounce path.
  const double copy = static_cast<double>(f.bytes) / p.copy_bw;
  {
    obs::ScopedSpan inject(tracer_, track_, ids_->eager_inject,
                           ids_->cat_protocol);
    co_await des::delay(eng, des::from_seconds(p.o_send + copy));
  }
  earliest_next_send_ =
      eng.now() + des::from_seconds(std::max(p.gap - p.o_send, 0.0));
  // The wire part proceeds without blocking the sender (buffered send):
  // a zero-delay raw event injects into the fabric, whose completion
  // callback lands the message — no coroutine frame for the wire leg.
  // The event sequence (one +0 event, then the fabric's) is exactly what
  // the old spawned deliver_eager coroutine produced.
  eng.schedule_raw_after(0, &SimComm::eager_wire_cb, &f);
}

void SimComm::eager_wire_cb(void* ctx) {
  auto& f = *static_cast<detail::InFlight*>(ctx);
  SimComm& dst = *f.dst_comm;
  dst.world_->network().transfer_raw(
      dst.node_of(f.src), dst.node_of(dst.rank_),
      f.bytes + SimWorld::kHeaderBytes, &SimComm::eager_delivered_cb, &f);
}

void SimComm::eager_delivered_cb(void* ctx, fabric::XferStatus status) {
  auto& f = *static_cast<detail::InFlight*>(ctx);
  SimComm& dst = *f.dst_comm;
  SimWorld& w = *dst.world_;
  if (status != fabric::XferStatus::kOk) {
    const RetryPolicy& rp = w.retry_policy();
    if (f.retries_used < rp.max_retries) {
      double backoff = rp.backoff;
      for (std::uint8_t i = 0; i < f.retries_used; ++i) {
        backoff *= rp.backoff_factor;
      }
      ++f.retries_used;
      w.count_retry();
      // Re-enter the wire chain after the backoff: same injection path,
      // fresh fabric attempt.
      w.engine().schedule_raw_after(des::from_seconds(backoff),
                                    &SimComm::eager_wire_cb, &f);
      return;
    }
    // Retries exhausted: drop.  The sequence number still advances (the
    // drop is a tombstone in arrival order) so later traffic from this
    // source is not wedged behind the dead message.
    f.status = from_xfer(status);
    f.dropped = true;
    w.count_drop();
    const std::uint32_t slot = f.slot;
    dst.arrive_ordered(slot);
    w.release_inflight_ref(slot);  // sender-chain reference
    return;
  }
  f.delivered.fire(w.engine());
  const std::uint32_t slot = f.slot;
  dst.arrive_ordered(slot);
  w.release_inflight_ref(slot);  // sender-chain reference
}

des::Task<fabric::XferStatus> SimComm::transfer_retry(fabric::NodeId src,
                                                      fabric::NodeId dst,
                                                      std::uint64_t bytes) {
  auto& net = world_->network();
  fabric::XferStatus st = co_await net.transfer(src, dst, bytes);
  if (st == fabric::XferStatus::kOk || !world_->faults_enabled()) {
    co_return st;
  }
  const RetryPolicy& rp = world_->retry_policy();
  double backoff = rp.backoff;
  for (std::uint32_t attempt = 0; attempt < rp.max_retries; ++attempt) {
    world_->count_retry();
    if (tracer_) tracer_->instant(track_, ids_->retry, ids_->cat_fault);
    co_await des::delay(world_->engine(), des::from_seconds(backoff));
    backoff *= rp.backoff_factor;
    st = co_await net.transfer(src, dst, bytes);
    if (st == fabric::XferStatus::kOk) co_return st;
  }
  co_return st;
}

void SimComm::rdv_sync_timeout_cb(void* ctx) {
  auto& f = *static_cast<detail::InFlight*>(ctx);
  SimComm& dst = *f.dst_comm;
  SimWorld& w = *dst.world_;
  if (f.matched.fired()) return;
  // Fail the handshake once, as a posted receive's timeout does: a peer
  // that never posts its receive would otherwise keep the engine busy
  // forever.
  f.status = w.network().node_up(dst.node_of(dst.rank_))
                 ? SimStatus::kTimeout
                 : SimStatus::kPeerDown;
  f.matched.fire(w.engine());
}

des::Task<SimStatus> SimComm::send_rendezvous(detail::InFlight& f,
                                              std::uintptr_t buffer_addr) {
  const auto& p = world_->params();
  auto& eng = world_->engine();
  const fabric::NodeId src_node = node_of(rank_);
  const fabric::NodeId dst_node = node_of(f.dst_comm->rank_);
  // Protocol-phase prefix: the RDMA variant shares the rendezvous
  // handshake but lands the payload without receiver CPU.
  const bool is_rdma = f.proto == msg::Protocol::kRdma;
  const detail::TraceIds::Phase& ph = is_rdma ? ids_->rdma : ids_->rdv;

  // RTS (header-only).
  obs::ScopedSpan rts(tracer_, track_, ph.rts, ids_->cat_protocol);
  co_await des::delay(eng, des::from_seconds(p.o_send));
  earliest_next_send_ =
      eng.now() + des::from_seconds(std::max(p.gap - p.o_send, 0.0));
  fabric::XferStatus xst =
      co_await transfer_retry(src_node, dst_node, SimWorld::kHeaderBytes);
  if (xst != fabric::XferStatus::kOk) {
    // The envelope never reached the peer.  Tombstone the sequence so
    // later messages are not wedged, then fail the send.
    f.status = from_xfer(xst);
    f.dropped = true;
    world_->count_drop();
    const SimStatus st = f.status;
    f.dst_comm->arrive_ordered(f.slot);  // releases the receiver reference
    world_->release_inflight_ref(f.slot);
    co_return st;
  }
  f.dst_comm->arrive_ordered(f.slot);  // receiver's reference travels here
  rts.end();

  // Wait for the receive to be posted, then the CTS travels back.
  {
    obs::ScopedSpan sync(tracer_, track_, ph.sync, ids_->cat_protocol);
    if (world_->faults_enabled() &&
        world_->retry_policy().recv_timeout > 0.0 && !f.matched.fired()) {
      f.sync_timeout = eng.schedule_raw_after(
          des::from_seconds(world_->retry_policy().recv_timeout),
          &SimComm::rdv_sync_timeout_cb, &f);
    }
    co_await f.matched.wait();
    eng.cancel(f.sync_timeout);
    if (f.status != SimStatus::kOk) {
      // The match wait timed out.  The envelope waits in the peer's
      // matcher like any unreceived message, holding the receiver's
      // reference.  Fire `delivered` as the lost-CTS branch does: the
      // peer's program keeps running, and a receive that matches the
      // envelope later then returns the failure and frees the record
      // instead of waiting forever.
      world_->count_drop();
      const SimStatus st = f.status;
      f.delivered.fire(eng);
      world_->release_inflight_ref(f.slot);
      co_return st;
    }
    xst = co_await transfer_retry(dst_node, src_node, SimWorld::kHeaderBytes);
    if (xst != fabric::XferStatus::kOk) {
      // CTS lost for good: the receiver is already parked on `delivered`,
      // so propagate the failure through it.
      f.status = from_xfer(xst);
      world_->count_drop();
      const SimStatus st = f.status;
      f.delivered.fire(eng);
      world_->release_inflight_ref(f.slot);
      co_return st;
    }
  }

  // Pin the source buffer (cache-amortized), then move the payload.
  // Kernel-path fabrics cannot DMA from user memory: they still pay the
  // socket-buffer staging copy here (and the receiver pays its own).
  if (!p.os_bypass) {
    obs::ScopedSpan stage(tracer_, track_, ph.stage, ids_->cat_protocol);
    co_await des::delay(
        eng,
        des::from_seconds(static_cast<double>(f.bytes) / p.copy_bw));
  } else {
    const std::uintptr_t addr =
        buffer_addr != 0 ? buffer_addr : default_addr();
    const double reg = reg_cache_->acquire(addr, f.bytes);
    if (tracer_) {
      tracer_->instant(track_, reg > 0.0 ? ids_->reg_miss : ids_->reg_hit,
                       ids_->cat_reg);
    }
    if (reg > 0.0) {
      obs::ScopedSpan pin(tracer_, track_, ph.reg, ids_->cat_protocol);
      co_await des::delay(eng, des::from_seconds(reg));
    }
  }
  {
    obs::ScopedSpan payload(tracer_, track_, ph.payload, ids_->cat_protocol);
    xst = co_await transfer_retry(src_node, dst_node, f.bytes);
  }
  if (xst != fabric::XferStatus::kOk) {
    f.status = from_xfer(xst);
    world_->count_drop();
  }
  const SimStatus st = f.status;
  f.delivered.fire(eng);
  world_->release_inflight_ref(f.slot);  // sender-side reference
  co_return st;
}

void SimComm::arrive_ordered(std::uint32_t inflight_slot) {
  detail::InFlight& f = world_->inflight(inflight_slot);
  const int src = f.src;
  if (f.seq != expect_seq_[static_cast<std::size_t>(src)]) {
    hold_out_of_order(src, inflight_slot);
    return;
  }
  deliver_to_matcher(inflight_slot);
  std::uint64_t& expect = expect_seq_[static_cast<std::size_t>(src)];
  ++expect;
  // Drain consecutively-sequenced messages parked in the hold ring.
  HoldRing& ring = held_[static_cast<std::size_t>(src)];
  while (!ring.slots.empty()) {
    const std::size_t idx =
        static_cast<std::size_t>(expect) & (ring.slots.size() - 1);
    const std::uint32_t held = ring.slots[idx];
    if (held == kNilSlot || world_->inflight(held).seq != expect) break;
    ring.slots[idx] = kNilSlot;
    --held_count_;
    deliver_to_matcher(held);
    ++expect;
  }
}

void SimComm::hold_out_of_order(int src, std::uint32_t inflight_slot) {
  HoldRing& ring = held_[static_cast<std::size_t>(src)];
  const std::uint64_t seq = world_->inflight(inflight_slot).seq;
  const std::uint64_t expect = expect_seq_[static_cast<std::size_t>(src)];
  POLARIS_DCHECK(seq > expect);
  // Grow the ring (power of two) until the in-flight window [expect, seq]
  // fits, re-slotting parked entries at their seq's new index.
  std::size_t cap = ring.slots.size();
  if (cap == 0 || seq - expect >= cap) {
    std::size_t need = cap == 0 ? 4 : cap * 2;
    while (seq - expect >= need) need *= 2;
    std::vector<std::uint32_t> grown(need, kNilSlot);
    for (const std::uint32_t s : ring.slots) {
      if (s != kNilSlot) {
        grown[static_cast<std::size_t>(world_->inflight(s).seq) &
              (need - 1)] = s;
      }
    }
    ring.slots.swap(grown);
    cap = need;
  }
  const std::size_t idx = static_cast<std::size_t>(seq) & (cap - 1);
  POLARIS_DCHECK(ring.slots[idx] == kNilSlot);
  ring.slots[idx] = inflight_slot;
  ++held_count_;
  max_held_ = std::max(max_held_, held_count_);
}

void SimComm::deliver_to_matcher(std::uint32_t inflight_slot) {
  detail::InFlight& f = world_->inflight(inflight_slot);
  if (f.dropped) {
    // The message never lands: nothing reaches the matcher, and the
    // receiver-side reference dies here (no recv will ever consume it —
    // the receiver learns of the hole through its own timeout).
    world_->release_inflight_ref(inflight_slot);
    return;
  }
  msg::Envelope<detail::InFlightId> env;
  env.src = f.src;
  env.tag = f.tag;
  env.bytes = f.bytes;
  env.cookie = detail::InFlightId{inflight_slot, f.gen};
  if (auto rid = matcher_.arrive(std::move(env))) {
    const auto pslot = static_cast<std::uint32_t>(*rid & 0xffff'ffffu);
    const auto pgen = static_cast<std::uint32_t>(*rid >> 32);
    PendingRecv& pr = pending_pool_[pslot];
    POLARIS_CHECK_MSG(pr.gen == pgen, "matched recv with no state");
    pr.inflight_slot = inflight_slot;
    pr.trigger.fire(world_->engine());
  }
}

SimComm::RecvTicket SimComm::post_recv_now(int src, int tag) {
  RecvTicket ticket;
  const std::uint32_t pslot = pending_pool_.acquire();
  PendingRecv& pr = pending_pool_[pslot];
  pr.trigger.reset();
  pr.inflight_slot = kNilSlot;
  pr.owner = this;
  pr.timeout_ev = des::EventId{};
  pr.src = -1;
  pr.timed_out = false;
  const msg::RecvId id =
      (static_cast<std::uint64_t>(pr.gen) << 32) | pslot;
  if (auto env = matcher_.post_recv(id, src, tag)) {
    POLARIS_DCHECK(world_->inflight(env->cookie.slot).gen ==
                   env->cookie.gen);
    ticket.inflight_slot = env->cookie.slot;
    // Matched immediately: no queued state needed.  The generation bump
    // invalidates the RecvId.
    ++pr.gen;
    pending_pool_.release(pslot);
  } else {
    ticket.pending_slot = pslot;
    if (world_->faults_enabled() &&
        world_->retry_policy().recv_timeout > 0.0) {
      pr.src = src;
      pr.timeout_ev = world_->engine().schedule_raw_after(
          des::from_seconds(world_->retry_policy().recv_timeout),
          &SimComm::recv_timeout_cb, &pr);
    }
  }
  return ticket;
}

void SimComm::recv_timeout_cb(void* ctx) {
  auto& pr = *static_cast<PendingRecv*>(ctx);
  if (pr.trigger.fired()) return;
  pr.timed_out = true;
  pr.trigger.fire(pr.owner->world_->engine());
}

des::Task<SimRecvStatus> SimComm::recv(int src, int tag) {
  return recv_impl(post_recv_now(src, tag));
}

des::Task<SimRecvStatus> SimComm::recv_impl(RecvTicket ticket) {
  auto& eng = world_->engine();
  obs::ScopedSpan span(tracer_, track_, ids_->recv, ids_->cat_p2p);
  obs::ScopedSpan wait_span(tracer_, track_, ids_->recv_wait,
                            ids_->cat_protocol);
  std::uint32_t slot = ticket.inflight_slot;
  if (slot == kNilSlot) {
    // Pool references stay valid across awaits (deque slab).
    PendingRecv& pr = pending_pool_[ticket.pending_slot];
    co_await pr.trigger.wait();
    slot = pr.inflight_slot;
    if (slot == kNilSlot) {
      // The receive timed out with no message.  Withdraw the posting so a
      // late arrival cannot resolve to recycled state, then classify: a
      // dead specific source is kPeerDown, anything else kTimeout.
      POLARIS_CHECK_MSG(pr.timed_out, "recv woke without a message");
      const msg::RecvId id =
          (static_cast<std::uint64_t>(pr.gen) << 32) | ticket.pending_slot;
      matcher_.cancel_recv(id);
      SimRecvStatus st;
      st.status = SimStatus::kTimeout;
      if (pr.src >= 0 &&
          !world_->network().node_up(node_of(pr.src))) {
        st.status = SimStatus::kPeerDown;
      }
      world_->count_timeout();
      ++pr.gen;
      pending_pool_.release(ticket.pending_slot);
      co_return st;
    }
    world_->engine().cancel(pr.timeout_ev);
    ++pr.gen;
    pending_pool_.release(ticket.pending_slot);
  }
  detail::InFlight& inf = world_->inflight(slot);

  const auto& p = world_->params();
  if (inf.proto != msg::Protocol::kEager && p.os_bypass &&
      (p.reg_base > 0.0 || p.reg_per_page > 0.0)) {
    // Receiver pins its landing buffer before replying CTS.
    const double reg = reg_cache_->acquire(default_addr() + (1u << 30),
                                           inf.bytes);
    if (tracer_) {
      tracer_->instant(track_, reg > 0.0 ? ids_->reg_miss : ids_->reg_hit,
                       ids_->cat_reg);
    }
    if (reg > 0.0) co_await des::delay(eng, des::from_seconds(reg));
  }
  inf.matched.fire(eng);
  co_await inf.delivered.wait();
  wait_span.end();

  if (inf.status != SimStatus::kOk) {
    // The sender's CTS/payload leg failed for good: surface the error and
    // skip the receiver CPU cost (no payload ever landed).
    SimRecvStatus st;
    st.src = inf.src;
    st.tag = inf.tag;
    st.bytes = inf.bytes;
    st.status = inf.status;
    world_->release_inflight_ref(slot);  // receiver-side reference
    co_return st;
  }

  // Receiver CPU cost by protocol.
  double cpu = 0.0;
  switch (inf.proto) {
    case msg::Protocol::kEager:
      cpu = p.o_recv + static_cast<double>(inf.bytes) / p.copy_bw;
      break;
    case msg::Protocol::kRendezvous:
      cpu = p.o_recv;
      if (!p.os_bypass) {
        cpu += static_cast<double>(inf.bytes) / p.copy_bw;
      }
      break;
    case msg::Protocol::kRdma:
      cpu = 0.0;  // payload landed by remote DMA
      break;
  }
  if (cpu > 0.0) {
    obs::ScopedSpan cpu_span(tracer_, track_, ids_->recv_cpu,
                             ids_->cat_protocol);
    co_await des::delay(eng, des::from_seconds(cpu));
  }

  SimRecvStatus st;
  st.src = inf.src;
  st.tag = inf.tag;
  st.bytes = inf.bytes;
  world_->release_inflight_ref(slot);  // receiver-side reference
  co_return st;
}

SimRequest SimComm::isend(int dst, int tag, std::uint64_t bytes,
                          std::uintptr_t buffer_addr) {
  POLARIS_CHECK(dst >= 0 && dst < size());
  const std::uint32_t slot = request_pool_.acquire();
  world_->engine().spawn(
      isend_body(dst, tag, bytes, buffer_addr, send_seq_[dst]++, slot));
  return SimRequest(slot, request_pool_[slot].gen);
}

des::Task<void> SimComm::isend_body(int dst, int tag, std::uint64_t bytes,
                                    std::uintptr_t buffer_addr,
                                    std::uint64_t seq,
                                    std::uint32_t request_slot) {
  const SimStatus st = co_await send_impl(dst, tag, bytes, buffer_addr, seq);
  Request& r = request_pool_[request_slot];
  r.status = {.status = st};
  r.done.fire(world_->engine());
}

SimRequest SimComm::irecv(int src, int tag) {
  const std::uint32_t slot = request_pool_.acquire();
  // Post to the matcher NOW so posting order equals program order; only
  // the completion wait runs as a background process.
  world_->engine().spawn(irecv_body(post_recv_now(src, tag), slot));
  return SimRequest(slot, request_pool_[slot].gen);
}

des::Task<void> SimComm::irecv_body(RecvTicket ticket,
                                    std::uint32_t request_slot) {
  SimRecvStatus st = co_await recv_impl(ticket);
  Request& r = request_pool_[request_slot];
  r.status = st;
  r.done.fire(world_->engine());
}

des::Task<SimRecvStatus> SimComm::wait(SimRequest request) {
  POLARIS_CHECK_MSG(request.valid(), "wait on an empty request");
  Request& r = request_pool_[request.slot_];
  POLARIS_CHECK_MSG(r.gen == request.gen_,
                    "wait on a request that was already waited");
  obs::ScopedSpan span(tracer_, track_, ids_->wait, ids_->cat_p2p);
  co_await r.done.wait();
  SimRecvStatus st = r.status;
  ++r.gen;  // a waited handle cannot be waited again
  r.done.reset();
  request_pool_.release(request.slot_);
  co_return st;
}

des::Task<SimStatus> SimComm::wait_all(std::span<const SimRequest> requests) {
  obs::ScopedSpan span(tracer_, track_, ids_->wait_all, ids_->cat_p2p);
  SimStatus first_error = SimStatus::kOk;
  for (const SimRequest& req : requests) {
    POLARIS_CHECK_MSG(req.valid(), "wait_all on an empty request");
    Request& r = request_pool_[req.slot_];
    POLARIS_CHECK_MSG(r.gen == req.gen_,
                      "wait_all on a request that was already waited");
    co_await r.done.wait();
    if (first_error == SimStatus::kOk &&
        r.status.status != SimStatus::kOk) {
      first_error = r.status.status;
    }
    ++r.gen;  // a waited handle cannot be waited again
    r.done.reset();
    request_pool_.release(req.slot_);
  }
  co_return first_error;
}

des::Task<void> SimComm::compute(double flops, double mem_bytes) {
  const double t = world_->node().kernel_time(flops, mem_bytes);
  obs::ScopedSpan span(tracer_, track_, ids_->compute, ids_->cat_cpu);
  co_await des::delay(world_->engine(), des::from_seconds(t));
}

des::Task<void> SimComm::sleep(double seconds) {
  co_await des::delay(world_->engine(), des::from_seconds(seconds));
}

// -------------------------------------------------------------- collectives

des::Task<SimStatus> SimComm::run_schedule(const coll::Schedule& schedule,
                                           std::size_t elem_bytes) {
  POLARIS_CHECK(schedule.ranks == world_->ranks());
  auto& eng = world_->engine();
  SimStatus status = SimStatus::kOk;
  for (const coll::CommStep& step : schedule.per_rank[rank_]) {
    if (step.has_send() && step.has_recv()) {
      // Post both concurrently (MPI_Sendrecv) and join.  This coroutine is
      // the join's only waiter.
      std::uint32_t remaining = 2;
      des::OneShotEvent done;
      SimStatus send_st = SimStatus::kOk;
      SimRecvStatus recv_st;
      eng.spawn([](SimComm& c, const coll::CommStep& s,
                   std::size_t eb, std::uint32_t& rem,
                   des::OneShotEvent& join, SimStatus& out) -> des::Task<void> {
        out = co_await c.send(s.send_peer, kCollTag,
                              static_cast<std::uint64_t>(s.send_count) * eb);
        if (--rem == 0) join.fire(c.world_->engine());
      }(*this, step, elem_bytes, remaining, done, send_st));
      eng.spawn([](SimComm& c, const coll::CommStep& s, std::uint32_t& rem,
                   des::OneShotEvent& join,
                   SimRecvStatus& out) -> des::Task<void> {
        out = co_await c.recv(s.recv_peer, kCollTag);
        if (--rem == 0) join.fire(c.world_->engine());
      }(*this, step, remaining, done, recv_st));
      co_await done.wait();
      if (send_st != SimStatus::kOk) {
        status = send_st;
      } else if (recv_st.status != SimStatus::kOk) {
        status = recv_st.status;
      }
    } else if (step.has_send()) {
      status = co_await send(
          step.send_peer, kCollTag,
          static_cast<std::uint64_t>(step.send_count) * elem_bytes);
    } else if (step.has_recv()) {
      status = (co_await recv(step.recv_peer, kCollTag)).status;
    }
    // Partial failure surfaces immediately: skip the remaining steps on
    // this rank (peers discover the hole through their own failed steps).
    if (status != SimStatus::kOk) break;
  }
  co_return status;
}

des::Task<SimStatus> SimComm::barrier() {
  obs::ScopedSpan span(tracer_, track_, ids_->barrier, ids_->cat_coll);
  co_return co_await run_schedule(
      world_->collective_schedule(coll::Collective::kBarrier, 0, 0), 1);
}

des::Task<SimStatus> SimComm::broadcast(std::uint64_t bytes, int root) {
  obs::ScopedSpan span(tracer_, track_, ids_->broadcast, ids_->cat_coll);
  co_return co_await run_schedule(
      world_->collective_schedule(coll::Collective::kBroadcast, bytes, root),
      1);
}

des::Task<SimStatus> SimComm::allreduce(std::uint64_t bytes) {
  obs::ScopedSpan span(tracer_, track_, ids_->allreduce, ids_->cat_coll);
  co_return co_await run_schedule(
      world_->collective_schedule(coll::Collective::kAllreduce, bytes, 0),
      1);
}

// ------------------------------------------------------------------ SimWorld

SimWorld::SimWorld(std::size_t ranks, fabric::FabricParams fabric_params,
                   std::unique_ptr<fabric::Topology> topology,
                   hw::NodeModel node, std::uint32_t eager_override)
    : node_(node) {
  POLARIS_CHECK(ranks >= 1);
  topo_ = topology ? std::move(topology)
                   : fabric::make_default_topology(std::max<std::size_t>(
                         ranks, 2));
  POLARIS_CHECK_MSG(topo_->node_count() >= ranks,
                    "topology too small for rank count");
  eager_threshold_ = eager_override != 0 ? eager_override
                                         : fabric_params.eager_threshold;
  network_ = std::make_unique<fabric::SimNetwork>(
      engine_, std::move(fabric_params), *topo_);
  comms_.reserve(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    comms_.push_back(std::unique_ptr<SimComm>(
        new SimComm(*this, static_cast<int>(r), ranks)));
  }
}

void SimWorld::release_inflight_ref(std::uint32_t slot) {
  detail::InFlight& f = inflight_pool_[slot];
  POLARIS_DCHECK(f.refs > 0);
  if (--f.refs == 0) {
    ++f.gen;  // invalidates matcher cookies pointing at this slot
    inflight_pool_.release(slot);
  }
}

void SimWorld::launch(std::function<des::Task<void>(SimComm&)> program) {
  programs_.push_back(std::move(program));
  auto& prog = programs_.back();
  ranks_launched_ += comms_.size();
  for (auto& c : comms_) {
    // Wrap the program so rank completion is observable mid-run (the
    // scenario runner's "no wedged ranks" monitor reads ranks_finished()).
    engine_.spawn([](SimWorld& w, std::function<des::Task<void>(SimComm&)>& p,
                     SimComm& comm) -> des::Task<void> {
      co_await p(comm);
      ++w.ranks_finished_;
    }(*this, prog, *c));
  }
}

void SimWorld::attach_tracer(obs::Tracer& tracer) {
  const bool rebind = bound_tracer_ == &tracer;
  bound_tracer_ = &tracer;
  if (!rebind) trace_ids_.intern_all(tracer);
  for (auto& c : comms_) {
    c->tracer_ = &tracer;
    c->ids_ = &trace_ids_;
    if (!rebind) {
      c->track_ =
          tracer.add_track("ranks", "rank " + std::to_string(c->rank_));
    }
  }
  network_->attach_tracer(tracer);
}

void SimWorld::detach_tracer() {
  for (auto& c : comms_) c->tracer_ = nullptr;
  network_->detach_tracer();
}

namespace detail {

void TraceIds::intern_all(obs::Tracer& tracer) {
  send = tracer.intern("send");
  eager_inject = tracer.intern("eager:inject");
  retry = tracer.intern("retry");
  recv = tracer.intern("recv");
  recv_wait = tracer.intern("recv:wait");
  recv_cpu = tracer.intern("recv:cpu");
  reg_miss = tracer.intern("reg-miss");
  reg_hit = tracer.intern("reg-hit");
  wait = tracer.intern("wait");
  wait_all = tracer.intern("wait_all");
  compute = tracer.intern("compute");
  barrier = tracer.intern("barrier");
  broadcast = tracer.intern("broadcast");
  allreduce = tracer.intern("allreduce");

  cat_eager = tracer.intern("eager");
  cat_rendezvous = tracer.intern("rendezvous");
  cat_rdma = tracer.intern("rdma");
  cat_protocol = tracer.intern("protocol");
  cat_fault = tracer.intern("fault");
  cat_p2p = tracer.intern("p2p");
  cat_reg = tracer.intern("reg");
  cat_cpu = tracer.intern("cpu");
  cat_coll = tracer.intern("coll");

  rdv.rts = tracer.intern("rdv:rts");
  rdv.sync = tracer.intern("rdv:sync");
  rdv.stage = tracer.intern("rdv:stage");
  rdv.reg = tracer.intern("rdv:reg");
  rdv.payload = tracer.intern("rdv:payload");
  rdma.rts = tracer.intern("rdma:rts");
  rdma.sync = tracer.intern("rdma:sync");
  rdma.stage = tracer.intern("rdma:stage");
  rdma.reg = tracer.intern("rdma:reg");
  rdma.payload = tracer.intern("rdma:payload");
}

}  // namespace detail

void SimWorld::enable_faults(fault::Injector& injector, RetryPolicy policy) {
  POLARIS_CHECK(policy.max_retries < 250 && policy.backoff > 0.0 &&
                policy.backoff_factor >= 1.0 && policy.recv_timeout >= 0.0);
  injector_ = &injector;
  retry_policy_ = policy;
  network_->enable_faults();
}

void SimWorld::attach_metrics(obs::MetricsRegistry& metrics) {
  metrics_ = &metrics;
  for (auto& c : comms_) {
    c->sends_counter_ = &metrics.counter("simrt.sends");
    c->msg_bytes_ = &metrics.log_histogram("simrt.msg_bytes");
  }
}

double SimWorld::run() {
  const des::SimTime t0 = engine_.now();
  engine_.run();
  if (metrics_) {
    // Totals mirrored as gauges: idempotent across repeated run() calls.
    const des::EngineStats es = engine_.stats();
    metrics_->gauge("des.events_executed").set(
        static_cast<double>(es.executed));
    metrics_->gauge("des.events_scheduled").set(
        static_cast<double>(es.scheduled));
    metrics_->gauge("des.max_queue_depth").set(
        static_cast<double>(es.max_queue_depth));
    metrics_->gauge("des.pool_capacity").set(
        static_cast<double>(es.pool_capacity));
    metrics_->gauge("des.pool_in_use").set(
        static_cast<double>(es.pool_in_use));
    metrics_->gauge("des.max_pool_in_use").set(
        static_cast<double>(es.max_pool_in_use));
    metrics_->gauge("des.sbo_misses").set(
        static_cast<double>(es.sbo_misses));
    metrics_->gauge("des.tombstones_reaped").set(
        static_cast<double>(es.cancelled_skipped));
    const fabric::NetworkStats& ns = network_->stats();
    metrics_->gauge("fabric.messages").set(static_cast<double>(ns.messages));
    metrics_->gauge("fabric.bytes").set(static_cast<double>(ns.bytes));
    metrics_->gauge("fabric.packets").set(static_cast<double>(ns.packets));
    metrics_->gauge("fabric.circuit_hits").set(
        static_cast<double>(ns.circuit_hits));
    metrics_->gauge("fabric.circuit_misses").set(
        static_cast<double>(ns.circuit_misses));
    metrics_->gauge("fabric.link_busy_s").set(ns.total_link_busy_s);
    metrics_->gauge("fabric.messages_bypassed").set(
        static_cast<double>(ns.messages_bypassed));
    metrics_->gauge("fabric.messages_walked").set(
        static_cast<double>(ns.messages_walked));
    metrics_->gauge("fabric.flights_materialized").set(
        static_cast<double>(ns.flights_materialized));
    metrics_->gauge("fabric.walker_hop_events").set(
        static_cast<double>(ns.walker_hop_events));
    metrics_->gauge("fabric.bypass_rate").set(ns.bypass_rate());
    if (injector_) {
      metrics_->gauge("fabric.messages_dropped").set(
          static_cast<double>(ns.messages_dropped));
      metrics_->gauge("fault.msg_retries").set(
          static_cast<double>(msg_retries_));
      metrics_->gauge("fault.msgs_dropped").set(
          static_cast<double>(msg_drops_));
      metrics_->gauge("fault.recv_timeouts").set(
          static_cast<double>(recv_timeouts_));
    }
    std::uint64_t eager = 0, rdv = 0, reg_hits = 0, reg_misses = 0;
    std::uint64_t m_posted = 0, m_arrived = 0, m_hits_posted = 0,
                  m_hits_unexpected = 0;
    std::size_t m_posted_depth = 0, m_unexp_depth = 0, m_pool = 0,
                m_held = 0, req_pool = 0;
    for (const auto& c : comms_) {
      eager += c->eager_count_;
      rdv += c->rendezvous_count_;
      reg_hits += c->reg_stats().hits;
      reg_misses += c->reg_stats().misses;
      const msg::MatchStats& ms = c->match_stats();
      m_posted += ms.posted;
      m_arrived += ms.arrived;
      m_hits_posted += ms.matched_posted;
      m_hits_unexpected += ms.matched_unexpected;
      m_posted_depth = std::max(m_posted_depth, ms.max_posted_depth);
      m_unexp_depth = std::max(m_unexp_depth, ms.max_unexpected_depth);
      m_pool += c->matcher_pool_capacity();
      m_held = std::max(m_held, c->max_held_depth());
      req_pool += c->request_pool_capacity();
    }
    metrics_->gauge("simrt.eager_sends").set(static_cast<double>(eager));
    metrics_->gauge("simrt.rendezvous_sends").set(static_cast<double>(rdv));
    metrics_->gauge("msg.reg_cache.hits").set(static_cast<double>(reg_hits));
    metrics_->gauge("msg.reg_cache.misses").set(
        static_cast<double>(reg_misses));
    metrics_->gauge("msg.match.posted").set(static_cast<double>(m_posted));
    metrics_->gauge("msg.match.arrived").set(static_cast<double>(m_arrived));
    metrics_->gauge("msg.match.matched_posted").set(
        static_cast<double>(m_hits_posted));
    metrics_->gauge("msg.match.matched_unexpected").set(
        static_cast<double>(m_hits_unexpected));
    metrics_->gauge("msg.match.max_posted_depth").set(
        static_cast<double>(m_posted_depth));
    metrics_->gauge("msg.match.max_unexpected_depth").set(
        static_cast<double>(m_unexp_depth));
    metrics_->gauge("msg.match.pool_capacity").set(
        static_cast<double>(m_pool));
    metrics_->gauge("simrt.max_held_depth").set(
        static_cast<double>(m_held));
    metrics_->gauge("simrt.request_pool_capacity").set(
        static_cast<double>(req_pool));
    metrics_->gauge("simrt.inflight_pool_capacity").set(
        static_cast<double>(inflight_pool_capacity()));
    metrics_->gauge("simrt.max_inflight_in_use").set(
        static_cast<double>(max_inflight_in_use_));
  }
  return des::to_seconds(engine_.now() - t0);
}

std::uint64_t SimWorld::pack_schedule_key(coll::Collective kind,
                                          std::size_t count, int root) {
  POLARIS_CHECK(count < (std::uint64_t{1} << 40));
  POLARIS_CHECK(root >= 0 && root < (1 << 16));
  return (static_cast<std::uint64_t>(count) << 24) |
         (static_cast<std::uint64_t>(root) << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind));
}

const coll::Schedule& SimWorld::collective_schedule(coll::Collective kind,
                                                    std::size_t count,
                                                    int root) {
  const std::uint64_t key = pack_schedule_key(kind, count, root);
  if (const std::uint32_t* idx = schedule_cache_.find(key)) {
    return schedules_[*idx];
  }
  coll::Schedule schedule;
  if (kind == coll::Collective::kBarrier) {
    schedule = coll::barrier(ranks());
  } else {
    const auto a =
        coll::select_algorithm(kind, ranks(), count, 1, loggp(), root);
    schedule = coll::make_schedule(kind, a, ranks(), count, root);
  }
  schedules_.push_back(std::move(schedule));
  const auto idx = static_cast<std::uint32_t>(schedules_.size() - 1);
  schedule_cache_[key] = idx;
  return schedules_[idx];
}

void SimWorld::set_placement(std::vector<fabric::NodeId> nodes) {
  POLARIS_CHECK_MSG(nodes.size() == comms_.size(),
                    "placement must name one host per rank");
  std::vector<std::uint8_t> seen(topo_->node_count(), 0);
  for (const fabric::NodeId n : nodes) {
    POLARIS_CHECK_MSG(n < topo_->node_count(), "placement host out of range");
    POLARIS_CHECK_MSG(!seen[n], "placement hosts must be distinct");
    seen[n] = 1;
  }
  placement_ = std::move(nodes);
}

fabric::NodeId SimComm::node_of(int rank) const {
  return world_->node_of(rank);
}

fabric::LogGPParams SimWorld::loggp() const {
  const std::size_t far = comms_.size() > 1 ? comms_.size() - 1 : 1;
  const int hops = static_cast<int>(
      topo_->switch_hops(node_of(0), node_of(static_cast<int>(far))));
  return fabric::extract_loggp(network_->params(), std::max(hops, 1));
}

}  // namespace polaris::simrt
