#include "polaris/fabric/network.hpp"

#include <algorithm>
#include <string>

#include "polaris/support/check.hpp"

namespace polaris::fabric {

SimNetwork::SimNetwork(des::Engine& engine, FabricParams params,
                       const Topology& topology)
    : engine_(engine), params_(std::move(params)), topo_(topology) {
  POLARIS_CHECK(params_.link_bw > 0 && params_.mtu > 0);
  links_.assign(topo_.link_count(), LinkState{});
  link_busy_ticks_.assign(topo_.link_count(), 0);
  // Per-hop propagation in ticks, rounded exactly as the semaphore model
  // rounded its per-hop delay() arguments (one from_seconds per hop).
  prop_mid_ = des::from_seconds(params_.wire_latency + params_.switch_latency);
  prop_last_ = des::from_seconds(params_.wire_latency);
  if (params_.circuit_setup > 0.0) {
    circuits_.resize(topo_.node_count());
  }
}

SimNetwork::PacketPlan SimNetwork::plan_packets(std::uint64_t bytes) const {
  if (bytes == 0) {
    // Pure latency probe: one zero-length packet — propagation and
    // overheads only, no serialization occupancy anywhere on the path.
    return {1, 0};
  }
  PacketPlan plan;
  const std::uint64_t raw =
      (bytes + params_.mtu - 1) / params_.mtu;  // ceil-div
  plan.count = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(raw, 1, kMaxPackets));
  plan.bytes_per_packet = (bytes + plan.count - 1) / plan.count;
  return plan;
}

void SimNetwork::transfer_raw(NodeId src, NodeId dst, std::uint64_t bytes,
                              DoneFn done, void* ctx) {
  POLARIS_CHECK(src < topo_.node_count() && dst < topo_.node_count());
  ++stats_.messages;
  stats_.bytes += bytes;

  if (src == dst) {
    if (faults_enabled_ && node_down_[src] != 0) {
      ++stats_.messages_dropped;
      deliver_async(done, ctx, XferStatus::kNodeDown);
      return;
    }
    // Intra-node: one host copy, one event.
    const double t = static_cast<double>(bytes) / params_.copy_bw;
    RawTransfer& rt = take(raw_transfers_);
    rt.done = done;
    rt.ctx = ctx;
    rt.status = XferStatus::kOk;
    engine_.schedule_raw_after(des::from_seconds(t), &deliver_status_cb, &rt);
    return;
  }

  if (params_.circuit_setup > 0.0 && !circuit_ready(src, dst)) {
    // Park behind the reconfiguration delay in a pooled record, then
    // inject.
    RawTransfer& rt = take(raw_transfers_);
    rt.src = src;
    rt.dst = dst;
    rt.bytes = bytes;
    rt.done = done;
    rt.ctx = ctx;
    engine_.schedule_raw_after(des::from_seconds(params_.circuit_setup),
                               &raw_setup_done_cb, &rt);
    return;
  }

  inject(src, dst, bytes, done, ctx);
}

void SimNetwork::raw_setup_done_cb(void* ctx) {
  RawTransfer& rt = *static_cast<RawTransfer*>(ctx);
  SimNetwork* net = rt.net;
  const NodeId src = rt.src;
  const NodeId dst = rt.dst;
  const std::uint64_t bytes = rt.bytes;
  const DoneFn done = rt.done;
  void* done_ctx = rt.ctx;
  net->raw_transfers_.release(rt.slot);
  net->inject(src, dst, bytes, done, done_ctx);
}

const std::vector<LinkId>& SimNetwork::select_path(NodeId src, NodeId dst,
                                                   des::SimTime ser_total) {
  const std::size_t choices = topo_.route_choices(src, dst);
  if (choices <= 1) return topo_.route(src, dst);
  ++stats_.adaptive_decisions;
  const des::SimTime now = engine_.now();
  const std::vector<LinkId>* best = nullptr;
  std::size_t best_k = 0;
  des::SimTime best_cost = 0;
  for (std::size_t k = 0; k < choices; ++k) {
    const std::vector<LinkId>& cand = topo_.route_k(src, dst, k);
    des::SimTime cost = 0;
    bool down = false;
    for (const LinkId l : cand) {
      if (faults_enabled_ && link_down_[l] != 0) {
        down = true;
        break;
      }
      const LinkState& ls = links_[l];
      // Queued serialization plus a per-in-flight-message penalty of this
      // message's own serialization time: tier-1 flights reserve no
      // busy_until, so inflight is the only signal that sees them.
      if (ls.busy_until > now) cost += ls.busy_until - now;
      cost += static_cast<des::SimTime>(ls.inflight) * ser_total;
    }
    if (down) continue;
    if (best == nullptr || cost < best_cost) {
      best = &cand;
      best_k = k;
      best_cost = cost;
      if (cost == 0) break;  // an idle path; lower k cannot beat it
    }
  }
  if (best == nullptr) {
    // Every candidate crosses a downed link: fall back to the oblivious
    // path and let the injection refusal scan fail the message.
    return topo_.route(src, dst);
  }
  if (best_k != 0) ++stats_.adaptive_rerouted;
  return *best;
}

void SimNetwork::inject(NodeId src, NodeId dst, std::uint64_t bytes,
                        DoneFn done, void* ctx) {
  const PacketPlan plan = plan_packets(bytes);
  const des::SimTime ser = serialize_ticks(plan.bytes_per_packet);

  // Borrowed straight out of the Topology route cache (node-based map:
  // the reference stays valid for the message lifetime) — no per-message
  // route copy.  Oblivious mode never touches route_k: identical lookups,
  // identical paths, identical traces.
  const std::vector<LinkId>& path =
      routing_ == RoutingMode::kAdaptive
          ? select_path(src, dst,
                        ser * static_cast<des::SimTime>(plan.count))
          : topo_.route(src, dst);

  if (faults_enabled_) {
    // Refuse at the NIC: deterministic routing means a message whose source,
    // destination, or any routed link is down cannot arrive — fail it now
    // (one zero-delay event) instead of walking it into a dead element.
    XferStatus refuse = XferStatus::kOk;
    if (node_down_[src] != 0 || node_down_[dst] != 0) {
      refuse = XferStatus::kNodeDown;
    } else {
      for (const LinkId l : path) {
        if (link_down_[l] != 0) {
          refuse = XferStatus::kLinkDown;
          break;
        }
      }
    }
    if (refuse != XferStatus::kOk) {
      ++stats_.messages_dropped;
      deliver_async(done, ctx, refuse);
      return;
    }
  }

  stats_.packets += plan.count;

  // Any in-flight analytic flight sharing a link with this path could be
  // delayed by our packets (and vice versa), so its closed-form completion
  // is no longer trustworthy: demote it to walkers positioned exactly
  // where its packets are right now, before we inject.
  for (const LinkId l : path) {
    const std::uint32_t fs = links_[l].flight;
    if (fs != kNoFlight) materialize_flight(flights_[fs]);
  }
  bool idle = true;
  for (const LinkId l : path) {
    if (links_[l].inflight != 0) {
      idle = false;
      break;
    }
  }
  if (idle) {
    begin_flight(src, dst, path, ser, plan.count, done, ctx);
  } else {
    begin_walk(src, dst, path, ser, plan.count, done, ctx);
  }
}

// ------------------------------------------------------- tier 1: flights

void SimNetwork::begin_flight(NodeId src, NodeId dst,
                              const std::vector<LinkId>& path,
                              des::SimTime ser, std::uint32_t packets,
                              DoneFn done, void* ctx) {
  Flight& f = take(flights_);
  f.path = &path;
  f.start = engine_.now();
  f.ser = ser;
  f.packets = packets;
  f.src = src;
  f.dst = dst;
  f.done_fn = done;
  f.done_ctx = ctx;
  f.active = true;
  for (const LinkId l : path) {
    LinkState& ls = links_[l];
    ++ls.inflight;
    ls.flight = f.slot;
  }
  // Cut-through pipeline, exact tick arithmetic: packet i starts
  // serializing on link j at start + (i+j)*ser + j*prop_mid, with no
  // bubbles on an idle path; the last byte lands prop_last after the last
  // packet leaves the last link.
  const auto hops = static_cast<des::SimTime>(path.size());
  const des::SimTime completion = f.start + (packets + hops - 1) * ser +
                                  (hops - 1) * prop_mid_ + prop_last_;
  f.completion = engine_.schedule_raw_at(completion, &flight_complete_cb, &f);
}

void SimNetwork::flight_complete_cb(void* ctx) {
  Flight& f = *static_cast<Flight*>(ctx);
  f.net->complete_flight(f, /*defer_resume=*/false);
}

void SimNetwork::complete_flight(Flight& f, bool defer_resume) {
  const std::vector<LinkId>& path = *f.path;
  for (std::size_t j = 0; j < path.size(); ++j) {
    LinkState& ls = links_[path[j]];
    --ls.inflight;
    ls.flight = kNoFlight;
    // The message's occupancy of link j is one contiguous interval
    // starting when the head packet reaches it.
    const des::SimTime s0 =
        f.start + static_cast<des::SimTime>(j) * (f.ser + prop_mid_);
    credit_link(path[j], s0, f.ser, f.packets);
  }
  ++stats_.messages_bypassed;
  const DoneFn done = f.done_fn;
  void* ctx = f.done_ctx;
  f.active = false;
  flights_.release(f.slot);
  if (defer_resume) {
    // Settled from inside another message's injection: complete after the
    // current event, as the cancelled completion event would have.
    deliver_async(done, ctx, XferStatus::kOk);
  } else {
    done(ctx, XferStatus::kOk);
  }
}

void SimNetwork::materialize_flight(Flight& f) {
  engine_.cancel(f.completion);
  const des::SimTime t = engine_.now();
  const std::vector<LinkId>& path = *f.path;
  const auto hops = static_cast<des::SimTime>(path.size());
  const des::SimTime ser = f.ser;
  const des::SimTime last_completion = f.start + (f.packets + hops - 1) * ser +
                                       (hops - 1) * prop_mid_ + prop_last_;
  if (last_completion <= t) {
    // The last byte lands at exactly this tick; the completion event just
    // sits later in this tick's event list.  The links are already free
    // (occupancy ended before delivery), so settle analytically.
    complete_flight(f, /*defer_resume=*/true);
    return;
  }
  ++stats_.flights_materialized;

  WalkMessage& m = take(walks_);
  m.path = f.path;
  m.ser = ser;
  m.remaining = 0;
  m.count = f.packets;
  m.src = f.src;
  m.dst = f.dst;
  m.done_fn = f.done_fn;
  m.done_ctx = f.done_ctx;
  m.from_flight = true;
  m.active = true;
  for (std::uint32_t i = 0; i < f.packets; ++i) {
    // On the uncontended path the flight flew so far, packet i reaches
    // (and immediately starts serializing on) link j at
    //   a(i, j) = start + (i+j)*ser + j*prop_mid.
    const des::SimTime completion_i =
        f.start + (i + hops) * ser + (hops - 1) * prop_mid_ + prop_last_;
    std::size_t j = 0;
    for (; j < path.size(); ++j) {
      const des::SimTime a = f.start +
                             (i + static_cast<des::SimTime>(j)) * ser +
                             static_cast<des::SimTime>(j) * prop_mid_;
      if (a > t) break;
      // Replay the reservation this packet has already made.
      LinkState& ls = links_[path[j]];
      ls.busy_until = std::max(ls.busy_until, a + ser);
      credit_link(path[j], a, ser, 1);
    }
    if (completion_i <= t) continue;  // fully delivered already
    Walker& w = m.walkers[i];
    w.msg = &m;
    if (j == 0) {
      // Packet hasn't started its first hop.  In the semaphore model every
      // packet queues on link 0 at injection, so its FIFO slot there
      // predates any message injected after the flight; replay that claim
      // now (interval [a(i,0), a(i,0)+ser] is still back-to-back exact)
      // instead of letting a later walker reserve ahead of it.
      const des::SimTime a0 = f.start + static_cast<des::SimTime>(i) * ser;
      LinkState& ls0 = links_[path[0]];
      ls0.busy_until = std::max(ls0.busy_until, a0 + ser);
      credit_link(path[0], a0, ser, 1);
      j = 1;
      if (j == path.size()) {
        w.next_hop = static_cast<std::uint32_t>(path.size());
        w.event = engine_.schedule_raw_at(completion_i, &walker_arrive_cb, &w);
        ++m.remaining;
        continue;
      }
    }
    if (j < path.size()) {
      // Pending event: arrival at link j (a future uncontended arrival
      // stays correct — everything upstream of it already happened).
      w.next_hop = static_cast<std::uint32_t>(j);
      const des::SimTime a = f.start +
                             (i + static_cast<des::SimTime>(j)) * ser +
                             static_cast<des::SimTime>(j) * prop_mid_;
      w.event = engine_.schedule_raw_at(a, &walker_arrive_cb, &w);
    } else {
      // All links traversed; only the final wire flight remains.
      w.next_hop = static_cast<std::uint32_t>(path.size());
      w.event = engine_.schedule_raw_at(completion_i, &walker_arrive_cb, &w);
    }
    ++m.remaining;
  }
  // The walk inherits the flight's in-flight marks on every path link.
  for (const LinkId l : path) links_[l].flight = kNoFlight;
  f.active = false;
  flights_.release(f.slot);
}

// ------------------------------------------------------- tier 2: walkers

void SimNetwork::begin_walk(NodeId src, NodeId dst,
                            const std::vector<LinkId>& path, des::SimTime ser,
                            std::uint32_t packets, DoneFn done, void* ctx) {
  WalkMessage& m = take(walks_);
  m.path = &path;
  m.ser = ser;
  m.remaining = packets;
  m.count = packets;
  m.src = src;
  m.dst = dst;
  m.done_fn = done;
  m.done_ctx = ctx;
  m.from_flight = false;
  m.active = true;
  for (const LinkId l : path) ++links_[l].inflight;
  // All packets reach the first link now; reserving in index order is the
  // FIFO order the semaphore model granted in.
  for (std::uint32_t i = 0; i < packets; ++i) {
    Walker& w = m.walkers[i];
    w.msg = &m;
    w.next_hop = 0;
    advance_walker(w);
  }
}

void SimNetwork::walker_arrive_cb(void* ctx) {
  Walker& w = *static_cast<Walker*>(ctx);
  WalkMessage& m = *w.msg;
  if (w.next_hop == m.path->size()) {
    m.net->finish_walk_packet(m);
  } else {
    m.net->advance_walker(w);
  }
}

void SimNetwork::advance_walker(Walker& w) {
  WalkMessage& m = *w.msg;
  const std::vector<LinkId>& path = *m.path;
  const LinkId l = path[w.next_hop];
  LinkState& ls = links_[l];
  // Arrival-order reservation == semaphore FIFO grant order: whoever's
  // arrival event runs first serializes first, back to back.
  const des::SimTime start = std::max(engine_.now(), ls.busy_until);
  const des::SimTime end = start + m.ser;
  ls.busy_until = end;
  credit_link(l, start, m.ser, 1);
  ++w.next_hop;
  const bool last = w.next_hop == path.size();
  ++stats_.walker_hop_events;
  w.event = engine_.schedule_raw_at(end + (last ? prop_last_ : prop_mid_),
                                    &walker_arrive_cb, &w);
}

void SimNetwork::finish_walk_packet(WalkMessage& m) {
  if (--m.remaining != 0) return;
  for (const LinkId l : *m.path) --links_[l].inflight;
  if (!m.from_flight) ++stats_.messages_walked;
  const DoneFn done = m.done_fn;
  void* ctx = m.done_ctx;
  m.active = false;
  walks_.release(m.slot);
  done(ctx, XferStatus::kOk);
}

// ------------------------------------------------------- fault machinery

void SimNetwork::enable_faults() {
  if (faults_enabled_) return;
  faults_enabled_ = true;
  node_down_.assign(topo_.node_count(), 0);
  link_down_.assign(topo_.link_count(), 0);
}

void SimNetwork::set_node_up(NodeId node, bool up) {
  enable_faults();
  POLARIS_CHECK(node < topo_.node_count());
  if ((node_down_[node] != 0) == !up) return;
  node_down_[node] = up ? 0 : 1;
  if (up) return;
  // Kill every in-flight message with an endpoint on the dead node.  Both
  // pools are scanned (they stay small: high-watermark of concurrent
  // messages); a crash is far off the per-message hot path.
  for (Flight& f : flights_) {
    if (f.active && (f.src == node || f.dst == node)) {
      kill_flight(f, XferStatus::kNodeDown);
    }
  }
  for (WalkMessage& m : walks_) {
    if (m.active && (m.src == node || m.dst == node)) {
      kill_walk(m, XferStatus::kNodeDown);
    }
  }
}

void SimNetwork::set_link_up(LinkId link, bool up) {
  enable_faults();
  POLARIS_CHECK(link < topo_.link_count());
  if ((link_down_[link] != 0) == !up) return;
  link_down_[link] = up ? 0 : 1;
  if (up) return;
  // At most one flight can hold the link (flights are pairwise
  // link-disjoint), and it is the registered exclusive holder.
  const std::uint32_t fs = links_[link].flight;
  if (fs != kNoFlight) kill_flight(flights_[fs], XferStatus::kLinkDown);
  for (WalkMessage& m : walks_) {
    if (!m.active) continue;
    for (const LinkId l : *m.path) {
      if (l == link) {
        kill_walk(m, XferStatus::kLinkDown);
        break;
      }
    }
  }
}

void SimNetwork::deliver_async(DoneFn done, void* ctx, XferStatus status) {
  RawTransfer& rt = take(raw_transfers_);
  rt.done = done;
  rt.ctx = ctx;
  rt.status = status;
  engine_.schedule_raw_after(0, &deliver_status_cb, &rt);
}

void SimNetwork::deliver_status_cb(void* ctx) {
  RawTransfer& rt = *static_cast<RawTransfer*>(ctx);
  SimNetwork* net = rt.net;
  const DoneFn done = rt.done;
  void* done_ctx = rt.ctx;
  const XferStatus status = rt.status;
  net->raw_transfers_.release(rt.slot);
  done(done_ctx, status);
}

void SimNetwork::kill_flight(Flight& f, XferStatus status) {
  engine_.cancel(f.completion);
  for (const LinkId l : *f.path) {
    LinkState& ls = links_[l];
    --ls.inflight;
    ls.flight = kNoFlight;
  }
  ++stats_.messages_dropped;
  const DoneFn done = f.done_fn;
  void* ctx = f.done_ctx;
  f.active = false;
  flights_.release(f.slot);
  deliver_async(done, ctx, status);
}

void SimNetwork::kill_walk(WalkMessage& m, XferStatus status) {
  // Every packet's pending event is cancelled; already-delivered packets
  // hold stale EventIds, for which cancel() is a safe no-op.
  for (std::uint32_t i = 0; i < m.count; ++i) {
    engine_.cancel(m.walkers[i].event);
  }
  for (const LinkId l : *m.path) --links_[l].inflight;
  ++stats_.messages_dropped;
  const DoneFn done = m.done_fn;
  void* ctx = m.done_ctx;
  m.active = false;
  walks_.release(m.slot);
  deliver_async(done, ctx, status);
}

// ------------------------------------------------------------ bookkeeping

void SimNetwork::credit_link(LinkId l, des::SimTime begin, des::SimTime ser,
                             std::uint32_t count) {
  const des::SimTime busy = ser * static_cast<des::SimTime>(count);
  link_busy_ticks_[l] += busy;
  stats_.total_link_busy_s += des::to_seconds(busy);
  if (tracer_) {
    // One span per reservation; a bypassed message credits each link with a
    // single merged span whose duration covers all its packets.
    tracer_->complete_span(link_track(l), busy_id_, cat_link_id_, begin,
                           busy);
  }
}

// ---------------------------------------------------------------- circuits

bool SimNetwork::CircuitCache::touch(NodeId d) {
  for (std::uint32_t i = 0; i < size; ++i) {
    if (dst[i] == d) {
      for (std::uint32_t j = i; j > 0; --j) dst[j] = dst[j - 1];
      dst[0] = d;
      return true;
    }
  }
  return false;
}

void SimNetwork::CircuitCache::insert(NodeId d) {
  if (size < dst.size()) ++size;
  for (std::uint32_t j = size - 1; j > 0; --j) dst[j] = dst[j - 1];
  dst[0] = d;
}

bool SimNetwork::circuit_ready(NodeId src, NodeId dst) {
  CircuitCache& cache = circuits_[src];
  if (cache.touch(dst)) {
    ++stats_.circuit_hits;
    if (tracer_) {
      tracer_->instant(circuit_track_,
                       "hit " + std::to_string(src) + "->" +
                           std::to_string(dst),
                       "circuit");
    }
    return true;
  }
  ++stats_.circuit_misses;
  if (tracer_) {
    tracer_->complete_span(circuit_track_,
                           "setup " + std::to_string(src) + "->" +
                               std::to_string(dst),
                           "circuit", engine_.now(),
                           des::from_seconds(params_.circuit_setup));
  }
  // Install before the delay so concurrent senders to the same destination
  // pay setup once (optimistic: their data rides the path being set up).
  cache.insert(dst);
  return false;
}

// ------------------------------------------------------------------ queries

double SimNetwork::uncongested_seconds(NodeId src, NodeId dst,
                                       std::uint64_t bytes,
                                       bool assume_circuit) const {
  if (src == dst) return static_cast<double>(bytes) / params_.copy_bw;
  const auto h = topo_.hop_count(src, dst);
  const PacketPlan plan = plan_packets(bytes);
  const double ser =
      static_cast<double>(plan.bytes_per_packet) / params_.link_bw;
  double t = static_cast<double>(plan.count + h - 1) * ser +
             params_.path_latency(static_cast<int>(h) - 1);
  if (params_.circuit_setup > 0.0 && !assume_circuit) {
    t += params_.circuit_setup;
  }
  return t;
}

double SimNetwork::link_busy_seconds(LinkId id) const {
  POLARIS_CHECK(id < link_busy_ticks_.size());
  return des::to_seconds(link_busy_ticks_[id]);
}

void SimNetwork::attach_tracer(obs::Tracer& tracer) {
  tracer_ = &tracer;
  if (bound_tracer_ == &tracer) return;  // rebind after detach_tracer
  bound_tracer_ = &tracer;
  // The per-reservation link span is the hottest record site in the
  // simulator: cache its interned names.  Circuit spans keep dynamic
  // "src->dst" names (cold, one per setup/hit).
  busy_id_ = tracer.intern("busy");
  cat_link_id_ = tracer.intern("link");
  link_tracks_.assign(topo_.link_count(), kNoTrack);
  if (params_.circuit_setup > 0.0) {
    circuit_track_ = tracer.add_track("links", "circuits");
  }
}

obs::TrackId SimNetwork::link_track(LinkId id) {
  obs::TrackId& track = link_tracks_[id];
  if (track == kNoTrack) {
    track = tracer_->add_track("links", "link " + std::to_string(id));
  }
  return track;
}

}  // namespace polaris::fabric
