#include "polaris/pdes/world.hpp"

#include <algorithm>
#include <tuple>
#include <type_traits>
#include <utility>

#include "polaris/fabric/network.hpp"
#include "polaris/pdes/engine.hpp"
#include "polaris/support/check.hpp"
#include "polaris/support/rng.hpp"

namespace polaris::pdes {

namespace {

std::uint32_t ceil_log2(std::size_t n) {
  std::uint32_t s = 0;
  while ((std::size_t{1} << s) < n) ++s;
  return s;
}

}  // namespace

ShardWorld::ShardWorld(const Config& cfg, const fabric::Partition& part,
                       std::size_t shard, ShardedEngine* parent)
    : cfg_(cfg), part_(part), parent_(parent), shard_(shard) {
  first_ = part.first_node[shard];
  const Workload& wl = cfg.workload;
  w_ = wl.grid_w;
  h_ = wl.grid_h;
  POLARIS_CHECK(w_ >= 1 && h_ >= 1);
  stages_ = ceil_log2(wl.ranks());
  switch (wl.kind) {
    case AppKind::kHalo: per_iter_ = 1; break;
    case AppKind::kAllreduce: per_iter_ = stages_; break;
    case AppKind::kCg: per_iter_ = 1 + stages_; break;
  }
  total_phases_ = wl.iters * per_iter_;
  arrival_events_ = !cfg.faults.empty();
  o_send_ = des::from_seconds(cfg.fabric.o_send);
  o_recv_ = des::from_seconds(cfg.fabric.o_recv);
  compute_ = std::max<des::SimTime>(des::from_seconds(wl.compute_s), 1);
  // Dimension-order torus routing: switch_hops = wrapped Manhattan
  // distance + 1 (host attach + one switch per grid step).
  const std::size_t max_dist = w_ / 2 + h_ / 2;
  path_by_dist_.resize(max_dist + 1);
  for (std::size_t d = 0; d <= max_dist; ++d) {
    path_by_dist_[d] =
        des::from_seconds(cfg.fabric.path_latency(static_cast<int>(d) + 1));
  }
}

void ShardWorld::init() {
  cur_until_ = -1;
  out_min_ = des::Engine::kNoEventTime;
  ranks_.assign(part_.shard_size(shard_), RankState{});
  for (std::size_t lr = 0; lr < ranks_.size(); ++lr) {
    RankState& r = ranks_[lr];
    const std::uint32_t g = first_ + static_cast<std::uint32_t>(lr);
    r.alive_mask = 0;
    for (int d = 0; d < 4; ++d) {
      if (neighbor(g, d) != g) r.alive_mask |= static_cast<std::uint8_t>(1u << d);
    }
    if (total_phases_ == 0) {
      r.flags |= RankState::kFinished;
      continue;
    }
    schedule(0, MsgRec{g, static_cast<std::uint32_t>(lr), 0, Kind::kPhaseStart,
                       0, 0});
  }
  // Crashes are scheduled at init so their engine sequence numbers precede
  // every delivery scheduled during the run: at a shared tick the crash
  // always fires first, at any shard count.
  for (const RankFault& f : cfg_.faults) {
    POLARIS_CHECK_MSG(f.rank < cfg_.workload.ranks(), "fault rank out of range");
    if (part_.shard_of(f.rank) != shard_) continue;
    const des::SimTime t =
        std::max<des::SimTime>(des::from_seconds(f.time_s), 0);
    schedule(t, MsgRec{f.rank, f.rank - first_, 0, Kind::kCrash, 0, 0});
  }
}

void ShardWorld::begin_window() {
  out_min_ = des::Engine::kNoEventTime;
  scratch_.clear();
  // The other shards filled these mailboxes during the previous window and
  // fill the other side during this one; the window barrier orders the two.
  for (std::size_t src = 0; src < part_.shards; ++src) {
    if (src == shard_) continue;
    std::vector<Handoff>& box = parent_->mailbox(src, shard_, window_);
    scratch_.insert(scratch_.end(), box.begin(), box.end());
    box.clear();
  }
  ++window_;
  drain_batch_.record(scratch_.size());
  // Canonical ingestion order: arrival effects commute, but sorting makes
  // the fold order (no faults) or the engine's (t, seq) order (faults)
  // itself shard-independent — belt and braces for the determinism
  // contract.  Handoffs that tie up to `kind` share a sender rank, hence
  // a mailbox, so `seq` is their push order.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const Handoff& a, const Handoff& b) {
              return std::tie(a.t, a.rec.src, a.rec.phase, a.rec.kind,
                              a.seq) < std::tie(b.t, b.rec.src, b.rec.phase,
                                                b.rec.kind, b.seq);
            });
  for (const Handoff& h : scratch_) {
    POLARIS_CHECK_MSG(h.t > cur_until_,
                      "handoff violated the lookahead window");
    if (arrival_events_) {
      schedule(h.t, h.rec);
    } else {
      fold(h.t, h.rec);
    }
  }
}

void ShardWorld::run_window(des::SimTime until) {
  cur_until_ = until;
  const std::size_t n = engine_.run_until(until);
  events_ += n;
  window_events_.record(n);
}

void ShardWorld::dispatch(const MsgRec& rec) {
  switch (rec.kind) {
    case Kind::kPhaseStart: start_phase(rec.dst, rec.phase); break;
    case Kind::kPayload: fold(engine_.now(), rec); break;
    case Kind::kNack: on_nack(rec); break;
    case Kind::kCrash: on_crash(rec); break;
  }
}

void ShardWorld::start_phase(std::uint32_t lr, std::uint32_t p) {
  RankState& r = ranks_[lr];
  if (r.dead() || r.halted() || r.finished()) return;
  POLARIS_CHECK(p == r.phase && !r.phase_open());
  const std::uint32_t g = first_ + lr;
  const PhaseInfo pi = phase_info(p);
  int sent = 0;
  if (pi.is_halo) {
    r.need = r.alive_mask;
    for (int d = 0; d < 4; ++d) {
      const std::uint32_t nb = neighbor(g, d);
      if (nb == g) continue;
      if ((r.nbr_dead & (1u << d)) != 0) continue;  // known dead: no traffic
      send_msg(g, nb, payload_bytes(g, p, static_cast<std::uint8_t>(d),
                                    pi.bytes),
               p, static_cast<std::uint8_t>(d), ++sent);
    }
  } else {
    const std::uint32_t partner = g ^ (1u << pi.stage);
    if (partner < cfg_.workload.ranks()) {
      r.need = 1;
      send_msg(g, partner, payload_bytes(g, p, 0, pi.bytes), p, 0, ++sent);
    } else {
      r.need = 0;  // outside the hypercube: sit this stage out
    }
  }
  r.flags |= RankState::kPhaseOpen;
  check_complete(lr);
}

void ShardWorld::fold(des::SimTime t, const MsgRec& rec) {
  RankState& r = ranks_[rec.dst];
  if (r.dead()) {
    // The dead host's NIC reports the failure: a NACK retraces the path
    // back to the sender (wire latency only — no o_send, the host CPU is
    // gone), echoing the lane so the sender knows which direction died.
    ++nacks_;
    const std::uint32_t g = first_ + rec.dst;
    route(t + path_ticks(g, rec.src) + o_recv_, g, rec.src, Kind::kNack,
          static_cast<std::uint8_t>(fabric::XferStatus::kNodeDown), rec.lane,
          rec.phase);
    return;
  }
  const std::uint32_t q = rec.phase;
  if (r.finished() || q < r.phase) return;  // stale (receiver moved on)
  // Halo: the direction bit as the receiver sees it; stage: one more.
  const bool halo = phase_info(q).is_halo;
  const auto add = [&](std::uint8_t& got, des::SimTime& ready) {
    got = halo ? static_cast<std::uint8_t>(got | (1u << (rec.lane ^ 1)))
               : static_cast<std::uint8_t>(got + 1);
    ready = std::max(ready, t);
  };
  if (q == r.phase) {
    add(r.got, r.ready);
    check_complete(rec.dst);
  } else if (q == r.phase + 1) {
    add(r.next_got, r.next_ready);
  } else {
    // Further ahead (recursive doubling can run several stages ahead):
    // park until the receiver's phase reaches q - 1.
    const std::size_t before = parked_.size();
    Parked& pk = parked_[park_key(rec.dst, q)];
    if (parked_.size() != before) {
      POLARIS_CHECK_MSG(r.parked != 0xffff, "too many parked phases");
      ++r.parked;
    }
    add(pk.got, pk.ready);
  }
}

void ShardWorld::on_nack(const MsgRec& rec) {
  RankState& r = ranks_[rec.dst];
  if (r.dead() || r.finished()) return;
  if (phase_info(rec.phase).is_halo) {
    // Stencil ranks degrade: mark the direction dead, latch the observed
    // failure status, and keep iterating on the surviving neighbors.
    // Both updates are monotone, so same-tick NACK/payload races resolve
    // identically in any order.
    r.nbr_dead |= static_cast<std::uint8_t>(1u << rec.lane);
    r.status = std::max(r.status, rec.status);
    check_complete(rec.dst);
  } else {
    // A reduction cannot survive a lost contributor: latch the status and
    // halt before the next phase opens (the >= 1 tick phase gap guarantees
    // the latch is visible to start_phase regardless of same-tick order).
    r.status = std::max(r.status, rec.status);
    r.flags |= RankState::kHalted;
  }
}

void ShardWorld::on_crash(const MsgRec& rec) {
  RankState& r = ranks_[rec.dst];
  if (r.dead()) return;
  r.flags |= RankState::kDead;
  if (!r.finished()) r.status = kRankCrashed;
}

void ShardWorld::check_complete(std::uint32_t lr) {
  RankState& r = ranks_[lr];
  if (!r.phase_open() || r.dead()) return;
  const std::uint32_t p = r.phase;
  const bool done = phase_info(p).is_halo
                        ? ((r.got | r.nbr_dead) & r.need) == r.need
                        : r.got >= r.need;
  if (!done) return;
  // The phase opened at or before now, and `ready` is its latest arrival:
  // later than now only when that arrival was folded ahead of its tick.
  const des::SimTime at = std::max(r.ready, engine_.now());
  r.flags = static_cast<std::uint8_t>(r.flags & ~RankState::kPhaseOpen);
  r.done_at = at;
  r.hash = fnv_step(r.hash, p);
  r.hash = fnv_step(r.hash, static_cast<std::uint64_t>(at));
  r.phase = p + 1;
  r.got = r.next_got;
  r.ready = r.next_ready;
  r.next_got = 0;
  r.next_ready = 0;
  if (r.parked != 0) {
    if (const Parked* pk = parked_.find(park_key(lr, p + 2))) {
      r.next_got = pk->got;
      r.next_ready = pk->ready;
      parked_.erase(park_key(lr, p + 2));
      --r.parked;
    }
  }
  if (r.phase == total_phases_) {
    r.flags |= RankState::kFinished;
    return;
  }
  schedule(at + gap_before(r.phase),
           MsgRec{first_ + lr, lr, r.phase, Kind::kPhaseStart, 0, 0});
}

void ShardWorld::send_msg(std::uint32_t src_g, std::uint32_t dst_g,
                          std::uint64_t bytes, std::uint32_t phase,
                          std::uint8_t lane, int idx) {
  RankState& r = ranks_[src_g - first_];
  const des::SimTime now = engine_.now();
  // LogGP send: the CPU spends o_send per message (serialized on the
  // issuing core), the NIC serializes at link bandwidth, the wire adds
  // path latency, and the receive overhead is folded into the arrival so
  // arrival processing stays commutative.
  const des::SimTime inject = now + static_cast<des::SimTime>(idx) * o_send_;
  const des::SimTime nic_start = std::max(inject, r.nic_free);
  r.nic_free =
      nic_start + des::from_seconds(static_cast<double>(bytes) /
                                    cfg_.fabric.link_bw);
  const des::SimTime arrival = r.nic_free + path_ticks(src_g, dst_g) + o_recv_;
  route(arrival, src_g, dst_g, Kind::kPayload, 0, lane, phase);
}

void ShardWorld::route(des::SimTime t, std::uint32_t src_g,
                       std::uint32_t dst_g, Kind kind, std::uint8_t status,
                       std::uint8_t lane, std::uint32_t phase) {
  const std::size_t ds = part_.shard_of(dst_g);
  const MsgRec rec{src_g, dst_g - part_.first_node[ds], phase, kind, status,
                   lane};
  if (ds == shard_) {
    ++msgs_intra_;
    if (arrival_events_) {
      schedule(t, rec);
    } else {
      fold(t, rec);
    }
    return;
  }
  // The lookahead guarantee: any cross-shard effect is at least one full
  // min-cut path latency in the future, i.e. beyond this window.
  POLARIS_CHECK_MSG(t > cur_until_, "cross-shard send inside the window");
  std::vector<Handoff>& box = parent_->mailbox(shard_, ds, window_);
  box.push_back({t, rec, static_cast<std::uint32_t>(box.size())});
  if (t < out_min_) out_min_ = t;
  ++msgs_cross_;
}

void ShardWorld::schedule(des::SimTime t, const MsgRec& rec) {
  auto deliver = [this, rec] { dispatch(rec); };
  static_assert(sizeof(deliver) == 24 &&
                    std::is_trivially_copyable_v<decltype(deliver)>,
                "a delivery must stay on the engine's inline memcpy path");
  engine_.schedule_at(t, std::move(deliver));
}

ShardWorld::PhaseInfo ShardWorld::phase_info(std::uint32_t p) const {
  const Workload& wl = cfg_.workload;
  switch (wl.kind) {
    case AppKind::kHalo:
      return {true, 0, wl.bytes};
    case AppKind::kAllreduce:
      return {false, p % per_iter_, wl.bytes};
    case AppKind::kCg: {
      const std::uint32_t sub = p % per_iter_;
      if (sub == 0) return {true, 0, wl.bytes};
      return {false, sub - 1, 8};  // dot-product allreduce: one double
    }
  }
  return {true, 0, wl.bytes};
}

des::SimTime ShardWorld::gap_before(std::uint32_t next_p) const {
  // Full compute block between iterations; a 1-tick breather between
  // sub-phases (also guarantees same-tick NACKs land before the next
  // phase opens — part of the determinism argument, do not zero it).
  return next_p % per_iter_ == 0 ? compute_ : 1;
}

std::uint32_t ShardWorld::neighbor(std::uint32_t g, int dir) const {
  const std::size_t x = g % w_;
  const std::size_t y = g / w_;
  switch (dir) {
    case 0: return static_cast<std::uint32_t>((x + w_ - 1) % w_ + y * w_);
    case 1: return static_cast<std::uint32_t>((x + 1) % w_ + y * w_);
    case 2: return static_cast<std::uint32_t>(x + ((y + h_ - 1) % h_) * w_);
    default: return static_cast<std::uint32_t>(x + ((y + 1) % h_) * w_);
  }
}

std::size_t ShardWorld::torus_dist(std::uint32_t a, std::uint32_t b) const {
  const std::size_t xa = a % w_, ya = a / w_;
  const std::size_t xb = b % w_, yb = b / w_;
  const std::size_t dx = xa > xb ? xa - xb : xb - xa;
  const std::size_t dy = ya > yb ? ya - yb : yb - ya;
  return std::min(dx, w_ - dx) + std::min(dy, h_ - dy);
}

des::SimTime ShardWorld::path_ticks(std::uint32_t a, std::uint32_t b) const {
  return path_by_dist_[torus_dist(a, b)];
}

std::uint64_t ShardWorld::payload_bytes(std::uint32_t src_g,
                                        std::uint32_t phase,
                                        std::uint8_t lane,
                                        std::uint64_t base) const {
  if (!cfg_.workload.jitter || base < 2) return base;
  // Pure function of (sender, phase, lane): identical at any shard count.
  support::SplitMix64 sm(cfg_.workload.seed ^
                         fnv_step(fnv_step(fnv_step(kFnvOffset, src_g), phase),
                                  lane));
  return base / 2 + sm.next() % base;
}

}  // namespace polaris::pdes
