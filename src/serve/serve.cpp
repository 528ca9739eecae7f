#include "polaris/serve/serve.hpp"

#include <algorithm>

#include "polaris/support/check.hpp"

namespace polaris::serve {

const char* to_string(LbPolicy policy) {
  switch (policy) {
    case LbPolicy::kRandom:
      return "random";
    case LbPolicy::kRoundRobin:
      return "round-robin";
    case LbPolicy::kJsq:
      return "jsq";
    case LbPolicy::kPo2c:
      return "po2c";
  }
  return "unknown";
}

ServeSim::ServeSim(ServeConfig cfg, std::unique_ptr<fabric::Topology> topology)
    : cfg_(std::move(cfg)) {
  POLARIS_CHECK(cfg_.frontends >= 1 && cfg_.shards >= 1);
  POLARIS_CHECK(cfg_.service_mean_s > 0.0 && cfg_.duration_s > 0.0);
  POLARIS_CHECK(cfg_.warmup_s >= 0.0 && cfg_.warmup_s < cfg_.duration_s);
  topo_ = topology ? std::move(topology)
                   : std::make_unique<fabric::Crossbar>(cfg_.frontends +
                                                        cfg_.shards);
  if (!cfg_.frontend_nodes.empty()) {
    POLARIS_CHECK(cfg_.frontend_nodes.size() == cfg_.frontends);
  }
  if (!cfg_.shard_nodes.empty()) {
    POLARIS_CHECK(cfg_.shard_nodes.size() == cfg_.shards);
  }
  POLARIS_CHECK_MSG(cfg_.frontends + cfg_.shards <= topo_->node_count(),
                    "topology too small for the serving tier");
  network_ = std::make_unique<fabric::SimNetwork>(engine_, cfg_.fabric,
                                                  *topo_);
  network_->set_routing(cfg_.routing);

  duration_ticks_ = des::from_seconds(cfg_.duration_s);
  warmup_ticks_ = des::from_seconds(cfg_.warmup_s);
  if (cfg_.timeline_bucket_s > 0.0) {
    bucket_ticks_ = des::from_seconds(cfg_.timeline_bucket_s);
    POLARIS_CHECK(bucket_ticks_ >= 1);
    const std::size_t buckets = static_cast<std::size_t>(
        (duration_ticks_ + bucket_ticks_ - 1) / bucket_ticks_);
    result_.timeline.resize(buckets);
  }

  // All randomness splits off one root stream, in a fixed actor order, so
  // the run is a pure function of the seed.
  support::Random root(cfg_.seed);
  frontends_.resize(cfg_.frontends);
  for (std::size_t f = 0; f < cfg_.frontends; ++f) {
    Frontend& fe = frontends_[f];
    fe.rng = root.split();
    fe.arrivals = std::make_unique<support::ArrivalProcess>(
        cfg_.arrival, root.engine()());
    fe.index = static_cast<std::uint32_t>(f);
    fe.sim = this;
    // Stagger the round-robin cursors so front-ends do not march in
    // lockstep onto the same shard.
    fe.rr_next = static_cast<std::uint32_t>(f % cfg_.shards);
  }
  shards_.resize(cfg_.shards);
  for (Shard& s : shards_) s.rng = root.split();
}

fabric::NodeId ServeSim::frontend_node(std::size_t f) const {
  return cfg_.frontend_nodes.empty() ? static_cast<fabric::NodeId>(f)
                                     : cfg_.frontend_nodes[f];
}

fabric::NodeId ServeSim::shard_node(std::size_t s) const {
  return cfg_.shard_nodes.empty()
             ? static_cast<fabric::NodeId>(cfg_.frontends + s)
             : cfg_.shard_nodes[s];
}

fault::Injector& ServeSim::injector() {
  if (!injector_) {
    injector_ = std::make_unique<fault::Injector>(engine_, *network_);
    injector_->add_listener(this);
  }
  return *injector_;
}

// ------------------------------------------------------------- live control

void ServeSim::set_shard_admin(std::size_t shard, bool accept) {
  POLARIS_CHECK(shard < shards_.size());
  shards_[shard].accepting = accept;
}

void ServeSim::set_load_factor(double factor) {
  POLARIS_CHECK(factor > 0.0);
  load_factor_ = factor;
}

void ServeSim::set_admission_limit(std::size_t max_queue) {
  admission_limit_ = max_queue;
}

bool ServeSim::shard_drained(std::size_t s) const {
  const Shard& sh = shards_[s];
  return sh.queue.empty() && sh.in_service == kNilSlot &&
         sh.outstanding == 0;
}

// ------------------------------------------------------------ load balancing

std::uint32_t ServeSim::pick_shard(Frontend& fe) {
  const auto n = static_cast<std::uint32_t>(shards_.size());
  auto next_up = [&](std::uint32_t from) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t s = (from + i) % n;
      if (shards_[s].up && shards_[s].accepting) return s;
    }
    return kNilSlot;
  };
  switch (cfg_.lb) {
    case LbPolicy::kRandom:
      return next_up(static_cast<std::uint32_t>(
          fe.rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    case LbPolicy::kRoundRobin: {
      const std::uint32_t s = next_up(fe.rr_next);
      if (s != kNilSlot) fe.rr_next = (s + 1) % n;
      return s;
    }
    case LbPolicy::kJsq: {
      std::uint32_t best = kNilSlot;
      for (std::uint32_t s = 0; s < n; ++s) {
        if (!shards_[s].up || !shards_[s].accepting) continue;
        if (best == kNilSlot ||
            shards_[s].outstanding < shards_[best].outstanding) {
          best = s;
        }
      }
      return best;
    }
    case LbPolicy::kPo2c: {
      const std::uint32_t a = next_up(static_cast<std::uint32_t>(
          fe.rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      const std::uint32_t b = next_up(static_cast<std::uint32_t>(
          fe.rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
      if (a == kNilSlot) return b;
      if (b == kNilSlot) return a;
      return shards_[b].outstanding < shards_[a].outstanding ? b : a;
    }
  }
  return kNilSlot;
}

// ------------------------------------------------------------ request flow

void ServeSim::arrival_cb(void* ctx) {
  Frontend& fe = *static_cast<Frontend*>(ctx);
  ServeSim& sim = *fe.sim;

  const std::uint32_t slot = sim.requests_.acquire();
  Request& req = sim.requests_[slot];
  req.sim = &sim;
  req.slot = slot;
  req.failovers = 0;
  req.arrival = sim.engine_.now();
  req.frontend = fe.index;
  ++sim.result_.offered;

  const std::uint32_t shard = sim.pick_shard(fe);
  if (shard == kNilSlot) {
    sim.drop(req);
  } else {
    req.shard = shard;
    sim.dispatch(req);
  }

  // Open loop: the next arrival rides its own clock, system state be
  // damned.  Generation stops at the duration boundary; in-flight work
  // then drains and the engine runs dry.
  const des::SimTime gap =
      des::from_seconds(fe.arrivals->next() / sim.load_factor_);
  const des::SimTime next = sim.engine_.now() + std::max<des::SimTime>(gap, 1);
  if (next < sim.duration_ticks_) {
    sim.engine_.schedule_raw_at(next, &ServeSim::arrival_cb, &fe);
  }
}

void ServeSim::dispatch(Request& req) {
  Shard& sh = shards_[req.shard];
  ++sh.outstanding;
  network_->transfer_raw(frontend_node(req.frontend), shard_node(req.shard),
                         cfg_.request_bytes, &ServeSim::request_landed_cb,
                         &req);
}

void ServeSim::request_landed_cb(void* ctx, fabric::XferStatus status) {
  Request& req = *static_cast<Request*>(ctx);
  ServeSim& sim = *req.sim;
  Shard& sh = sim.shards_[req.shard];
  if (status != fabric::XferStatus::kOk || !sh.up) {
    // Killed on the wire by a fault, or the shard died in the same tick
    // it landed: hand the request back to the balancer.
    --sh.outstanding;
    sim.redispatch(req);
    return;
  }
  if (sh.in_service == kNilSlot) {
    sh.in_service = req.slot;
    sim.start_service(req.shard);
  } else if (sim.admission_limit_ > 0 &&
             sh.queue.size() >= sim.admission_limit_) {
    // Queue full: shed at admission rather than letting the tail grow
    // unboundedly.
    --sh.outstanding;
    sim.reject(req);
  } else {
    sh.queue.push_back(req.slot);
    sim.result_.max_queue_depth =
        std::max(sim.result_.max_queue_depth, sh.queue.size() + 1);
  }
}

void ServeSim::redispatch(Request& req) {
  static constexpr std::uint8_t kMaxFailovers = 8;
  if (req.failovers >= kMaxFailovers) {
    drop(req);
    return;
  }
  ++req.failovers;
  ++result_.failovers;
  const std::uint32_t shard = pick_shard(frontends_[req.frontend]);
  if (shard == kNilSlot) {
    drop(req);
    return;
  }
  req.shard = shard;
  dispatch(req);
}

void ServeSim::start_service(std::uint32_t shard_idx) {
  Shard& sh = shards_[shard_idx];
  Request& req = requests_[sh.in_service];
  const double t = sh.rng.exponential(1.0 / cfg_.service_mean_s);
  sh.service_ev = engine_.schedule_raw_after(
      std::max<des::SimTime>(des::from_seconds(t), 1),
      &ServeSim::service_done_cb, &req);
}

void ServeSim::service_done_cb(void* ctx) {
  Request& req = *static_cast<Request*>(ctx);
  ServeSim& sim = *req.sim;
  Shard& sh = sim.shards_[req.shard];
  ++sh.served;
  sh.service_ev = des::EventId{};
  // The CPU is free the moment the response is handed to the NIC.
  sh.in_service = kNilSlot;
  if (!sh.queue.empty()) {
    sh.in_service = sh.queue.front();
    sh.queue.pop_front();
    sim.start_service(req.shard);
  }
  sim.network_->transfer_raw(sim.shard_node(req.shard),
                             sim.frontend_node(req.frontend),
                             sim.cfg_.response_bytes,
                             &ServeSim::response_landed_cb, &req);
}

void ServeSim::response_landed_cb(void* ctx, fabric::XferStatus status) {
  Request& req = *static_cast<Request*>(ctx);
  ServeSim& sim = *req.sim;
  --sim.shards_[req.shard].outstanding;
  if (status != fabric::XferStatus::kOk) {
    // The response died on the wire (shard crashed post-service).  The
    // work is lost; re-executing served requests is an exactly-once
    // question the timing model does not arbitrate.
    sim.drop(req);
    return;
  }
  sim.complete(req);
}

void ServeSim::complete(Request& req) {
  const des::SimTime latency = engine_.now() - req.arrival;
  ++result_.completed;
  if (req.arrival >= warmup_ticks_) {
    ++result_.recorded;
    result_.latency_ns.record(static_cast<std::uint64_t>(latency));
  }
  if (bucket_ticks_ > 0) {
    const std::size_t b = std::min<std::size_t>(
        static_cast<std::size_t>(req.arrival / bucket_ticks_),
        result_.timeline.size() - 1);
    result_.timeline[b].record(static_cast<std::uint64_t>(latency));
  }
  requests_.release(req.slot);
}

void ServeSim::drop(Request& req) {
  ++result_.dropped;
  requests_.release(req.slot);
}

void ServeSim::reject(Request& req) {
  ++result_.rejected;
  requests_.release(req.slot);
}

// ------------------------------------------------------------------- faults

void ServeSim::on_fault(const fault::FaultEvent& ev) {
  if (ev.kind != fault::FaultEvent::Kind::kNodeCrash &&
      ev.kind != fault::FaultEvent::Kind::kNodeRepair) {
    return;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shard_node(s) != ev.id) continue;
    Shard& sh = shards_[s];
    if (ev.kind == fault::FaultEvent::Kind::kNodeRepair) {
      sh.up = true;
      return;
    }
    sh.up = false;
    // Everything the dead shard held goes back through the balancer.  The
    // in-service request's completion event must die with the node; wire
    // transfers to it are killed by the network itself and fail over from
    // request_landed_cb.
    if (sh.in_service != kNilSlot) {
      engine_.cancel(sh.service_ev);
      sh.service_ev = des::EventId{};
      const std::uint32_t slot = sh.in_service;
      sh.in_service = kNilSlot;
      --sh.outstanding;
      redispatch(requests_[slot]);
    }
    while (!sh.queue.empty()) {
      const std::uint32_t slot = sh.queue.front();
      sh.queue.pop_front();
      --sh.outstanding;
      redispatch(requests_[slot]);
    }
    return;
  }
}

// ---------------------------------------------------------------------- run

ServeResult ServeSim::run() {
  POLARIS_CHECK_MSG(!ran_, "ServeSim::run is one-shot");
  ran_ = true;
  for (Frontend& fe : frontends_) {
    const des::SimTime first = std::max<des::SimTime>(
        des::from_seconds(fe.arrivals->next() / load_factor_), 1);
    if (first < duration_ticks_) {
      engine_.schedule_raw_at(first, &ServeSim::arrival_cb, &fe);
    }
  }
  engine_.run();

  result_.measured_s = cfg_.duration_s - cfg_.warmup_s;
  result_.throughput_rps =
      static_cast<double>(result_.recorded) / result_.measured_s;
  result_.net = network_->stats();
  return result_;
}

void export_metrics(const ServeResult& r, obs::MetricsRegistry& reg) {
  reg.counter("serve.offered").add(r.offered);
  reg.counter("serve.completed").add(r.completed);
  reg.counter("serve.dropped").add(r.dropped);
  reg.counter("serve.rejected").add(r.rejected);
  reg.counter("serve.failovers").add(r.failovers);
  reg.gauge("serve.throughput_rps").set(r.throughput_rps);
  reg.gauge("serve.p99_us").set(r.p99_us());
  reg.gauge("serve.p999_us").set(r.p999_us());
  reg.gauge("serve.max_queue_depth")
      .set(static_cast<double>(r.max_queue_depth));
  reg.log_histogram("serve.latency_ns").merge_from(r.latency_ns);
}

}  // namespace polaris::serve
