// The four scenario harnesses: serve, cluster, simrt, pdes.
//
// Each harness adapts one of the repo's simulated systems to the scenario
// runner's probe/action vocabulary.  Construction wires the system from
// the spec; start() launches the workload; finish() runs the DES engine to
// completion.  All probes are cheap reads of live state, all actions are
// ordinary engine events, and every piece of randomness flows from the
// spec seed — a harness run is a pure function of the spec bytes.
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/fault/detector.hpp"
#include "polaris/fault/heartbeat.hpp"
#include "polaris/fault/injector.hpp"
#include "polaris/obs/clock.hpp"
#include "polaris/pdes/config.hpp"
#include "polaris/pdes/engine.hpp"
#include "polaris/rm/manager.hpp"
#include "polaris/scenario/scenario.hpp"
#include "polaris/serve/serve.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/support/check.hpp"

namespace polaris::scenario {
namespace {

std::uint32_t u32_arg(const Json& args, std::string_view key,
                      double fallback = 0.0) {
  return static_cast<std::uint32_t>(args.num_or(key, fallback));
}

/// Splits "queue_depth:3" into ("queue_depth", 3); index -1 when absent.
std::pair<std::string, long> split_probe(const std::string& name) {
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos) return {name, -1};
  return {name.substr(0, colon), std::strtol(name.c_str() + colon + 1,
                                             nullptr, 10)};
}

[[noreturn]] void unknown_probe(const std::string& name) {
  POLARIS_CHECK_MSG(false, "unknown scenario probe: " + name);
  std::abort();  // unreachable (CHECK throws)
}

[[noreturn]] void unknown_action(const std::string& verb) {
  POLARIS_CHECK_MSG(false, "unknown scenario action: " + verb);
  std::abort();  // unreachable (CHECK throws)
}

std::string fmt(const char* format, ...) {
  char buf[160];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof buf, format, ap);
  va_end(ap);
  return buf;
}

// ------------------------------------------------------------------- serve

/// Datacenter serving tier: open-loop traffic, LB policies, shard drains,
/// load ramps, admission limits, node crashes.
class ServeHarness final : public Harness {
 public:
  explicit ServeHarness(const Json& spec) {
    const Json& h = spec.at("harness");
    serve::ServeConfig cfg;
    cfg.frontends = static_cast<std::size_t>(h.num_or("frontends", 2));
    cfg.shards = static_cast<std::size_t>(h.num_or("shards", 4));
    const double rate = h.num_or("rate", 50'000.0);
    if (h.str_or("arrival", "poisson") == "bursty") {
      cfg.arrival = support::ArrivalSpec::bursty(
          rate, h.num_or("burst_factor", 8.0), h.num_or("burst_fraction", 0.1),
          h.num_or("mean_burst_s", 2e-3));
    } else {
      cfg.arrival = support::ArrivalSpec::poisson(rate);
    }
    cfg.service_mean_s = h.num_or("service_mean_s", 20e-6);
    const std::string lb = h.str_or("lb", "po2c");
    cfg.lb = lb == "random"  ? serve::LbPolicy::kRandom
             : lb == "rr"    ? serve::LbPolicy::kRoundRobin
             : lb == "jsq"   ? serve::LbPolicy::kJsq
                             : serve::LbPolicy::kPo2c;
    cfg.duration_s = h.num_or("duration_s", 0.05);
    cfg.warmup_s = h.num_or("warmup_s", 0.0);
    cfg.seed = static_cast<std::uint64_t>(spec.num_or("seed", 1.0));
    sim_ = std::make_unique<serve::ServeSim>(std::move(cfg));
    clock_ = std::make_unique<obs::SimClock>(sim_->engine());
    tracer_ = std::make_unique<obs::Tracer>(*clock_);
    // Eager: a constructed-but-idle injector perturbs nothing, and eager
    // construction keeps track order identical whether or not a scenario
    // injects faults.
    sim_->injector().attach_tracer(*tracer_);
  }

  des::Engine& engine() override { return sim_->engine(); }
  obs::Tracer& tracer() override { return *tracer_; }
  const obs::Tracer& tracer() const override { return *tracer_; }

  void start() override {}
  void finish() override { sim_->run(); }

  double probe(const std::string& name) override {
    const auto [base, idx] = split_probe(name);
    serve::ServeSim& s = *sim_;
    if (base == "offered") return static_cast<double>(s.offered());
    if (base == "completed") return static_cast<double>(s.completed());
    if (base == "dropped") return static_cast<double>(s.dropped());
    if (base == "rejected") return static_cast<double>(s.rejected());
    if (base == "failovers") return static_cast<double>(s.failovers());
    if (base == "in_flight") return static_cast<double>(s.in_flight());
    if (base == "active_requests") {
      return static_cast<double>(s.active_requests());
    }
    if (base == "conservation") {
      // Counter arithmetic vs pool accounting: zero iff no request was
      // lost or double-counted anywhere in the dispatch/failover machine.
      return static_cast<double>(s.offered()) - s.completed() - s.dropped() -
             s.rejected() - s.active_requests();
    }
    if (base == "live_p99_us") return s.live_p99_us();
    if (base == "max_queue_depth") {
      return static_cast<double>(s.max_queue_depth());
    }
    if (base == "live_queue") {
      std::size_t total = 0;
      for (std::size_t i = 0; i < s.shard_count(); ++i) {
        total += s.queue_depth(i);
      }
      return static_cast<double>(total);
    }
    if (base == "queue_depth" && idx >= 0) {
      return static_cast<double>(s.queue_depth(static_cast<std::size_t>(idx)));
    }
    if (base == "shard_drained" && idx >= 0) {
      return s.shard_drained(static_cast<std::size_t>(idx)) ? 1.0 : 0.0;
    }
    if (base == "shard_up" && idx >= 0) {
      return s.shard_up(static_cast<std::size_t>(idx)) ? 1.0 : 0.0;
    }
    if (base == "nodes_down") {
      return static_cast<double>(s.injector().nodes_down());
    }
    if (base == "time_s") return des::to_seconds(s.engine().now());
    unknown_probe(name);
  }

  void act(const std::string& verb, const Json& args, double now_s) override {
    if (verb == "inject") {
      const std::string kind = args.str_or("kind", "node-crash");
      const double at = now_s + args.num_or("after", 0.0);
      const double repair = args.num_or("repair_after", 0.0);
      if (kind == "node-crash") {
        sim_->injector().schedule_node_crash(
            at, sim_->shard_node(u32_arg(args, "shard")), repair);
      } else if (kind == "link-outage") {
        sim_->injector().schedule_link_outage(at, u32_arg(args, "link"),
                                              repair);
      } else if (kind == "rack") {
        // Correlated loss: a contiguous run of shards dies at one instant.
        const std::uint32_t first = u32_arg(args, "first");
        const std::uint32_t count = u32_arg(args, "count", 1.0);
        for (std::uint32_t i = 0; i < count; ++i) {
          sim_->injector().schedule_node_crash(
              at, sim_->shard_node(first + i), repair);
        }
      } else {
        unknown_action(verb + ":" + kind);
      }
      return;
    }
    if (verb == "drain") {
      sim_->set_shard_admin(u32_arg(args, "shard"), false);
      return;
    }
    if (verb == "undrain") {
      sim_->set_shard_admin(u32_arg(args, "shard"), true);
      return;
    }
    if (verb == "ramp") {
      sim_->set_load_factor(args.num_or("factor", 1.0));
      return;
    }
    if (verb == "set_admission") {
      sim_->set_admission_limit(
          static_cast<std::size_t>(args.num_or("limit", 0.0)));
      return;
    }
    unknown_action(verb);
  }

  std::vector<std::string> counter_probes() const override {
    return {"offered",   "completed", "dropped",     "rejected",
            "failovers", "in_flight", "conservation"};
  }

 private:
  std::unique_ptr<serve::ServeSim> sim_;
  std::unique_ptr<obs::SimClock> clock_;
  std::unique_ptr<obs::Tracer> tracer_;
};

// ----------------------------------------------------------------- cluster

/// A machine with heartbeats, fault injection, optional resource manager —
/// the control-plane view (no application traffic beyond heartbeats).
class ClusterHarness final : public Harness {
 public:
  explicit ClusterHarness(const Json& spec) {
    const Json& h = spec.at("harness");
    seed_ = static_cast<std::uint64_t>(spec.num_or("seed", 1.0));
    const std::string topo = h.str_or("topology", "crossbar");
    if (topo == "fattree") {
      topo_ = std::make_unique<fabric::FatTree>(
          static_cast<std::size_t>(h.num_or("radix", 4)));
    } else if (topo == "torus") {
      topo_ = std::make_unique<fabric::Torus2D>(
          static_cast<std::size_t>(h.num_or("width", 4)),
          static_cast<std::size_t>(h.num_or("height", 4)));
    } else {
      topo_ = std::make_unique<fabric::Crossbar>(
          static_cast<std::size_t>(h.num_or("nodes", 16)));
    }
    net_ = std::make_unique<fabric::SimNetwork>(
        engine_, fabric::fabrics::by_name(h.str_or("fabric", "myrinet-2000")),
        *topo_);
    injector_ = std::make_unique<fault::Injector>(engine_, *net_);
    clock_ = std::make_unique<obs::SimClock>(engine_);
    tracer_ = std::make_unique<obs::Tracer>(*clock_);
    injector_->attach_tracer(*tracer_);
    track_ = tracer_->add_track("scenario", "sweep");

    if (const Json* hb = h.find("heartbeat")) {
      fault::HeartbeatService::Config cfg;
      cfg.period = hb->num_or("period", 0.1);
      cfg.timeout = hb->num_or("timeout", 0.5);
      cfg.phi_threshold = hb->num_or("phi_threshold", 8.0);
      cfg.horizon = hb->num_or("horizon", 30.0);
      cfg.monitor = static_cast<std::uint32_t>(hb->num_or("monitor", 0.0));
      hb_ = std::make_unique<fault::HeartbeatService>(engine_, *net_, cfg);
      hb_->attach_tracer(*tracer_);
    }
    if (const Json* rm = h.find("rm")) {
      rm_ = std::make_unique<rm::ResourceManager>(engine_, *topo_);
      rm_->attach_injector(*injector_);
      rm_jobs_ = static_cast<std::uint64_t>(rm->num_or("jobs", 8));
      rm_runtime_ = rm->num_or("runtime", 10.0);
      rm_width_ = static_cast<std::uint32_t>(rm->num_or("width", 2));
      rm_interval_ = rm->num_or("interval", 1.0);
    }
  }

  des::Engine& engine() override { return engine_; }
  obs::Tracer& tracer() override { return *tracer_; }
  const obs::Tracer& tracer() const override { return *tracer_; }

  void start() override {
    if (hb_) hb_->start();
    if (rm_) {
      for (std::uint64_t j = 0; j < rm_jobs_; ++j) {
        rm::JobSpec job;
        job.id = j + 1;
        job.user = static_cast<rm::UserId>(j % 3);
        job.submit = static_cast<double>(j) * rm_interval_;
        job.runtime = rm_runtime_;
        job.width = rm_width_;
        rm_->submit(job);
      }
    }
  }

  void finish() override { engine_.run(); }

  double probe(const std::string& name) override {
    const auto [base, idx] = split_probe(name);
    if (base == "nodes_down") {
      return static_cast<double>(injector_->nodes_down());
    }
    if (base == "links_down") {
      return static_cast<double>(injector_->links_down());
    }
    if (base == "crashes") return static_cast<double>(injector_->crashes());
    if (base == "link_outages") {
      return static_cast<double>(injector_->link_outages());
    }
    if (base == "overlapped_faults") {
      return static_cast<double>(injector_->overlapped_faults());
    }
    if (base == "suspicions") {
      return hb_ ? static_cast<double>(hb_->suspicions()) : 0.0;
    }
    if (base == "suspected" && idx >= 0) {
      return (hb_ && hb_->suspected(static_cast<std::uint32_t>(idx))) ? 1.0
                                                                      : 0.0;
    }
    if (base == "hb_sent") {
      return hb_ ? static_cast<double>(hb_->heartbeats_sent()) : 0.0;
    }
    if (base == "hb_delivered") {
      return hb_ ? static_cast<double>(hb_->heartbeats_delivered()) : 0.0;
    }
    if (base == "hb_lost") {
      return hb_ ? static_cast<double>(hb_->heartbeats_lost()) : 0.0;
    }
    if (base == "sweep.points") return static_cast<double>(sweep_points_);
    if (base == "sweep.best_fp") return sweep_best_fp_;
    if (base == "sweep.best_latency") return sweep_best_latency_;
    if (base == "sweep.fp_monotone") return sweep_fp_monotone_ ? 1.0 : 0.0;
    if (rm_) {
      if (base == "rm.completed") {
        return static_cast<double>(rm_->completed_jobs());
      }
      if (base == "rm.requeues") {
        return static_cast<double>(rm_->summary().requeues);
      }
      if (base == "rm.queue_depth") {
        return static_cast<double>(rm_->queue_depth());
      }
      if (base == "rm.running") {
        return static_cast<double>(rm_->running_jobs());
      }
      if (base == "rm.jobs") return static_cast<double>(rm_jobs_);
      if (base == "rm.in_system") {
        // Every submitted job is pending, running, or completed — a job
        // lost by the requeue machinery shows up as a shortfall here.
        return static_cast<double>(rm_->completed_jobs()) +
               static_cast<double>(rm_->running_jobs()) +
               static_cast<double>(rm_->queue_depth());
      }
    }
    if (base == "time_s") return des::to_seconds(engine_.now());
    unknown_probe(name);
  }

  void act(const std::string& verb, const Json& args, double now_s) override {
    if (verb == "inject") {
      const std::string kind = args.str_or("kind", "node-crash");
      const double at = now_s + args.num_or("after", 0.0);
      const double repair = args.num_or("repair_after", 0.0);
      if (kind == "node-crash") {
        injector_->schedule_node_crash(at, u32_arg(args, "node"), repair);
      } else if (kind == "link-outage") {
        fabric::LinkId link = u32_arg(args, "link");
        if (const Json* route = args.find("route")) {
          // First hop of the src->dst route: by construction the link that
          // carries everything src sends toward dst.
          const auto& ends = route->items();
          link = topo_->route(static_cast<fabric::NodeId>(ends.at(0).num()),
                              static_cast<fabric::NodeId>(ends.at(1).num()))
                     .front();
        }
        injector_->schedule_link_outage(at, link, repair);
      } else if (kind == "rack") {
        const std::uint32_t first = u32_arg(args, "first");
        const std::uint32_t count = u32_arg(args, "count", 1.0);
        for (std::uint32_t i = 0; i < count; ++i) {
          injector_->schedule_node_crash(at, first + i, repair);
        }
      } else {
        unknown_action(verb + ":" + kind);
      }
      return;
    }
    if (verb == "sweep") {
      run_sweep(args);
      return;
    }
    unknown_action(verb);
  }

  std::vector<std::string> counter_probes() const override {
    std::vector<std::string> out = {"crashes", "link_outages", "nodes_down",
                                    "links_down", "suspicions"};
    if (rm_) {
      out.push_back("rm.completed");
      out.push_back("rm.requeues");
      out.push_back("rm.in_system");
    }
    if (sweep_points_ > 0) {
      out.push_back("sweep.points");
      out.push_back("sweep.best_fp");
    }
    return out;
  }

 private:
  void run_sweep(const Json& args) {
    const std::string detector = args.str_or("detector", "timeout");
    const double period = args.num_or("period", 0.1);
    const double jitter = args.num_or("jitter", 0.2);
    const auto heartbeats =
        static_cast<std::size_t>(args.num_or("heartbeats", 2000));
    double prev_fp = 2.0;  // above any possible rate
    for (const Json& th : args.at("thresholds").items()) {
      const double threshold = th.num();
      const fault::DetectorQuality q =
          detector == "phi"
              ? fault::evaluate_phi_detector(period, jitter, threshold,
                                             heartbeats, seed_ + sweep_points_)
              : fault::evaluate_timeout_detector(
                    period, jitter, threshold, heartbeats,
                    seed_ + sweep_points_);
      // Within one sweep, a laxer threshold must not alarm more (small
      // tolerance absorbs Monte-Carlo noise).
      if (q.false_positive_rate > prev_fp + 0.01) sweep_fp_monotone_ = false;
      prev_fp = q.false_positive_rate;
      if (q.false_positive_rate < sweep_best_fp_) {
        sweep_best_fp_ = q.false_positive_rate;
        sweep_best_latency_ = q.detection_latency;
      }
      ++sweep_points_;
      tracer_->instant(track_,
                       fmt("%s th=%.6g fp=%.6g lat=%.6g", detector.c_str(),
                           threshold, q.false_positive_rate,
                           q.detection_latency),
                       "sweep");
    }
  }

  des::Engine engine_;
  std::unique_ptr<fabric::Topology> topo_;
  std::unique_ptr<fabric::SimNetwork> net_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<fault::HeartbeatService> hb_;
  std::unique_ptr<rm::ResourceManager> rm_;
  std::unique_ptr<obs::SimClock> clock_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::TrackId track_ = 0;

  std::uint64_t seed_ = 1;
  std::uint64_t rm_jobs_ = 0;
  double rm_runtime_ = 10.0;
  std::uint32_t rm_width_ = 2;
  double rm_interval_ = 1.0;

  std::uint64_t sweep_points_ = 0;
  double sweep_best_fp_ = 2.0;
  double sweep_best_latency_ = 0.0;
  bool sweep_fp_monotone_ = true;
};

// ------------------------------------------------------------------- simrt

/// SPMD ring benchmark on the coroutine runtime, with message-layer fault
/// recovery: the scenario can crash ranks and check nobody wedges.
class SimrtHarness final : public Harness {
 public:
  explicit SimrtHarness(const Json& spec) {
    const Json& h = spec.at("harness");
    const auto ranks = static_cast<std::size_t>(h.num_or("ranks", 8));
    world_ = std::make_unique<simrt::SimWorld>(
        ranks, fabric::fabrics::by_name(h.str_or("fabric", "myrinet-2000")));
    injector_ = std::make_unique<fault::Injector>(world_->engine(),
                                                  world_->network());
    simrt::RetryPolicy policy;
    policy.max_retries = static_cast<std::uint32_t>(h.num_or("retries", 3));
    policy.recv_timeout = h.num_or("recv_timeout", 0.01);
    world_->enable_faults(*injector_, policy);
    clock_ = std::make_unique<obs::SimClock>(world_->engine());
    tracer_ = std::make_unique<obs::Tracer>(*clock_);
    injector_->attach_tracer(*tracer_);
    iters_ = static_cast<int>(h.num_or("iters", 20));
    bytes_ = static_cast<std::uint64_t>(h.num_or("bytes", 4096));
    compute_s_ = h.num_or("compute_s", 1e-4);
  }

  des::Engine& engine() override { return world_->engine(); }
  obs::Tracer& tracer() override { return *tracer_; }
  const obs::Tracer& tracer() const override { return *tracer_; }

  void start() override {
    const int iters = iters_;
    const std::uint64_t bytes = bytes_;
    const double compute_s = compute_s_;
    world_->launch([iters, bytes,
                    compute_s](simrt::SimComm& c) -> des::Task<void> {
      // Ring pipeline; a failed send/recv (crashed neighbor, exhausted
      // retries, receive timeout) ends the rank's loop cleanly — the
      // fault story is "degrade", never "hang".
      const int n = c.size();
      const int next = (c.rank() + 1) % n;
      const int prev = (c.rank() + n - 1) % n;
      for (int i = 0; i < iters; ++i) {
        simrt::SimRequest sr = c.isend(next, i, bytes);
        simrt::SimRequest rr = c.irecv(prev, i);
        const simrt::SimRecvStatus rs = co_await c.wait(rr);
        const simrt::SimRecvStatus ss = co_await c.wait(sr);
        if (!rs.ok() || !ss.ok()) break;
        co_await c.sleep(compute_s);
      }
    });
  }

  void finish() override { world_->run(); }

  double probe(const std::string& name) override {
    if (name == "ranks_launched") {
      return static_cast<double>(world_->ranks_launched());
    }
    if (name == "ranks_finished") {
      return static_cast<double>(world_->ranks_finished());
    }
    if (name == "wedged") {
      return static_cast<double>(world_->ranks_launched() -
                                 world_->ranks_finished());
    }
    if (name == "retries") return static_cast<double>(world_->msg_retries());
    if (name == "drops") return static_cast<double>(world_->msg_drops());
    if (name == "timeouts") {
      return static_cast<double>(world_->recv_timeouts());
    }
    if (name == "nodes_down") {
      return static_cast<double>(injector_->nodes_down());
    }
    if (name == "time_s") return des::to_seconds(world_->engine().now());
    unknown_probe(name);
  }

  void act(const std::string& verb, const Json& args, double now_s) override {
    if (verb == "inject") {
      const std::string kind = args.str_or("kind", "node-crash");
      const double at = now_s + args.num_or("after", 0.0);
      const double repair = args.num_or("repair_after", 0.0);
      if (kind == "node-crash") {
        injector_->schedule_node_crash(at, u32_arg(args, "node"), repair);
        return;
      }
      if (kind == "link-outage") {
        injector_->schedule_link_outage(at, u32_arg(args, "link"), repair);
        return;
      }
      unknown_action(verb + ":" + kind);
    }
    unknown_action(verb);
  }

  std::vector<std::string> counter_probes() const override {
    return {"ranks_launched", "ranks_finished", "wedged",
            "retries",        "drops",          "timeouts"};
  }

 private:
  std::unique_ptr<simrt::SimWorld> world_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<obs::SimClock> clock_;
  std::unique_ptr<obs::Tracer> tracer_;
  int iters_ = 20;
  std::uint64_t bytes_ = 4096;
  double compute_s_ = 1e-4;
};

// -------------------------------------------------------------------- pdes

/// Sharded parallel DES at scale.  The tree's `run` leaves execute whole
/// pdes runs synchronously (each is its own parallel simulation); probes
/// compare golden hashes across execution shapes — the shard- and
/// worker-count invariance contract, now scriptable from a spec.
class PdesHarness final : public Harness {
 public:
  explicit PdesHarness(const Json& spec) {
    const Json& h = spec.at("harness");
    const std::string app = h.str_or("app", "halo");
    base_.workload.kind = app == "allreduce" ? pdes::AppKind::kAllreduce
                          : app == "cg"      ? pdes::AppKind::kCg
                                             : pdes::AppKind::kHalo;
    base_.workload.grid_w = static_cast<std::size_t>(h.num_or("grid_w", 16));
    base_.workload.grid_h = static_cast<std::size_t>(h.num_or("grid_h", 16));
    base_.workload.iters = static_cast<std::uint32_t>(h.num_or("iters", 8));
    base_.workload.bytes = static_cast<std::uint64_t>(h.num_or("bytes", 8192));
    base_.workload.compute_s = h.num_or("compute_s", 50e-6);
    base_.workload.seed = static_cast<std::uint64_t>(spec.num_or("seed", 1.0));
    base_.workload.jitter = h.bool_or("jitter", false);
    if (const Json* faults = h.find("faults")) {
      for (const Json& f : faults->items()) {
        base_.faults.push_back(pdes::RankFault{
            static_cast<std::uint32_t>(f.num_or("rank", 0.0)),
            f.num_or("time_s", 0.0)});
      }
    }
    clock_ = std::make_unique<obs::SimClock>(engine_);
    tracer_ = std::make_unique<obs::Tracer>(*clock_);
    track_ = tracer_->add_track("scenario", "pdes");
  }

  des::Engine& engine() override { return engine_; }
  obs::Tracer& tracer() override { return *tracer_; }
  const obs::Tracer& tracer() const override { return *tracer_; }

  void start() override {}
  void finish() override { engine_.run(); }

  double probe(const std::string& name) override {
    if (name == "pdes.runs") return static_cast<double>(results_.size());
    if (name == "pdes.hashes_equal") {
      for (const pdes::Result& r : results_) {
        if (r.golden_hash != results_.front().golden_hash) return 0.0;
      }
      return results_.empty() ? 0.0 : 1.0;
    }
    if (!results_.empty()) {
      const pdes::Result& last = results_.back();
      if (name == "pdes.ranks_ok") return static_cast<double>(last.ranks_ok);
      if (name == "pdes.ranks_failed") {
        return static_cast<double>(last.ranks_failed);
      }
      if (name == "pdes.events") return static_cast<double>(last.events);
      if (name == "pdes.sim_seconds") return last.sim_seconds;
      if (name == "pdes.nacks") return static_cast<double>(last.nacks);
    }
    if (name == "time_s") return des::to_seconds(engine_.now());
    unknown_probe(name);
  }

  void act(const std::string& verb, const Json& args, double) override {
    if (verb != "run") unknown_action(verb);
    pdes::Config cfg = base_;
    cfg.shards = static_cast<std::size_t>(args.num_or("shards", 1));
    // workers 0 = one per core: the same spec runs at whatever
    // parallelism the host has, and the golden hash (hence the scenario
    // trace hash) must not move.
    cfg.workers = static_cast<std::size_t>(args.num_or("workers", 0));
    const pdes::Result r = pdes::run(cfg);
    // Only shard/worker-invariant fields go into the trace: the hash, the
    // outcome counts, the event total.  Wall time et al. stay out.
    tracer_->instant(
        track_,
        fmt("run #%zu shards=%zu hash=%016llx ok=%llu failed=%llu "
            "events=%llu",
            results_.size(), cfg.shards,
            static_cast<unsigned long long>(r.golden_hash),
            static_cast<unsigned long long>(r.ranks_ok),
            static_cast<unsigned long long>(r.ranks_failed),
            static_cast<unsigned long long>(r.events)),
        "pdes");
    results_.push_back(r);
  }

  std::vector<std::string> counter_probes() const override {
    return {"pdes.runs", "pdes.hashes_equal", "pdes.ranks_ok",
            "pdes.ranks_failed", "pdes.events"};
  }

 private:
  des::Engine engine_;  ///< carries only the scenario tick chain
  pdes::Config base_;
  std::vector<pdes::Result> results_;
  std::unique_ptr<obs::SimClock> clock_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::TrackId track_ = 0;
};

}  // namespace

std::unique_ptr<Harness> make_harness(const Json& spec) {
  const std::string kind = spec.at("harness").str_or("kind", "");
  if (kind == "serve") return std::make_unique<ServeHarness>(spec);
  if (kind == "cluster") return std::make_unique<ClusterHarness>(spec);
  if (kind == "simrt") return std::make_unique<SimrtHarness>(spec);
  if (kind == "pdes") return std::make_unique<PdesHarness>(spec);
  POLARIS_CHECK_MSG(false, "unknown harness kind: " + kind);
  return nullptr;  // unreachable
}

}  // namespace polaris::scenario
