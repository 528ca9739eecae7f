// The four benchmark workloads.
//
// Every pass constructs a fresh simulation through the module's public
// constructor (set-up), runs it (run), and reads the public stats (collect).
// Traced passes also export the module's metrics (export) and, where the
// module's public API allows, step the engine in simulated-time slices.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "bench.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/pdes/engine.hpp"
#include "polaris/scenario/json.hpp"
#include "polaris/scenario/library.hpp"
#include "polaris/scenario/scenario.hpp"
#include "polaris/serve/serve.hpp"
#include "polaris/simrt/sim_world.hpp"
#include "polaris/workload/apps.hpp"

namespace perfbench {

double find_metric(const Metrics& m, const std::string& name) {
  for (const Metric& x : m) {
    if (x.name == name) return x.value;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

using namespace polaris;

/// splitmix64: derives each workload's input seed from --seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Exact text of a double: simulated times must match bit for bit.
std::string exact(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return hex(bits);
}

double median_layer(const std::vector<PassResult>& passes,
                    const std::string& name) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(find_metric(p.layers, name));
  return median(std::move(v));
}

double median_run_s(const std::vector<PassResult>& passes) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(p.run_s);
  return median(std::move(v));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_engine(Metrics& m, const des::EngineStats& es, double run_s) {
  const double events = static_cast<double>(es.executed);
  m.push_back({"des.events", events});
  m.push_back({"des.events_per_host_s", ratio(events, run_s)});
  m.push_back({"des.max_queue_depth", static_cast<double>(es.max_queue_depth)});
  m.push_back({"des.pool_capacity", static_cast<double>(es.pool_capacity)});
  m.push_back(
      {"des.cancelled_skipped", static_cast<double>(es.cancelled_skipped)});
}

void add_network(Metrics& m, const fabric::NetworkStats& ns) {
  m.push_back({"fabric.messages", static_cast<double>(ns.messages)});
  m.push_back({"fabric.packets", static_cast<double>(ns.packets)});
  m.push_back({"fabric.bypass_rate", ns.bypass_rate()});
  m.push_back(
      {"fabric.messages_bypassed", static_cast<double>(ns.messages_bypassed)});
  m.push_back(
      {"fabric.walker_hop_events", static_cast<double>(ns.walker_hop_events)});
  m.push_back({"fabric.flights_materialized",
               static_cast<double>(ns.flights_materialized)});
}

/// Cost ledger: unit costs times this workload's counts, against the
/// measured run time.  The residual is what the four unit costs leave
/// unexplained (negative when they over-explain).
void add_ledger(const std::vector<PassResult>& traced, bool tiny,
                Metrics& out) {
  const UnitCosts u = measure_unit_costs(tiny);
  const double run_s = median_run_s(traced);
  const double events = median_layer(traced, "des.events");
  const double bypassed = median_layer(traced, "fabric.messages_bypassed");
  const double hops = median_layer(traced, "fabric.walker_hop_events");
  const double pairs = median_layer(traced, "msg.posted");
  const double des_s =
      std::max(0.0, events - bypassed - hops) * u.des_event_ns * 1e-9;
  const double fabric_s =
      (bypassed * u.fabric_idle_msg_ns + hops * u.fabric_hop_ns) * 1e-9;
  const double msg_s = pairs * u.msg_pair_ns * 1e-9;
  out.push_back({"ledger.des_event_ns", u.des_event_ns});
  out.push_back({"ledger.fabric_idle_msg_ns", u.fabric_idle_msg_ns});
  out.push_back({"ledger.fabric_hop_ns", u.fabric_hop_ns});
  out.push_back({"ledger.msg_pair_ns", u.msg_pair_ns});
  out.push_back({"des.est_host_s", des_s});
  out.push_back({"fabric.est_host_s", fabric_s});
  out.push_back({"msg.est_host_s", msg_s});
  out.push_back(
      {"ledger.residual_frac", 1.0 - ratio(des_s + fabric_s + msg_s, run_s)});
}

/// Discards bytes, counting them: the export span times serialization,
/// not disk.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    ++bytes_;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

// ------------------------------------------------------------------ pdes_cg

class PdesCg final : public Workload {
 public:
  PdesCg(std::uint64_t seed, bool tiny) {
    cfg_.workload.kind = pdes::AppKind::kCg;
    cfg_.workload.grid_w = tiny ? 32 : 256;
    cfg_.workload.grid_h = tiny ? 32 : 256;
    cfg_.workload.iters = tiny ? 2 : 5;
    cfg_.workload.jitter = true;
    cfg_.workload.seed = mix(seed) >> 11;
    cfg_.shards = 4;
    cfg_.workers = 0;  // lease from WorkerBudget, capped at the core count
  }

  const char* unit() const override { return "rank_iters"; }
  std::size_t workers() const override { return workers_; }

  PassResult pass(Spans* spans) override {
    PassResult r;
    std::optional<pdes::ShardedEngine> eng;
    {
      Scope s(spans, "setup");
      const Clock::time_point t0 = Clock::now();
      eng.emplace(cfg_);
      r.setup_s = seconds_between(t0, Clock::now());
    }
    pdes::Result res;
    {
      Scope s(spans, "run");
      const Clock::time_point t0 = Clock::now();
      res = eng->run();
      r.run_s = seconds_between(t0, Clock::now());
      s.arg("events", static_cast<double>(res.events));
      s.arg("windows", static_cast<double>(res.windows));
    }
    {
      Scope s(spans, "collect");
      collect(res, r);
    }
    if (spans) {
      Scope s(spans, "export");
      obs::MetricsRegistry reg;
      pdes::export_metrics(res, reg);
    }
    return r;
  }

  void traced_extras(const std::vector<PassResult>& traced, Metrics& out,
                     std::vector<std::string>& violations) override {
    // The same problem on one shard: the honest wall-clock baseline.
    pdes::Config serial_cfg = cfg_;
    serial_cfg.shards = 1;
    serial_cfg.workers = 1;
    pdes::ShardedEngine serial(serial_cfg);
    const Clock::time_point t0 = Clock::now();
    const pdes::Result res = serial.run();
    const double serial_run_s = seconds_between(t0, Clock::now());
    if (res.golden_hash != golden_) {
      violations.push_back("pdes golden hash differs between 1 and " +
                           std::to_string(cfg_.shards) + " shards");
    }
    out.push_back({"pdes.serial_run_s", serial_run_s});
    out.push_back(
        {"pdes.wall_speedup", ratio(serial_run_s, median_run_s(traced))});
    out.push_back({"pdes.locality_gain",
                   ratio(res.sum_busy_s,
                         median_layer(traced, "pdes.sum_busy_s"))});
  }

 private:
  void collect(const pdes::Result& res, PassResult& r) {
    const std::uint64_t ranks = cfg_.workload.ranks();
    workers_ = res.workers;
    golden_ = res.golden_hash;
    r.units = static_cast<double>(ranks) * cfg_.workload.iters;
    r.attempted = ranks;
    r.failed = ranks - std::min<std::uint64_t>(ranks, res.ranks_ok);
    if (res.ranks_ok != ranks) {
      r.violations.push_back("pdes ranks_ok " + std::to_string(res.ranks_ok) +
                             " != ranks " + std::to_string(ranks));
    }
    r.fingerprint = "golden=" + hex(res.golden_hash) +
                    " sim_s=" + exact(res.sim_seconds) +
                    " ranks_ok=" + std::to_string(res.ranks_ok);

    Metrics& m = r.layers;
    const double events = static_cast<double>(res.events);
    m.push_back({"des.events", events});
    m.push_back({"des.events_per_host_s", ratio(events, r.run_s)});
    // Sum over shards of each engine's peak queued-event count.
    m.push_back(
        {"des.max_queue_depth", static_cast<double>(res.peak_event_nodes)});
    m.push_back({"pdes.windows", static_cast<double>(res.windows)});
    m.push_back({"pdes.msgs_cross", static_cast<double>(res.msgs_cross)});
    m.push_back({"pdes.msgs_intra", static_cast<double>(res.msgs_intra)});
    m.push_back({"pdes.sum_busy_s", res.sum_busy_s});
    m.push_back({"pdes.max_shard_busy_s", res.max_shard_busy_s});
    m.push_back({"pdes.barrier_wait_s", res.wall_s - res.max_shard_busy_s});
    m.push_back({"pdes.parallel_efficiency",
                 ratio(res.sum_busy_s, static_cast<double>(res.shards) *
                                           res.max_shard_busy_s)});
    m.push_back({"pdes.parks", static_cast<double>(res.parks)});
    m.push_back({"pdes.window_ns_p50", res.window_ns.quantile(0.50)});
    m.push_back({"pdes.window_ns_p99", res.window_ns.quantile(0.99)});
    m.push_back({"pdes.drain_batch_p99", res.drain_batch.quantile(0.99)});
  }

  pdes::Config cfg_;
  std::size_t workers_ = 1;
  std::uint64_t golden_ = 0;
};

// ----------------------------------------------------------------- simrt_cg

class SimrtCg final : public Workload {
 public:
  SimrtCg(std::uint64_t seed, bool tiny) : tiny_(tiny) {
    side_ = tiny ? 4 : 16;
    // 4.5M-4.9M rows per rank: the ~17 KB boundary exchange goes
    // rendezvous while the 16 B allreduces stay eager.
    cfg_.local_rows = 4'500'000 + mix(seed) % 400'000;
    cfg_.iterations = tiny ? 4 : 100;
  }

  const char* unit() const override { return "rank_iters"; }

  PassResult pass(Spans* spans) override {
    PassResult r;
    const std::size_t ranks = side_ * side_;
    workload::AppResult app;
    std::optional<simrt::SimWorld> world;
    {
      Scope s(spans, "setup");
      const Clock::time_point t0 = Clock::now();
      world.emplace(ranks, fabric::fabrics::myrinet2000(),
                    std::make_unique<fabric::Torus2D>(side_, side_));
      r.setup_s = seconds_between(t0, Clock::now());
    }
    {
      Scope s(spans, "launch");
      const Clock::time_point t0 = Clock::now();
      world->launch(workload::make_cg(cfg_, ranks, &app));
      r.setup_s += seconds_between(t0, Clock::now());
    }
    {
      Scope s(spans, "run");
      des::Engine& eng = world->engine();
      const Clock::time_point t0 = Clock::now();
      if (spans && slice_ticks_ > 0) {
        // Simulated-time slices: host cost of each stretch of sim time.
        while (!eng.empty()) {
          Scope slice(spans, "slice");
          const std::uint64_t before = eng.events_executed();
          eng.run_until(eng.now() + slice_ticks_);
          slice.arg("sim_s", des::to_seconds(eng.now()));
          slice.arg("events",
                    static_cast<double>(eng.events_executed() - before));
        }
      } else {
        world->run();
      }
      r.run_s = seconds_between(t0, Clock::now());
    }
    {
      Scope s(spans, "collect");
      collect(*world, app, r);
    }
    if (slice_ticks_ == 0) {
      slice_ticks_ =
          std::max<des::SimTime>(1, des::from_seconds(app.elapsed) / 32);
    }
    return r;
  }

  void traced_extras(const std::vector<PassResult>& traced, Metrics& out,
                     std::vector<std::string>&) override {
    add_ledger(traced, tiny_, out);
  }

 private:
  void collect(simrt::SimWorld& world, const workload::AppResult& app,
               PassResult& r) const {
    const std::size_t ranks = world.ranks();
    r.units = static_cast<double>(ranks) * cfg_.iterations;
    r.attempted = world.ranks_launched();
    const std::uint64_t unfinished =
        world.ranks_launched() - world.ranks_finished();
    r.failed = unfinished + world.msg_drops();
    if (unfinished != 0) {
      r.violations.push_back("simrt ranks_finished " +
                             std::to_string(world.ranks_finished()) +
                             " != ranks_launched " +
                             std::to_string(world.ranks_launched()));
    }
    if (world.msg_drops() != 0) {
      r.violations.push_back("simrt dropped " +
                             std::to_string(world.msg_drops()) + " messages");
    }

    std::uint64_t eager = 0, rdv = 0, posted = 0, arrived = 0, unexpected = 0;
    std::uint64_t pool = 0, held = 0;
    for (std::size_t i = 0; i < ranks; ++i) {
      simrt::SimComm& c = world.comm(i);
      eager += c.eager_count();
      rdv += c.rendezvous_count();
      const msg::MatchStats& ms = c.match_stats();
      posted += ms.posted;
      arrived += ms.arrived;
      unexpected += ms.arrived - ms.matched_posted;
      pool += c.matcher_pool_capacity();
      held = std::max<std::uint64_t>(held, c.max_held_depth());
    }
    const des::EngineStats es = world.engine().stats();
    const fabric::NetworkStats& ns = world.network().stats();
    r.fingerprint = "sim_s=" + exact(app.elapsed) +
                    " eager=" + std::to_string(eager) +
                    " rendezvous=" + std::to_string(rdv) +
                    " fabric_msgs=" + std::to_string(ns.messages) +
                    " events=" + std::to_string(es.executed);

    Metrics& m = r.layers;
    add_engine(m, es, r.run_s);
    add_network(m, ns);
    m.push_back({"msg.posted", static_cast<double>(posted)});
    m.push_back({"msg.unexpected_frac",
                 ratio(static_cast<double>(unexpected),
                       static_cast<double>(arrived))});
    m.push_back({"msg.pool_capacity", static_cast<double>(pool)});
    m.push_back({"simrt.eager_msgs", static_cast<double>(eager)});
    m.push_back({"simrt.rendezvous_msgs", static_cast<double>(rdv)});
    m.push_back(
        {"simrt.inflight_peak", static_cast<double>(world.max_inflight_in_use())});
    m.push_back({"simrt.max_held_depth", static_cast<double>(held)});
  }

  workload::CgConfig cfg_;
  std::size_t side_ = 16;
  bool tiny_ = false;
  des::SimTime slice_ticks_ = 0;  ///< set from the first pass's sim time
};

// ------------------------------------------------------------ serve_fattree

class ServeFatTree final : public Workload {
 public:
  ServeFatTree(std::uint64_t seed, bool tiny) : tiny_(tiny) {
    // k=4 fat tree, 16 hosts: front-ends on hosts 0-3, shards on 4-15.
    cfg_.frontends = 4;
    cfg_.shards = 12;
    cfg_.service_mean_s = 10e-6;
    const double capacity =
        static_cast<double>(cfg_.shards) / cfg_.service_mean_s;
    cfg_.arrival = support::ArrivalSpec::poisson(
        0.9 * capacity / static_cast<double>(cfg_.frontends));
    cfg_.request_bytes = 128;
    cfg_.response_bytes = 128;
    cfg_.lb = serve::LbPolicy::kPo2c;
    cfg_.routing = fabric::RoutingMode::kOblivious;
    cfg_.fabric = fabric::fabrics::myrinet2000();
    cfg_.duration_s = tiny ? 0.01 : 0.25;
    cfg_.warmup_s = tiny ? 0.002 : 0.01;
    cfg_.seed = mix(seed) >> 11;
  }

  const char* unit() const override { return "requests"; }

  PassResult pass(Spans* spans) override {
    PassResult r;
    std::optional<serve::ServeSim> sim;
    {
      Scope s(spans, "setup");
      const Clock::time_point t0 = Clock::now();
      sim.emplace(cfg_, std::make_unique<fabric::FatTree>(4));
      r.setup_s = seconds_between(t0, Clock::now());
    }
    serve::ServeResult res;
    {
      Scope s(spans, "run");
      const Clock::time_point t0 = Clock::now();
      res = sim->run();
      r.run_s = seconds_between(t0, Clock::now());
    }
    {
      Scope s(spans, "collect");
      collect(*sim, res, r);
    }
    if (spans) {
      Scope s(spans, "export");
      obs::MetricsRegistry reg;
      serve::export_metrics(res, reg);
    }
    return r;
  }

  void traced_extras(const std::vector<PassResult>& traced, Metrics& out,
                     std::vector<std::string>&) override {
    add_ledger(traced, tiny_, out);
  }

 private:
  static void collect(serve::ServeSim& sim, const serve::ServeResult& res,
                      PassResult& r) {
    r.units = static_cast<double>(res.completed);
    r.attempted = res.offered;
    const std::uint64_t settled = res.completed + res.dropped + res.rejected;
    r.failed = res.dropped + res.rejected +
               (res.offered > settled ? res.offered - settled : 0);
    if (settled != res.offered) {
      r.violations.push_back(
          "serve offered " + std::to_string(res.offered) +
          " != completed + dropped + rejected " + std::to_string(settled));
    }
    if (res.dropped + res.rejected != 0) {
      r.violations.push_back("serve dropped " + std::to_string(res.dropped) +
                             " and rejected " + std::to_string(res.rejected));
    }
    const des::EngineStats es = sim.engine().stats();
    r.fingerprint = "p50_ns=" + exact(res.latency_ns.quantile(0.50)) +
                    " p99_ns=" + exact(res.latency_ns.quantile(0.99)) +
                    " offered=" + std::to_string(res.offered) +
                    " completed=" + std::to_string(res.completed) +
                    " fabric_msgs=" + std::to_string(res.net.messages) +
                    " events=" + std::to_string(es.executed);

    Metrics& m = r.layers;
    add_engine(m, es, r.run_s);
    add_network(m, res.net);
    m.push_back({"serve.offered", static_cast<double>(res.offered)});
    m.push_back({"serve.completed", static_cast<double>(res.completed)});
    m.push_back(
        {"serve.max_queue_depth", static_cast<double>(res.max_queue_depth)});
    m.push_back(
        {"obs.latency_records", static_cast<double>(res.latency_ns.count())});
  }

  serve::ServeConfig cfg_;
  bool tiny_ = false;
};

// ------------------------------------------------------------ chaos_library

class ChaosLibrary final : public Workload {
 public:
  explicit ChaosLibrary(std::uint64_t seed) {
    const std::uint64_t spec_seed = 1 + mix(seed) % 1'000'000;
    for (const std::string& name : scenario::library_names()) {
      scenario::Json spec = scenario::Json::parse(scenario::library_spec(name));
      spec.set("seed", scenario::Json::number(static_cast<double>(spec_seed)));
      campaigns_.push_back({name, spec.dump()});
    }
  }

  const char* unit() const override { return "campaigns"; }

  PassResult pass(Spans* spans) override {
    PassResult r;
    double parse_s = 0.0;
    std::uint64_t ticks = 0, trace_events = 0;
    for (const Campaign& c : campaigns_) {
      Scope campaign(spans, c.name.c_str());
      if (spans) {
        const Clock::time_point t0 = Clock::now();
        const scenario::Json parsed = scenario::Json::parse(c.spec);
        parse_s += seconds_between(t0, Clock::now());
      }
      // A Runner must not be moved once built (its tree points back at
      // it), so it is initialized in place and the set-up span closed by
      // hand.
      std::optional<Scope> setup(std::in_place, spans, "setup");
      const Clock::time_point t_setup = Clock::now();
      scenario::Runner runner = scenario::Runner::from_text(c.spec);
      r.setup_s += seconds_between(t_setup, Clock::now());
      setup.reset();
      scenario::Verdict v;
      {
        Scope s(spans, "run");
        const Clock::time_point t0 = Clock::now();
        v = runner.run();
        const double run_s = seconds_between(t0, Clock::now());
        r.run_s += run_s;
        r.layers.push_back({"scenario." + c.name + ".host_ms", run_s * 1e3});
      }
      {
        Scope s(spans, "collect");
        ++r.attempted;
        if (!v.passed) {
          ++r.failed;
          r.violations.push_back("campaign " + c.name + " failed its verdict");
        }
        ticks += v.ticks;
        trace_events += v.trace_events;
        if (!r.fingerprint.empty()) r.fingerprint += ' ';
        r.fingerprint += c.name + "=" + hex(v.trace_hash);
      }
      if (spans) {
        Scope s(spans, "export");
        CountingBuf buf;
        std::ostream os(&buf);
        runner.tracer().write_json(os);
        s.arg("bytes", static_cast<double>(buf.bytes()));
      }
    }
    r.units = static_cast<double>(campaigns_.size());
    r.layers.push_back({"scenario.parse_ms", parse_s * 1e3});
    r.layers.push_back({"scenario.ticks", static_cast<double>(ticks)});
    r.layers.push_back(
        {"scenario.trace_events", static_cast<double>(trace_events)});
    return r;
  }

 private:
  struct Campaign {
    std::string name;
    std::string spec;
  };
  std::vector<Campaign> campaigns_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "pdes_cg") return std::make_unique<PdesCg>(seed, tiny);
  if (name == "simrt_cg") return std::make_unique<SimrtCg>(seed, tiny);
  if (name == "serve_fattree") return std::make_unique<ServeFatTree>(seed, tiny);
  if (name == "chaos_library") return std::make_unique<ChaosLibrary>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
