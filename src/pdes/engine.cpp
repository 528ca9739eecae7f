#include "polaris/pdes/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <exception>
#include <thread>

#include "polaris/rt/wait.hpp"
#include "polaris/support/check.hpp"

namespace polaris::pdes {

ShardedEngine::ShardedEngine(Config cfg) : cfg_(std::move(cfg)) {
  const Workload& wl = cfg_.workload;
  POLARIS_CHECK(wl.ranks() >= 1);
  POLARIS_CHECK_MSG(cfg_.shards >= 1 && cfg_.shards <= wl.ranks(),
                    "shard count must be in [1, ranks]");
  part_ = fabric::make_block_partition(wl.ranks(), {wl.grid_w, wl.grid_h},
                                       cfg_.fabric, cfg_.shards);
  worlds_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    worlds_.push_back(std::make_unique<ShardWorld>(cfg_, part_, s, this));
  }
  const std::size_t cap =
      std::bit_ceil(std::max<std::size_t>(cfg_.channel_capacity, 2));
  channels_.resize(cfg_.shards * cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    for (std::size_t d = 0; d < cfg_.shards; ++d) {
      if (s != d) {
        channels_[s * cfg_.shards + d] = std::make_unique<Channel>(cap);
      }
    }
  }
}

void ShardedEngine::push_handoff(std::size_t src, std::size_t dst,
                                 fabric::ShardHandoff h) {
  Channel& ch = channel(src, dst);
  h.seq = ch.seq++;
  if (!ch.ring.try_push(h)) {
    // Mid-window the consumer is not draining, so a full ring must not
    // block the producer: spill on the side.  Order does not matter — the
    // consumer canonically sorts each window's batch.
    const std::lock_guard<std::mutex> lock(ch.mu);
    ch.spill.push_back(h);
  }
}

void ShardedEngine::drain_into(std::size_t dst,
                               std::vector<fabric::ShardHandoff>& out) {
  for (std::size_t src = 0; src < part_.shards; ++src) {
    if (src == dst) continue;
    Channel& ch = channel(src, dst);
    ch.ring.drain([&out](fabric::ShardHandoff&& h) { out.push_back(h); });
    const std::lock_guard<std::mutex> lock(ch.mu);
    out.insert(out.end(), ch.spill.begin(), ch.spill.end());
    ch.spill.clear();
  }
}

Result ShardedEngine::run() {
  POLARIS_CHECK_MSG(!ran_, "ShardedEngine::run is one-shot");
  ran_ = true;

  const std::size_t shards = cfg_.shards;
  const std::size_t workers = std::min<std::size_t>(
      cfg_.workers != 0 ? cfg_.workers
                        : std::max(1u, std::thread::hardware_concurrency()),
      shards);

  const des::SimTime lookahead = des::from_seconds(part_.lookahead_s);
  POLARIS_CHECK_MSG(lookahead >= 1, "fabric lookahead below one tick");

  rt::SpinBarrier barrier(workers);
  std::vector<des::SimTime> report(shards, des::Engine::kNoEventTime);
  std::vector<std::uint64_t> busy_ns(shards, 0);
  des::SimTime window_until = 0;  // written in the serial section only
  bool done = false;              // written in the serial section only
  std::uint64_t windows = 0;
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  auto note_error = [&] {
    {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    failed.store(true, std::memory_order_relaxed);
  };

  auto worker = [&](std::size_t wi) {
    using clock = std::chrono::steady_clock;
    try {
      for (std::size_t s = wi; s < shards; s += workers) {
        worlds_[s]->init();
        report[s] = worlds_[s]->next_time();
      }
    } catch (...) {
      note_error();
    }
    for (;;) {
      barrier.arrive_and_wait([&] {
        // Serial section: all shards quiesced; their pre-barrier writes
        // (report[], channel contents) are visible here.
        if (failed.load(std::memory_order_relaxed)) {
          done = true;
          return;
        }
        des::SimTime global_next = des::Engine::kNoEventTime;
        for (const des::SimTime t : report) {
          global_next = std::min(global_next, t);
        }
        if (global_next == des::Engine::kNoEventTime) {
          done = true;
          return;
        }
        // Adaptive window: jump straight to the earliest action anywhere
        // and run one full lookahead from there (inclusive bound).
        window_until = global_next + lookahead - 1;
        ++windows;
      });
      if (done) break;
      if (failed.load(std::memory_order_relaxed)) continue;  // keep arriving
      try {
        for (std::size_t s = wi; s < shards; s += workers) {
          const auto t0 = clock::now();
          worlds_[s]->begin_window();
          worlds_[s]->run_window(window_until);
          const std::uint64_t ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - t0)
                  .count());
          busy_ns[s] += ns;
          worlds_[s]->note_window_ns(ns);
          report[s] = worlds_[s]->next_time();
        }
      } catch (...) {
        note_error();
      }
    }
  };

  const auto wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t wi = 0; wi + 1 < workers; ++wi) {
    pool.emplace_back(worker, wi);
  }
  worker(workers - 1);  // the caller is one of the workers
  for (auto& t : pool) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  if (error) std::rethrow_exception(error);

  Result res;
  res.shards = shards;
  res.workers = workers;
  res.lookahead_s = part_.lookahead_s;
  res.windows = windows;
  res.wall_s = wall_s;
  res.parks = barrier.parks();
  std::uint64_t max_busy = 0, sum_busy = 0;
  for (const std::uint64_t ns : busy_ns) {
    max_busy = std::max(max_busy, ns);
    sum_busy += ns;
  }
  res.max_shard_busy_s = static_cast<double>(max_busy) * 1e-9;
  res.sum_busy_s = static_cast<double>(sum_busy) * 1e-9;
  for (const auto& w : worlds_) {
    res.events += w->events();
    res.msgs_intra += w->msgs_intra();
    res.msgs_cross += w->msgs_cross();
    res.nacks += w->nacks();
    res.peak_event_nodes += w->peak_event_nodes();
    // Workers quiesced at join: each shard's histograms are final.
    res.window_ns.merge_from(w->window_ns());
    res.window_events.merge_from(w->window_events());
    res.drain_batch.merge_from(w->drain_batch());
  }

  // Golden trace: every rank's per-phase completion stream plus its final
  // state, folded in global rank order — shard-placement invariant.
  const std::size_t ranks = cfg_.workload.ranks();
  std::uint64_t g = kFnvOffset;
  des::SimTime latest = 0;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    const std::size_t s = part_.shard_of(r);
    const RankState& st = worlds_[s]->rank(r - part_.first_node[s]);
    g = fnv_step(g, r);
    g = fnv_step(g, st.hash);
    g = fnv_step(g, static_cast<std::uint64_t>(st.done_at));
    g = fnv_step(g, st.phase);
    g = fnv_step(g, (static_cast<std::uint64_t>(st.status) << 16) |
                        (static_cast<std::uint64_t>(st.nbr_dead) << 8) |
                        st.flags);
    if (st.finished() && !st.dead()) {
      ++res.ranks_ok;
    } else {
      ++res.ranks_failed;
    }
    latest = std::max(latest, st.done_at);
  }
  res.golden_hash = g;
  res.sim_seconds = des::to_seconds(latest);
  return res;
}

Result run(const Config& cfg) {
  ShardedEngine engine(cfg);
  return engine.run();
}

void export_metrics(const Result& r, obs::MetricsRegistry& reg) {
  reg.counter("pdes.events").add(r.events);
  reg.counter("pdes.windows").add(r.windows);
  reg.counter("pdes.msgs_intra").add(r.msgs_intra);
  reg.counter("pdes.msgs_cross").add(r.msgs_cross);
  reg.counter("pdes.nacks").add(r.nacks);
  reg.counter("pdes.barrier_parks").add(r.parks);
  reg.gauge("pdes.shards").set(static_cast<double>(r.shards));
  reg.gauge("pdes.workers").set(static_cast<double>(r.workers));
  reg.gauge("pdes.sim_seconds").set(r.sim_seconds);
  reg.gauge("pdes.peak_event_nodes")
      .observe_max(static_cast<double>(r.peak_event_nodes));
  reg.log_histogram("pdes.window_ns").merge_from(r.window_ns);
  reg.log_histogram("pdes.window_events").merge_from(r.window_events);
  reg.log_histogram("pdes.drain_batch").merge_from(r.drain_batch);
}

}  // namespace polaris::pdes
