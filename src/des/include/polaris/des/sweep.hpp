// Parallel driver for sweeps of *independent* simulations.
//
// Every quantitative experiment in bench/ is a sweep: one Engine (usually
// inside a simrt::SimWorld) per (fabric, node count, message size, policy)
// point, with no shared state between points.  SweepRunner farms those
// points across a thread pool and collects results in point order, so a
// sweep's output is byte-identical no matter how many threads ran it —
// parallelism changes wall-clock time only.
//
// Determinism contract: the point function must derive all randomness from
// its point index (use sweep_seed()) and must not touch shared mutable
// state.  Engines are strictly single-threaded; the runner never shares an
// Engine between threads, it runs whole independent engines concurrently.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "polaris/support/check.hpp"

namespace polaris::des {

/// Deterministic per-point RNG seed: mixes the sweep's base seed with the
/// point index so sibling points get uncorrelated streams and re-running
/// point i alone reproduces the full sweep's point i exactly.
std::uint64_t sweep_seed(std::uint64_t base_seed, std::size_t point);

class SweepRunner {
 public:
  /// `threads` = 0 picks default_threads(); a count >= 1 is honored
  /// exactly (1 = inline, no pool).  A run uses at most one thread per
  /// point.
  explicit SweepRunner(std::size_t threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}

  /// POLARIS_SWEEP_THREADS when set (>= 1) — how CI and reproducibility
  /// checks force serial runs — else std::thread::hardware_concurrency(),
  /// at least 1.
  static std::size_t default_threads();

  std::size_t threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) and returns the results ordered by
  /// point index.  fn must be safe to invoke concurrently from multiple
  /// threads (it is called at most once per i).  The first exception a
  /// point throws aborts the remaining unstarted points and is rethrown.
  template <typename Fn>
  auto run(std::size_t n, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    static_assert(!std::is_void_v<R>,
                  "sweep points must return their result by value");
    std::vector<std::optional<R>> slots(n);
    const std::size_t workers = std::min(threads_, n);
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) slots[i].emplace(fn(i));
    } else {
      std::atomic<std::size_t> next{0};
      std::atomic<bool> abort{false};
      std::mutex error_mu;
      std::exception_ptr error;
      auto body = [&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n || abort.load(std::memory_order_relaxed)) return;
          try {
            slots[i].emplace(fn(i));
          } catch (...) {
            {
              const std::lock_guard<std::mutex> lock(error_mu);
              if (!error) error = std::current_exception();
            }
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      };
      // The calling thread is one of the workers: spawn one fewer thread
      // and work the queue itself.
      std::vector<std::thread> pool;
      pool.reserve(workers - 1);
      for (std::size_t w = 0; w + 1 < workers; ++w) pool.emplace_back(body);
      body();
      for (auto& t : pool) t.join();
      if (error) std::rethrow_exception(error);
    }
    std::vector<R> out;
    out.reserve(n);
    for (auto& s : slots) {
      POLARIS_CHECK_MSG(s.has_value(), "sweep point skipped after abort");
      out.push_back(std::move(*s));
    }
    return out;
  }

  /// Convenience: one point per item.  fn receives (item, index).
  template <typename Item, typename Fn>
  auto map(const std::vector<Item>& items, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, const Item&, std::size_t>> {
    return run(items.size(),
               [&](std::size_t i) { return fn(items[i], i); });
  }

 private:
  std::size_t threads_;
};

}  // namespace polaris::des
