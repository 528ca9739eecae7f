// Waiting primitives for threads that expect work "soon".
//
// Both the shared-memory transport and the pdes shard workers sit in loops
// whose next item usually arrives within microseconds but occasionally not
// for milliseconds (a peer descheduled, a quiet simulation window).  A bare
// spin burns a core — and on an oversubscribed machine actively *delays*
// the producer it is waiting for; a bare sleep adds wakeup latency to the
// common fast case.  IdleBackoff escalates through the standard ladder:
// cpu-relax spins (cheap, keeps the line in cache), sched yields (lets a
// same-core producer run — critical when workers > cores), then short
// parked sleeps (stops burning the core entirely).  Any successful wait
// resets the ladder.
//
// SpinBarrier is a barrier with a serial section: the last thread to
// arrive runs a caller-supplied closure while every other participant
// waits, then releases the generation.  This is exactly the shape of a
// conservative PDES window boundary — N shard workers quiesce, one thread
// picks the next safe window, everyone resumes.  Its waiters spin and
// yield like IdleBackoff but then block on the generation word itself
// (std::atomic::wait, a futex on Linux) instead of sleeping: a timed sleep
// cannot end before the timer fires, and with Linux's default 50us timer
// slack a 20us sleep lasts about 75us (4-core x86 VM), a large share of a
// 0.1-0.4 ms pdes window.  The last arriver's notify_all wakes the
// blocked waiters as soon as the next window opens.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace polaris::rt {

/// Escalating idle-wait policy: spin, then yield, then park in short
/// sleeps.  Not thread-safe; each waiting thread owns one instance (or one
/// per wait site).  reset() after every successful wait.
class IdleBackoff {
 public:
  /// Ladder geometry.  Spins cover sub-microsecond waits, yields cover
  /// "producer is runnable on this core", parks cover genuinely idle
  /// periods.  A park asks for 20us but lasts until the kernel timer fires:
  /// about 75us under Linux's default 50us timer slack (4-core x86 VM).
  static constexpr std::uint32_t kSpinIters = 64;
  static constexpr std::uint32_t kYieldIters = 64;
  static constexpr std::uint32_t kParkMicros = 20;

  /// One idle iteration; escalates with consecutive calls since reset().
  void pause() {
    const std::uint32_t i = idle_iters_++;
    if (i < kSpinIters) {
      cpu_relax();
    } else if (i < kSpinIters + kYieldIters) {
      std::this_thread::yield();
    } else {
      ++parks_;
      std::this_thread::sleep_for(std::chrono::microseconds(kParkMicros));
    }
  }

  /// Call after a successful wait: the next idle period starts spinning.
  void reset() { idle_iters_ = 0; }

  /// Times this backoff reached the parked (sleeping) tier; an
  /// observability proxy for "how often was this thread genuinely idle".
  std::uint64_t parks() const { return parks_; }

  /// One pipeline-friendly busy-wait hint (PAUSE/YIELD instruction).
  static void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

 private:
  std::uint32_t idle_iters_ = 0;
  std::uint64_t parks_ = 0;
};

/// Generation-counting barrier for a fixed set of participants, with an
/// optional serial section run by exactly the last arriver of each
/// generation.  A waiter spins, then yields (IdleBackoff's first two
/// tiers), then blocks on the generation word until the last arriver
/// publishes the next generation and notifies.
///
/// Memory ordering: everything written by a participant before
/// arrive_and_wait() is visible to every participant after it returns
/// (arrivals publish with acq_rel, waiters acquire the generation bump), so
/// the serial closure may freely read all participants' window state and
/// its writes are visible to everyone after release.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t participants) : n_(participants) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  std::size_t participants() const { return n_; }

  /// Blocks until all participants arrive.  The last arriver runs
  /// `serial()` before releasing the others.
  template <typename Fn>
  void arrive_and_wait(Fn&& serial) {
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      serial();
      arrived_.store(0, std::memory_order_relaxed);
      // seq_cst orders this store before notify_all's check for blocked
      // waiters, so a waiter that read the old generation is never missed.
      gen_.store(gen + 1, std::memory_order_seq_cst);
      gen_.notify_all();
      return;
    }
    IdleBackoff backoff;  // only its spin and yield tiers run here
    for (std::uint32_t i = 0;
         i < IdleBackoff::kSpinIters + IdleBackoff::kYieldIters; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      backoff.pause();
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      // Counted on entry, so an observer sees a waiter park before it wakes.
      parks_.fetch_add(1, std::memory_order_relaxed);
      gen_.wait(gen, std::memory_order_acquire);
    }
  }

  void arrive_and_wait() {
    arrive_and_wait([] {});
  }

  /// Total blocking waits across all participants (idle-time
  /// observability): how often a waiter outlasted the spin and yield tiers.
  /// A wait counts when it begins.
  std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};  ///< the futex word on Linux
  std::atomic<std::uint64_t> parks_{0};
  std::size_t n_;
};

}  // namespace polaris::rt
