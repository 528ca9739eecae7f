// Counting semaphore for simulated processes: a test oracle.
//
// The reference network (polaris/fabric/reference.hpp) holds one per
// directed link; nothing in the libraries uses it.  Wakeups go through a
// zero-delay engine event, like des::OneShotEvent's.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

/// Counting semaphore with FIFO grant order; models contended resources
/// such as link occupancy, NIC DMA engines, or bounded service stations.
class Semaphore {
 public:
  Semaphore(Engine& engine, std::int64_t initial)
      : engine_(&engine), count_(initial) {
    POLARIS_CHECK(initial >= 0);
  }
  Semaphore(Semaphore&&) = delete;  // waiters hold a pointer to this

  std::int64_t available() const { return count_; }
  std::size_t waiters() const { return waiters_.size(); }

  struct [[nodiscard]] AcquireAwaiter {
    Semaphore& sem;
    std::int64_t n;
    std::coroutine_handle<> handle;

    bool await_ready() noexcept {
      if (sem.waiters_.empty() && sem.count_ >= n) {
        sem.count_ -= n;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      sem.waiters_.push_back(this);
    }
    void await_resume() const noexcept {}
  };

  /// Awaits until `n` units are available, then takes them.  Grants are
  /// strictly FIFO: a large request blocks later small ones (no starvation).
  AcquireAwaiter acquire(std::int64_t n = 1) {
    POLARIS_CHECK(n >= 0);
    return AcquireAwaiter{*this, n, {}};
  }

  /// Returns `n` units and wakes waiters whose requests now fit.
  void release(std::int64_t n = 1) {
    POLARIS_CHECK(n >= 0);
    count_ += n;
    grant();
  }

 private:
  friend struct AcquireAwaiter;

  void grant() {
    while (!waiters_.empty() && waiters_.front()->n <= count_) {
      AcquireAwaiter* w = waiters_.front();
      waiters_.pop_front();
      count_ -= w->n;
      auto h = w->handle;
      engine_->schedule_after(0, [h] { h.resume(); });
    }
  }

  Engine* engine_;
  std::int64_t count_;
  std::deque<AcquireAwaiter*> waiters_;
};

}  // namespace polaris::des
