// Coroutine synchronization primitives for simulated processes: one-shot
// triggers, value mailboxes, and counting semaphores (used for resource
// serialization, e.g. modelling link occupancy).
//
// All resumptions are funnelled through Engine::schedule_after(0, ...) so
// same-time wakeups execute in FIFO order, recursion depth stays bounded,
// and a primitive may be fired from inside another coroutine safely.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

/// One-shot event: coroutines await it; fire() releases all current and
/// future waiters, in the order they began waiting.  Await-after-fire
/// completes immediately.  Allocates nothing until a coroutine waits.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}
  Trigger(Trigger&&) = delete;  // waiters hold a pointer to this

  bool fired() const { return fired_; }

  /// Fires the trigger.  Idempotent.
  void fire() {
    if (fired_) return;
    fired_ = true;
    for (auto h : waiters_) {
      engine_->schedule_after(0, [h] { h.resume(); });
    }
    waiters_.clear();
  }

  struct Awaiter {
    Trigger& trigger;
    bool await_ready() const noexcept { return trigger.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      trigger.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{*this}; }
  Awaiter operator co_await() { return Awaiter{*this}; }

 private:
  Engine* engine_;
  bool fired_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Intrusive single-waiter one-shot: the pooled counterpart of Trigger for
/// hot paths that embed completion state in slab records (e.g. the simrt
/// in-flight pool).  Two words, no engine pointer, never allocates, and
/// reset() rearms it for slab reuse.  fire() funnels the waiter through a
/// zero-delay event exactly as Trigger does (raw-callback form, which also
/// takes the engine's SBO fast path), so wakeup ordering is identical:
/// swapping one for the other cannot shift simulated timing.
class OneShotEvent {
 public:
  bool fired() const { return fired_; }

  /// Fires the event, waking the waiter (if any) on a zero-delay engine
  /// event.  Idempotent.
  void fire(Engine& engine) {
    if (fired_) return;
    fired_ = true;
    if (waiter_) {
      engine.schedule_raw_after(0, &resume_cb, waiter_.address());
      waiter_ = {};
    }
  }

  /// Rearms a fired event (callers guarantee no waiter is parked).
  void reset() {
    POLARIS_DCHECK(!waiter_);
    fired_ = false;
  }

  struct Awaiter {
    OneShotEvent& event;
    bool await_ready() const noexcept { return event.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      POLARIS_CHECK_MSG(!event.waiter_,
                        "OneShotEvent supports a single waiter");
      event.waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{*this}; }
  Awaiter operator co_await() { return Awaiter{*this}; }

 private:
  static void resume_cb(void* ctx) {
    std::coroutine_handle<>::from_address(ctx).resume();
  }

  bool fired_ = false;
  std::coroutine_handle<> waiter_{};
};

/// Unbounded FIFO channel of T.  Multiple producers and consumers; values
/// are delivered to consumers in arrival order.
template <typename T>
class Mailbox {
 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> value;
  };

 public:
  explicit Mailbox(Engine& engine) : engine_(&engine) {}
  Mailbox(Mailbox&&) = delete;  // waiters hold a pointer to this

  /// Deposits a value; wakes the oldest waiting consumer, if any.
  void push(T value) {
    if (!consumers_.empty()) {
      Waiter* w = consumers_.front();
      consumers_.pop_front();
      w->value.emplace(std::move(value));
      auto h = w->handle;
      engine_->schedule_after(0, [h] { h.resume(); });
    } else {
      values_.push_back(std::move(value));
    }
  }

  std::size_t size() const { return values_.size(); }
  bool has_waiters() const { return !consumers_.empty(); }

  struct [[nodiscard]] GetAwaiter {
    Mailbox& mb;
    Waiter self{};

    bool await_ready() noexcept { return !mb.values_.empty(); }
    void await_suspend(std::coroutine_handle<> h) {
      self.handle = h;
      mb.consumers_.push_back(&self);
    }
    T await_resume() {
      if (self.value.has_value()) {
        return std::move(*self.value);
      }
      POLARIS_CHECK(!mb.values_.empty());
      T v = std::move(mb.values_.front());
      mb.values_.pop_front();
      return v;
    }
  };

  /// Awaits the next value:  `T v = co_await mb.get();`
  GetAwaiter get() { return GetAwaiter{*this}; }

  /// Non-blocking take.
  std::optional<T> try_get() {
    if (values_.empty()) return std::nullopt;
    T v = std::move(values_.front());
    values_.pop_front();
    return v;
  }

 private:
  friend struct GetAwaiter;

  Engine* engine_;
  std::deque<T> values_;
  std::deque<Waiter*> consumers_;
};

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

/// Join-counter for fan-out/fan-in: arm() before spawning each child,
/// done() when a child finishes, wait() suspends until the count drains.
/// Equivalent to the counter+Trigger idiom, packaged.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : trigger_(engine) {}
  WaitGroup(WaitGroup&&) = delete;

  void arm(std::size_t n = 1) {
    POLARIS_CHECK_MSG(!trigger_.fired(), "arm() after the group drained");
    count_ += n;
  }

  void done() {
    POLARIS_CHECK_MSG(count_ > 0, "done() without a matching arm()");
    if (--count_ == 0) trigger_.fire();
  }

  /// Awaits the count reaching zero.  A group that was never armed is
  /// already drained.
  Trigger::Awaiter wait() {
    if (count_ == 0) trigger_.fire();
    return trigger_.wait();
  }

  std::size_t pending() const { return count_; }

 private:
  std::size_t count_ = 0;
  Trigger trigger_;
};

}  // namespace polaris::des
