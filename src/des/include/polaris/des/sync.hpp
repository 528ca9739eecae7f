// Coroutine synchronization primitives for simulated processes: a
// one-shot trigger with any number of waiters, and its pooled
// single-waiter counterpart.
//
// All resumptions are funnelled through a zero-delay engine event so
// same-time wakeups execute in FIFO order, recursion depth stays bounded,
// and a primitive may be fired from inside another coroutine safely.
#pragma once

#include <coroutine>
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

}  // namespace polaris::des
