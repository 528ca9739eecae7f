// Coroutine synchronization for simulated processes: a pooled
// single-waiter one-shot event.
//
// The resumption is funnelled through a zero-delay engine event so
// same-time wakeups execute in FIFO order, recursion depth stays bounded,
// and the event may be fired from inside another coroutine safely.
#pragma once

#include <coroutine>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

/// Intrusive single-waiter one-shot, small enough to embed completion
/// state in slab records (e.g. the simrt in-flight pool).  Two words, no
/// engine pointer, never allocates, and reset() rearms it for slab reuse.
/// fire() wakes the waiter on one zero-delay raw-callback event.
/// Await-after-fire completes immediately.
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
