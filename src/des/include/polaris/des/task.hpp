// Lazily-started coroutine task for simulated processes.
//
// A simulated process (a rank program, a NIC engine, a scheduler loop) is a
// C++20 coroutine returning Task<T>.  Tasks compose with co_await and use
// symmetric transfer to resume their awaiter on completion, so arbitrarily
// deep call chains run in constant stack space.  Top-level tasks are handed
// to Engine::spawn(), which drives them as detached processes.
//
// Tasks themselves carry no engine reference: anything that needs simulated
// time (delays, triggers) takes the Engine explicitly.  GCC 12.2
// miscompiles `co_await` inside an `if` or `while` condition, so bind the
// awaited value to a local first.
//
// Frames are recycled: each thread keeps free lists of frame-sized blocks
// (64-byte size classes up to 1 KiB; larger frames use the global heap),
// so the steady state of a simulation, which creates and destroys a frame
// per awaited call, does not touch the allocator.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "polaris/des/engine.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

namespace detail {

/// The thread-local frame recycler (frames.cpp).  `frame_free` must get the
/// size `frame_alloc` was given; a block may be freed on any thread.
void* frame_alloc(std::size_t n);
void frame_free(void* p, std::size_t n) noexcept;
/// Blocks the calling thread's recycler holds for reuse.
std::size_t cached_frames();

/// Routes a coroutine's frame through the recycler; the compiler finds
/// these in the promise type and passes the frame size to both.
struct RecycledFrame {
  static void* operator new(std::size_t n) { return frame_alloc(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_free(p, n);
  }
};

struct PromiseBase : RecycledFrame {
  std::coroutine_handle<> continuation;
  std::exception_ptr error;

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      // Resume whoever awaited us; if detached (no awaiter), just stop —
      // the Task destructor will free the frame.
      if (promise.continuation) return promise.continuation;
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] Task;

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<typename Task::promise_type> h)
      : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }

  // -- awaitable interface --------------------------------------------------
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    POLARIS_CHECK_MSG(handle_ && !handle_.done(), "awaiting an empty task");
    handle_.promise().continuation = awaiter;
    return handle_;  // start the child (symmetric transfer)
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
    return std::move(p.value);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return handle_ != nullptr; }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    POLARIS_CHECK_MSG(handle_ && !handle_.done(), "awaiting an empty task");
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.error) std::rethrow_exception(p.error);
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Awaitable that suspends the current coroutine for `dt` simulated time.
///
///   co_await delay(engine, des::kMicrosecond * 5);
class DelayAwaiter {
 public:
  DelayAwaiter(Engine& engine, SimTime dt) : engine_(engine), dt_(dt) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    engine_.schedule_after(dt_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  SimTime dt_;
};

inline DelayAwaiter delay(Engine& engine, SimTime dt) {
  POLARIS_CHECK(dt >= 0);
  return DelayAwaiter(engine, dt);
}

/// Awaitable that reschedules the current coroutine at the same simulated
/// time (a cooperative yield, useful to let same-time events interleave).
inline DelayAwaiter yield(Engine& engine) { return DelayAwaiter(engine, 0); }

}  // namespace polaris::des
