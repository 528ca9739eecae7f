// Move-only type-erased callable with a small-buffer optimization
// (std::move_only_function is C++23; this is the C++20 equivalent the event
// engine needs for callbacks that capture move-only state such as coroutine
// tasks).
//
// Callables that fit the inline buffer and are nothrow-move-constructible
// are stored in place — no heap allocation.  The discrete-event engine's
// typical callback (a lambda capturing one coroutine handle, or a handle
// plus an owner pointer) fits the 32-byte budget, so the schedule hot path
// allocates nothing; larger captures fall back to the heap and
// `heap_allocated()` lets callers count those misses.  The whole object is
// 48 bytes, so an engine event node (time, chain slot, generation and this)
// fills exactly one 64-byte cache line.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace polaris::support {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline storage budget: four pointers, enough for the engine's
  /// captures (a coroutine handle plus an owner, a pdes delivery record, a
  /// fault event plus its injector).
  static constexpr std::size_t kInlineBytes = 32;

  UniqueFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>() && std::is_trivially_copyable_v<D>) {
      // Trivial inline target: manage_ stays null — destruction is a
      // no-op and moves are a fixed-size memcpy, so the event-engine hot
      // path pays no indirect management calls.
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      };
    } else if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        if (op == Op::kMoveFrom) {
          ::new (self)
              D(std::move(*std::launder(reinterpret_cast<D*>(other))));
          std::launder(reinterpret_cast<D*>(other))->~D();
        } else if (op == Op::kDestroy) {
          std::launder(reinterpret_cast<D*>(self))->~D();
        }
        return false;
      };
    } else {
      ptr(storage_) = new D(std::forward<F>(f));
      invoke_ = [](void* s, Args&&... args) -> R {
        return (*static_cast<D*>(ptr(s)))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* other) {
        if (op == Op::kMoveFrom) ptr(self) = std::exchange(ptr(other), nullptr);
        if (op == Op::kDestroy) delete static_cast<D*>(ptr(self));
        return true;
      };
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the target lives on the heap (capture exceeded the inline
  /// buffer or has a throwing move).  False for empty or inline targets.
  bool heap_allocated() const {
    return manage_ != nullptr && manage_(Op::kIsHeap, nullptr, nullptr);
  }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  /// Every op returns whether the target lives on the heap; kIsHeap only
  /// asks that.
  enum class Op { kDestroy, kMoveFrom, kIsHeap };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = bool (*)(Op, void* self, void* other);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  static void*& ptr(void* s) { return *static_cast<void**>(s); }
  static void* ptr(const void* s) {
    return *static_cast<void* const*>(const_cast<void*>(s));
  }

  void reset() {
    if (invoke_) {
      if (manage_) manage_(Op::kDestroy, storage_, nullptr);
      invoke_ = nullptr;
      manage_ = nullptr;
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    invoke_ = std::exchange(other.invoke_, nullptr);
    manage_ = std::exchange(other.manage_, nullptr);
    if (invoke_) {
      if (manage_) {
        manage_(Op::kMoveFrom, storage_, other.storage_);
      } else {
        // Trivial inline target: copying the whole buffer is cheaper than
        // a size dispatch.  The buffer starts zeroed, so a tail the target
        // does not cover is still initialized.
        std::memcpy(storage_, other.storage_, kInlineBytes);
      }
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes] = {};
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace polaris::support
