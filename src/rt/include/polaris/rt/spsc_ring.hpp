// Lock-free single-producer/single-consumer ring buffer.
//
// The wire of the shared-memory transport: each ordered rank pair owns one
// ring, so SPSC is exact — the sender thread is the only producer, the
// receiver thread the only consumer.  Classic Lamport queue with C++11
// acquire/release atomics and cache-line-separated indices; the read-mostly
// fields (mask_, slots_) sit on their own cache line so a producer reading
// the mask never pulls the consumer's freshly-written tail line.
//
// Batched try_push_n/try_pop_n amortize the index round-trip: one acquire
// load and one release store cover the whole batch, so draining a deep ring
// costs two fences instead of two per element.
//
// A push writes a slot before any pop reads it, so slots of implicit-
// lifetime, trivially copyable element types (the shm transport's 40-byte
// message descriptors) are left unwritten at construction: their pages
// fault in as the ring first fills, not all at once when it is built.  A
// ShmWorld(8) builds 64 rings of 1,024 descriptors (2.5 MiB), and zero-
// filling them made building and destroying one about ten times slower
// (DESIGN.md, "rt rings are built unwritten").  Other element types keep
// value-initialized slots.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "polaris/support/check.hpp"

namespace polaris::rt {

// Fixed rather than std::hardware_destructive_interference_size: the
// constant participates in layout, and the std value varies with -mtune.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// Capacity must be a power of two (one slot is kept empty, so the ring
  /// holds capacity-1 elements).
  explicit SpscRing(std::size_t capacity)
      : mask_(capacity - 1), slots_(capacity) {
    POLARIS_CHECK_MSG(capacity >= 2 && (capacity & (capacity - 1)) == 0,
                      "ring capacity must be a power of two");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side.  Returns false when full.
  bool try_push(const T& value) {
    return emplace_impl([&](T& slot) { slot = value; });
  }

  /// Producer side, move flavour: message descriptors that own payload
  /// pointers transfer them instead of copying.
  bool try_push(T&& value) {
    return emplace_impl([&](T& slot) { slot = std::move(value); });
  }

  /// Producer side, in-place construction of the pushed value.
  template <typename... Args>
  bool try_emplace(Args&&... args) {
    return emplace_impl(
        [&](T& slot) { slot = T(std::forward<Args>(args)...); });
  }

  /// Producer side, batched: moves up to `n` values from `src` into the
  /// ring under a single index update.  Returns how many were pushed
  /// (0 when full; may be < n when nearly full).
  std::size_t try_push_n(T* src, std::size_t n) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t free_slots = mask_ - ((head - tail) & mask_);
    const std::size_t k = std::min(n, free_slots);
    for (std::size_t i = 0; i < k; ++i) {
      slots_[(head + i) & mask_] = std::move(src[i]);
    }
    if (k != 0) head_.store((head + k) & mask_, std::memory_order_release);
    return k;
  }

  /// Consumer side.  Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) {
      return false;  // empty
    }
    out = std::move(slots_[tail]);
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return true;
  }

  /// Consumer side, batched: moves up to `max` values into `dst` under a
  /// single index update.  Returns how many were popped (0 when empty).
  std::size_t try_pop_n(T* dst, std::size_t max) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t avail = (head - tail) & mask_;
    const std::size_t k = std::min(max, avail);
    for (std::size_t i = 0; i < k; ++i) {
      dst[i] = std::move(slots_[(tail + i) & mask_]);
    }
    if (k != 0) tail_.store((tail + k) & mask_, std::memory_order_release);
    return k;
  }

  /// Consumer side: drains the ring empty in fixed-size batches, invoking
  /// `fn(T&&)` once per element in FIFO order.  One acquire/release index
  /// round-trip per batch instead of per element, so deep rings drain at
  /// memcpy-like cost.  Returns the number of elements drained.
  template <typename Fn>
  std::size_t drain(Fn&& fn) {
    constexpr std::size_t kBatch = 32;
    T batch[kBatch];
    std::size_t total = 0;
    for (;;) {
      const std::size_t n = try_pop_n(batch, kBatch);
      if (n == 0) return total;
      for (std::size_t i = 0; i < n; ++i) fn(std::move(batch[i]));
      total += n;
    }
  }

  /// Consumer side: pops one value, idling via `backoff.pause()` (see
  /// rt::IdleBackoff: spin, then yield, then park) while the ring is empty
  /// so a quiet wire does not busy-burn a core.  `stopped()` is polled once
  /// per idle iteration; returns false if it turns true before a value
  /// arrives.  Resets the backoff ladder on success.
  template <typename Backoff, typename Stop>
  bool pop_wait(T& out, Backoff& backoff, Stop&& stopped) {
    while (!try_pop(out)) {
      if (stopped()) return false;
      backoff.pause();
    }
    backoff.reset();
    return true;
  }

  /// Consumer-side emptiness snapshot (exact for the consumer thread).
  bool empty() const {
    return tail_.load(std::memory_order_relaxed) ==
           head_.load(std::memory_order_acquire);
  }

  /// Approximate occupancy (safe to call from either side).
  std::size_t size_approx() const {
    const std::size_t h = head_.load(std::memory_order_acquire);
    const std::size_t t = tail_.load(std::memory_order_acquire);
    return (h - t) & mask_;
  }

  std::size_t capacity() const { return mask_; }  // usable slots

 private:
  /// Uninitialized slot storage; allocation implicitly creates the
  /// elements, each of which a push assigns before it is read.
  class RawSlots {
   public:
    explicit RawSlots(std::size_t n)
        : n_(n), p_(std::allocator<T>{}.allocate(n)) {}
    RawSlots(const RawSlots&) = delete;
    RawSlots& operator=(const RawSlots&) = delete;
    ~RawSlots() { std::allocator<T>{}.deallocate(p_, n_); }
    T& operator[](std::size_t i) { return p_[i]; }

   private:
    std::size_t n_;
    T* p_;
  };
  static constexpr bool kRawSlots =
      std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T> &&
      (std::is_aggregate_v<T> || std::is_trivially_default_constructible_v<T>);

  template <typename Store>
  bool emplace_impl(Store&& store) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    if (next == tail_.load(std::memory_order_acquire)) {
      return false;  // full
    }
    store(slots_[head]);
    head_.store(next, std::memory_order_release);
    return true;
  }

  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // producer writes
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // consumer writes
  alignas(kCacheLine) std::size_t mask_;  // read-only after construction
  std::conditional_t<kRawSlots, RawSlots, std::vector<T>> slots_;
};

}  // namespace polaris::rt
