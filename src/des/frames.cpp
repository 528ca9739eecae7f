// Thread-local recycler for coroutine frames (see task.hpp).
//
// Every simulated process step that awaits a child Task creates and
// destroys one frame, so a simrt run churns millions of them.  Frames come
// in a handful of sizes, so each thread keeps one LIFO free list per
// 64-byte size class up to 1 KiB; a miss, and every larger frame, goes to
// the global heap.  Blocks never move between threads' lists except by
// being freed there, so no list is shared.
//
// Lifetime: a thread's lists are drained back to the heap by a
// thread_local reaper, registered by the thread's first free.  The list
// heads themselves are a trivially destructible thread_local, readable
// until the thread's storage is released, so a frame freed after the
// reaper ran (say, by a static engine destroyed at exit) sees the
// torn-down state and goes straight to the heap.
//
// Cached blocks are poisoned under AddressSanitizer, so touching a
// destroyed frame is still reported while its block waits for reuse.
#include <cstddef>
#include <new>

#include "polaris/des/task.hpp"

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace polaris::des::detail {
namespace {

constexpr std::size_t kClassBytes = 64;
constexpr std::size_t kClasses = 16;  // 64 B .. 1 KiB

struct FreeBlock {
  FreeBlock* next;
};

enum class CacheState : unsigned char { kUnused, kLive, kTornDown };

struct FrameCache {
  FreeBlock* heads[kClasses] = {};
  std::size_t cached = 0;
  CacheState state = CacheState::kUnused;
};

constinit thread_local FrameCache t_cache;

constexpr std::size_t size_class(std::size_t n) {
  return (n - 1) / kClassBytes;  // n >= 1: frames are never empty
}

constexpr std::size_t class_bytes(std::size_t c) {
  return (c + 1) * kClassBytes;
}

FreeBlock* pop(FrameCache& fc, std::size_t c) {
  FreeBlock* b = fc.heads[c];
  ASAN_UNPOISON_MEMORY_REGION(b, class_bytes(c));
  fc.heads[c] = b->next;
  --fc.cached;
  return b;
}

struct CacheReaper {
  CacheReaper() = default;
  CacheReaper(const CacheReaper&) = delete;
  CacheReaper& operator=(const CacheReaper&) = delete;
  ~CacheReaper() {
    FrameCache& fc = t_cache;
    fc.state = CacheState::kTornDown;
    for (std::size_t c = 0; c < kClasses; ++c) {
      while (fc.heads[c] != nullptr) {
        ::operator delete(pop(fc, c), class_bytes(c));
      }
    }
  }
};

void arm_reaper(FrameCache& fc) {
  thread_local CacheReaper reaper;  // constructed once per thread, here
  fc.state = CacheState::kLive;
}

}  // namespace

void* frame_alloc(std::size_t n) {
  const std::size_t c = size_class(n);
  if (c >= kClasses) return ::operator new(n);
  FrameCache& fc = t_cache;
  if (fc.heads[c] != nullptr) return pop(fc, c);
  return ::operator new(class_bytes(c));
}

void frame_free(void* p, std::size_t n) noexcept {
  const std::size_t c = size_class(n);
  if (c >= kClasses) {
    ::operator delete(p, n);
    return;
  }
  FrameCache& fc = t_cache;
  if (fc.state == CacheState::kUnused) arm_reaper(fc);
  if (fc.state != CacheState::kLive) {
    ::operator delete(p, class_bytes(c));
    return;
  }
  auto* b = static_cast<FreeBlock*>(p);
  b->next = fc.heads[c];
  fc.heads[c] = b;
  ++fc.cached;
  ASAN_POISON_MEMORY_REGION(b, class_bytes(c));
}

std::size_t cached_frames() { return t_cache.cached; }

}  // namespace polaris::des::detail
