#include "heap_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// Frees go straight to std::free so the override stays symmetric.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace polaris::bench {

std::uint64_t heap_allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t heap_bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace polaris::bench
