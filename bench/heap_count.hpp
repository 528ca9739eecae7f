// Heap-allocation odometers for the benches that claim an allocation-free
// steady state (D1, D3, D7) and the tests that hold a budget of bytes.
// Linking heap_count.cpp replaces the process's global operator new with a
// counting one, so a bracketed read counts every heap allocation in
// between, and the bytes they asked for: slab growth, coroutine frames and
// anything else the code under test does.  Frees are not subtracted.
#pragma once

#include <cstdint>

namespace polaris::bench {

/// Global operator new calls since the process started.
std::uint64_t heap_allocations();

/// Bytes requested from global operator new since the process started.
std::uint64_t heap_bytes();

}  // namespace polaris::bench
