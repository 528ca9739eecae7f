// Heap-allocation odometer for the benches that claim an allocation-free
// steady state (D1, D3, D7).  Linking heap_count.cpp replaces the process's
// global operator new with a counting one, so a bracketed read counts
// every heap allocation in between: slab growth, coroutine frames and
// anything else the code under test does.
#pragma once

#include <cstdint>

namespace polaris::bench {

/// Global operator new calls since the process started.
std::uint64_t heap_allocations();

}  // namespace polaris::bench
