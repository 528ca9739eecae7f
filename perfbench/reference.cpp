// Fixed reference workload for expressing host time in reference seconds.
//
// Host speed on a shared machine drifts by tens of percent over minutes as
// other tenants contend for the same cores and caches, and that drift moves
// every host-time metric together.  This small event simulator is timed
// between blocks of passes.  It does not depend on the code under test, so
// a workload's host time divided by the reference's is steadier than
// either alone, while a change to the simulator still moves it in full.
// It is shaped like a simulator on purpose (binary-heap event queue,
// type-erased handlers, a deque and a hash map) so that contention slows it
// roughly as much as it slows the workloads.
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kEntities = 4096;
constexpr std::uint32_t kKeys = 65536;
constexpr std::uint64_t kHashMul = 2654435761ull;

struct Event {
  std::uint64_t t = 0;
  std::uint32_t seq = 0;
  std::uint32_t entity = 0;
  bool operator>(const Event& o) const {
    return t != o.t ? t > o.t : seq > o.seq;
  }
};

struct Entity {
  std::uint64_t state = 0;
  std::deque<std::uint32_t> queue;
};

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

double reference_rate(std::uint64_t events) {
  static std::vector<Entity> entities(kEntities);
  static const std::unordered_map<std::uint64_t, std::uint32_t> index = [] {
    std::unordered_map<std::uint64_t, std::uint32_t> m;
    for (std::uint32_t i = 0; i < kKeys; ++i) m[i * kHashMul] = i;
    return m;
  }();

  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  const std::vector<std::function<void(Entity&, std::uint64_t)>> handlers = {
      [](Entity& e, std::uint64_t v) {
        e.queue.push_back(static_cast<std::uint32_t>(v));
      },
      [&acc](Entity& e, std::uint64_t v) {
        if (e.queue.empty()) {
          acc ^= v;
        } else {
          acc += e.queue.front();
          e.queue.pop_front();
        }
      },
      [](Entity& e, std::uint64_t v) {
        const auto it = index.find((v % kKeys) * kHashMul);
        if (it != index.end()) e.state += it->second;
      },
      [](Entity& e, std::uint64_t v) {
        e.state = e.state * 6364136223846793005ull + v;
      },
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  std::uint32_t seq = 0;
  for (std::uint32_t i = 0; i < kEntities / 2; ++i) pending.push({i, seq++, i});

  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const Event ev = pending.top();
    pending.pop();
    const std::uint64_t v = xorshift(x);
    Entity& e = entities[ev.entity];
    handlers[(e.state ^ v) & 3](e, v);
    pending.push({ev.t + 1 + (v & 1023), seq++,
                  static_cast<std::uint32_t>((v >> 20) % kEntities)});
  }
  const double s = seconds_between(t0, Clock::now());
  // Keeps the handlers' work observable so it cannot be optimized away.
  entities[acc % kEntities].state ^= acc;
  return static_cast<double>(events) / s;
}

}  // namespace perfbench
