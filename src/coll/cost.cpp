#include "polaris/coll/cost.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "polaris/support/check.hpp"
#include "polaris/support/flat_map.hpp"

namespace polaris::coll {

namespace {

struct RankState {
  std::size_t step = 0;
  bool sent_current = false;
  double clock = 0.0;
};

double payload_bytes(std::size_t count, std::size_t elem_bytes) {
  const auto b = static_cast<double>(count * elem_bytes);
  return std::max(b, static_cast<double>(kEnvelopeBytes));
}

/// Per ordered (src, dst) pair, the FIFO of message arrival times.  A
/// pre-pass counts each pair's sends, so every channel is a fixed slice of
/// one flat array with a head and a tail cursor: no heap node per channel.
class Channels {
 public:
  explicit Channels(const Schedule& schedule) {
    for (std::size_t r = 0; r < schedule.per_rank.size(); ++r) {
      for (const CommStep& s : schedule.per_rank[r]) {
        if (!s.has_send()) continue;
        std::size_t& c = index_[key(static_cast<int>(r), s.send_peer)];
        if (c == 0) {
          fifos_.emplace_back();
          c = fifos_.size();  // 1-based: 0 is the map's default value
        }
        ++fifos_[c - 1].tail;
      }
    }
    std::size_t begin = 0;
    for (Fifo& f : fifos_) {
      const std::size_t sends = f.tail;
      f.head = f.tail = begin;
      begin += sends;
    }
    arrivals_.resize(begin);
  }

  void push(int src, int dst, double arrival) {
    Fifo& f = fifos_[*index_.find(key(src, dst)) - 1];
    arrivals_[f.tail++] = arrival;
  }

  /// The oldest arrival from src to dst, removed; false if none is queued.
  bool pop(int src, int dst, double& arrival) {
    const std::size_t* c = index_.find(key(src, dst));
    if (c == nullptr) return false;
    Fifo& f = fifos_[*c - 1];
    if (f.head == f.tail) return false;
    arrival = arrivals_[f.head++];
    return true;
  }

 private:
  struct Fifo {
    std::size_t head = 0;
    std::size_t tail = 0;
  };

  static std::uint64_t key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst);
  }

  support::FlatMap64<std::size_t> index_;
  std::vector<Fifo> fifos_;
  std::vector<double> arrivals_;
};

}  // namespace

double predicted_seconds(const Schedule& schedule,
                         const fabric::LogGPParams& net,
                         std::size_t elem_bytes) {
  const std::size_t p = schedule.ranks;
  Channels channels(schedule);
  std::vector<RankState> state(p);

  std::size_t done = 0;
  for (std::size_t r = 0; r < p; ++r) {
    if (schedule.per_rank[r].empty()) ++done;
  }

  while (done < p) {
    bool progressed = false;
    for (std::size_t r = 0; r < p; ++r) {
      auto& st = state[r];
      while (st.step < schedule.per_rank[r].size()) {
        const CommStep& s = schedule.per_rank[r][st.step];
        if (s.has_send() && !st.sent_current) {
          const double bytes = payload_bytes(s.send_count, elem_bytes);
          const double arrival =
              st.clock + net.o_s + net.L + (bytes - 1.0) * net.G;
          channels.push(static_cast<int>(r), s.send_peer, arrival);
          st.clock += std::max(net.o_s, net.g);
          st.sent_current = true;
          progressed = true;
        }
        if (s.has_recv()) {
          double arrival = 0.0;
          if (!channels.pop(s.recv_peer, static_cast<int>(r), arrival)) break;
          st.clock = std::max(st.clock, arrival) + net.o_r;
          progressed = true;
        }
        ++st.step;
        st.sent_current = false;
        if (st.step == schedule.per_rank[r].size()) ++done;
      }
    }
    if (!progressed && done < p) {
      throw std::runtime_error("schedule deadlock (timing): " +
                               schedule.name);
    }
  }

  double t = 0.0;
  for (const auto& st : state) t = std::max(t, st.clock);
  return t;
}

double ring_allreduce_floor(std::size_t ranks,
                            const fabric::LogGPParams& net) {
  const std::size_t steps = ranks > 1 ? 2 * (ranks - 1) : 0;
  double clock = 0.0;
  for (std::size_t step = 0; step < steps; ++step) {
    clock += std::max(net.o_s, net.g);
    clock += net.o_r;
  }
  return clock;
}

Algorithm select_algorithm(Collective kind, std::size_t ranks,
                           std::size_t count, std::size_t elem_bytes,
                           const fabric::LogGPParams& net, int root) {
  const auto candidates = algorithms_for(kind, ranks);
  POLARIS_CHECK(!candidates.empty());
  Algorithm best = candidates.front();
  double best_t = std::numeric_limits<double>::infinity();
  for (Algorithm a : candidates) {
    if (a == Algorithm::kBinomial && root != 0 &&
        (kind == Collective::kGather || kind == Collective::kScatter)) {
      continue;
    }
    // Ring allreduce's schedule holds 2(p-1) steps per rank; a candidate
    // whose floor already loses cannot win, so it is never built.
    if (kind == Collective::kAllreduce && a == Algorithm::kRing &&
        ring_allreduce_floor(ranks, net) > best_t) {
      continue;
    }
    const Schedule s = make_schedule(kind, a, ranks, count, root);
    const double t = predicted_seconds(s, net, elem_bytes);
    if (t < best_t) {
      best_t = t;
      best = a;
    }
  }
  return best;
}

}  // namespace polaris::coll
