#include "polaris/coll/reference_cost.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "polaris/coll/cost.hpp"
#include "polaris/support/check.hpp"

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

}  // namespace

double reference_predicted_seconds(const Schedule& schedule,
                                   const fabric::LogGPParams& net,
                                   std::size_t elem_bytes) {
  const std::size_t p = schedule.ranks;
  // Per ordered pair, FIFO queue of message arrival times.
  std::map<std::pair<int, int>, std::deque<double>> channels;
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
          channels[{static_cast<int>(r), s.send_peer}].push_back(arrival);
          st.clock += std::max(net.o_s, net.g);
          st.sent_current = true;
          progressed = true;
        }
        if (s.has_recv()) {
          auto& ch = channels[{s.recv_peer, static_cast<int>(r)}];
          if (ch.empty()) break;
          const double arrival = ch.front();
          ch.pop_front();
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

Algorithm reference_select_algorithm(Collective kind, std::size_t ranks,
                                     std::size_t count,
                                     std::size_t elem_bytes,
                                     const fabric::LogGPParams& net,
                                     int root) {
  const auto candidates = algorithms_for(kind, ranks);
  POLARIS_CHECK(!candidates.empty());
  Algorithm best = candidates.front();
  double best_t = std::numeric_limits<double>::infinity();
  for (Algorithm a : candidates) {
    if (a == Algorithm::kBinomial && root != 0 &&
        (kind == Collective::kGather || kind == Collective::kScatter)) {
      continue;
    }
    const Schedule s = make_schedule(kind, a, ranks, count, root);
    const double t = reference_predicted_seconds(s, net, elem_bytes);
    if (t < best_t) {
      best_t = t;
      best = a;
    }
  }
  return best;
}

}  // namespace polaris::coll
