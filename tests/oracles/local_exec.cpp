#include "polaris/coll/local_exec.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>

#include "polaris/support/check.hpp"

namespace polaris::coll {

namespace {

struct RankState {
  std::size_t step = 0;
  bool sent_current = false;  // send half of the current step done
};

}  // namespace

void execute_locally(const Schedule& schedule,
                     std::vector<std::vector<double>>& buffers,
                     ReduceOp op,
                     const std::vector<std::vector<double>>* input) {
  const std::size_t p = schedule.ranks;
  POLARIS_CHECK_MSG(buffers.size() == p, "one buffer per rank required");
  for (const auto& b : buffers) {
    POLARIS_CHECK_MSG(b.size() >= schedule.total_count,
                      "buffer smaller than schedule.total_count");
  }

  if (schedule.needs_local_copy) {
    POLARIS_CHECK_MSG(input != nullptr && input->size() == p,
                      "alltoall schedules need an input buffer per rank");
    const std::size_t block = schedule.total_count / p;
    for (std::size_t r = 0; r < p; ++r) {
      std::copy_n((*input)[r].begin() + static_cast<long>(r * block), block,
                  buffers[r].begin() + static_cast<long>(r * block));
    }
  }

  // FIFO channel per ordered pair.
  std::map<std::pair<int, int>, std::deque<std::vector<double>>> channels;
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
        // Send half first (non-blocking: channel is unbounded).
        if (s.has_send() && !st.sent_current) {
          const std::vector<double>& src =
              s.send_from_input ? (*input)[r] : buffers[r];
          POLARIS_CHECK_MSG(!s.send_from_input || input != nullptr,
                            "send_from_input step without input buffers");
          std::vector<double> payload(
              src.begin() + static_cast<long>(s.send_offset),
              src.begin() + static_cast<long>(s.send_offset + s.send_count));
          channels[{static_cast<int>(r), s.send_peer}].push_back(
              std::move(payload));
          st.sent_current = true;
          progressed = true;
        }
        if (s.has_recv()) {
          auto& ch = channels[{s.recv_peer, static_cast<int>(r)}];
          if (ch.empty()) break;  // blocked on receive
          std::vector<double> payload = std::move(ch.front());
          ch.pop_front();
          POLARIS_CHECK_MSG(payload.size() == s.recv_count,
                            "payload size does not match recv step");
          for (std::size_t i = 0; i < s.recv_count; ++i) {
            double& dst = buffers[r][s.recv_offset + i];
            dst = s.recv_reduce ? combine(op, dst, payload[i]) : payload[i];
          }
          progressed = true;
        }
        ++st.step;
        st.sent_current = false;
        if (st.step == schedule.per_rank[r].size()) ++done;
      }
    }
    if (!progressed && done < p) {
      throw std::runtime_error("schedule deadlock: " + schedule.name);
    }
  }

  // All channels must be drained: every sent message consumed.
  for (const auto& [pair, ch] : channels) {
    POLARIS_CHECK_MSG(ch.empty(),
                      "undelivered messages remain in " + schedule.name);
  }
}

}  // namespace polaris::coll
