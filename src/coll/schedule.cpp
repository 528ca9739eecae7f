#include "polaris/coll/schedule.hpp"

#include <algorithm>
#include <map>

#include "polaris/support/check.hpp"

namespace polaris::coll {

double combine(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMax:
      return std::max(a, b);
    case ReduceOp::kMin:
      return std::min(a, b);
    case ReduceOp::kProd:
      return a * b;
  }
  return a;
}

std::size_t Schedule::max_steps() const {
  std::size_t m = 0;
  for (const auto& steps : per_rank) m = std::max(m, steps.size());
  return m;
}

std::uint64_t Schedule::total_elements_moved() const {
  std::uint64_t total = 0;
  for (const auto& steps : per_rank) {
    for (const auto& s : steps) {
      if (s.has_send()) total += s.send_count;
    }
  }
  return total;
}

void validate(const Schedule& schedule) {
  POLARIS_CHECK_MSG(schedule.per_rank.size() == schedule.ranks,
                    "per_rank size mismatch in " + schedule.name);
  const auto p = static_cast<int>(schedule.ranks);

  // Collect per-ordered-pair send and recv sequences (element counts).
  std::map<std::pair<int, int>, std::vector<std::size_t>> sends, recvs;
  for (int r = 0; r < p; ++r) {
    for (const auto& s : schedule.per_rank[r]) {
      if (s.has_send()) {
        POLARIS_CHECK_MSG(s.send_peer >= 0 && s.send_peer < p,
                          "send peer out of range in " + schedule.name);
        POLARIS_CHECK_MSG(s.send_peer != r,
                          "self-send in " + schedule.name);
        POLARIS_CHECK_MSG(
            s.send_offset + s.send_count <= schedule.total_count,
            "send range exceeds buffer in " + schedule.name);
        sends[{r, s.send_peer}].push_back(s.send_count);
      }
      if (s.has_recv()) {
        POLARIS_CHECK_MSG(s.recv_peer >= 0 && s.recv_peer < p,
                          "recv peer out of range in " + schedule.name);
        POLARIS_CHECK_MSG(s.recv_peer != r,
                          "self-recv in " + schedule.name);
        POLARIS_CHECK_MSG(
            s.recv_offset + s.recv_count <= schedule.total_count,
            "recv range exceeds buffer in " + schedule.name);
        recvs[{s.recv_peer, r}].push_back(s.recv_count);
      }
    }
  }

  for (const auto& [pair, counts] : sends) {
    const auto it = recvs.find(pair);
    POLARIS_CHECK_MSG(it != recvs.end(),
                      "sends with no matching recvs in " + schedule.name);
    POLARIS_CHECK_MSG(it->second == counts,
                      "send/recv sequence mismatch in " + schedule.name);
  }
  for (const auto& [pair, counts] : recvs) {
    POLARIS_CHECK_MSG(sends.find(pair) != sends.end(),
                      "recvs with no matching sends in " + schedule.name);
  }
}

}  // namespace polaris::coll
