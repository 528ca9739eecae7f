// Incrementally-maintained planning timeline.
//
// The scheduler's forward-looking decisions (EASY head reservations,
// conservative profiles) need the running jobs ordered by *planned*
// completion — start + the user's wall-time estimate.  Instead of a
// copy-and-sort of the whole running set on every decision, the order is
// maintained incrementally: one ordered insert when a job starts, one
// targeted erase when it completes.  The vector is bounded by how many
// jobs fit on the machine at once (not by queue depth), so both operations
// are cheap and the per-event cost stays flat as the queue grows to 10^6
// jobs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace polaris::rm {

class PlanningTimeline {
 public:
  struct RunEnd {
    double end = 0.0;  ///< planned completion (start + estimate), seconds
    std::uint32_t width = 0;
    std::uint32_t slot = 0;  ///< job slab slot; tie-break and removal key
  };

  /// Records a started job's planned completion.
  void add(double end, std::uint32_t width, std::uint32_t slot) {
    const RunEnd e{end, width, slot};
    auto it = std::upper_bound(
        ends_.begin(), ends_.end(), e, [](const RunEnd& a, const RunEnd& b) {
          return a.end != b.end ? a.end < b.end : a.slot < b.slot;
        });
    ends_.insert(it, e);
  }

  /// Removes a job's entry; `end` must be the value passed to add().
  void remove(std::uint32_t slot, double end) {
    auto it = std::lower_bound(
        ends_.begin(), ends_.end(), end,
        [](const RunEnd& a, double t) { return a.end < t; });
    while (it != ends_.end() && it->slot != slot) ++it;
    if (it != ends_.end()) ends_.erase(it);
  }

  void clear() { ends_.clear(); }
  std::size_t size() const { return ends_.size(); }

  struct Shadow {
    /// Earliest time `width` nodes are simultaneously free: < 0 means
    /// startable now, +inf means the width never fits (wider than the
    /// machine).
    double time = 0.0;
    /// Nodes free beyond `width` at that moment — the budget a backfill
    /// candidate may hold *through* the shadow without delaying the head
    /// job.
    std::uint32_t extra = 0;
  };

  /// EASY head-reservation query given `free_now` currently free nodes.
  Shadow shadow_for(std::uint32_t width, std::uint32_t free_now) const {
    std::uint32_t free = free_now;
    if (free >= width) return {-1.0, free - width};
    for (const RunEnd& e : ends_) {
      free += e.width;
      if (free >= width) return {e.end, free - width};
    }
    return {std::numeric_limits<double>::infinity(), 0};
  }

  /// Planned completions in ascending order (seed for conservative
  /// profiles).
  const std::vector<RunEnd>& ends() const { return ends_; }

 private:
  std::vector<RunEnd> ends_;
};

}  // namespace polaris::rm
