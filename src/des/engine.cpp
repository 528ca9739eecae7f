#include "polaris/des/engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "polaris/des/task.hpp"
#include "polaris/support/check.hpp"

namespace polaris::des {

Engine::Engine() : buckets_(kWheelSpan) {}

// ----------------------------------------------------------- 4-ary heap
//
// Far-future overflow queue.  A 4-ary implicit heap halves tree depth vs
// binary, and both sifts move a hole instead of swapping (one store per
// level, not three) — the same strategy std::push_heap/pop_heap use.

void Engine::heap_push(HeapEntry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::heap_pop_top() {
  const HeapEntry item = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], item)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = item;
}

// ----------------------------------------------------------- tick wheel
//
// The occupancy bitmap has one bit per bucket and a summary bit per 64
// buckets, so finding the next occupied bucket is two masked
// count-trailing-zeros probes regardless of how sparse the wheel is.

inline void Engine::wheel_push(std::uint32_t slot) {
  const std::size_t b = static_cast<std::size_t>(nodes_[slot].t) & kWheelMask;
  Bucket& bk = buckets_[b];
  nodes_[slot].next = kNilSlot;
  if (bk.head == kNilSlot) {
    bk.head = slot;
    set_bucket_bit(b);
  } else {
    nodes_[bk.tail].next = slot;
  }
  bk.tail = slot;
  ++wheel_count_;
}

void Engine::set_bucket_bit(std::size_t b) {
  bitmap_[b >> 6] |= std::uint64_t{1} << (b & 63);
  summary_[b >> 12] |= std::uint64_t{1} << ((b >> 6) & 63);
}

void Engine::clear_bucket_bit(std::size_t b) {
  const std::size_t w = b >> 6;
  if ((bitmap_[w] &= ~(std::uint64_t{1} << (b & 63))) == 0) {
    summary_[b >> 12] &= ~(std::uint64_t{1} << (w & 63));
  }
}

std::size_t Engine::next_bucket(std::size_t from) const {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  const std::size_t w = from >> 6;
  if (const std::uint64_t word = bitmap_[w] & (kAll << (from & 63))) {
    return (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
  }
  // Walk the summary from the following word, wrapping; revisiting the
  // start word unmasked is the wrap-around case and is intentional.
  std::size_t sw = (w + 1) & (kWheelWords - 1);
  std::size_t si = sw >> 6;
  std::uint64_t s = summary_[si] & (kAll << (sw & 63));
  for (std::size_t round = 0; round <= kSummaryWords; ++round) {
    if (s != 0) {
      const std::size_t word_idx =
          (si << 6) | static_cast<std::size_t>(std::countr_zero(s));
      return (word_idx << 6) |
             static_cast<std::size_t>(std::countr_zero(bitmap_[word_idx]));
    }
    si = (si + 1) % kSummaryWords;
    s = summary_[si];
  }
  POLARIS_CHECK_MSG(false, "next_bucket on an empty wheel");
  return 0;
}

void Engine::unlink_bucket_head(std::size_t b) {
  Bucket& bk = buckets_[b];
  const std::uint32_t next = nodes_[bk.head].next;
  bk.head = next;
  if (next == kNilSlot) {
    bk.tail = kNilSlot;
    clear_bucket_bit(b);
  }
  --wheel_count_;
}

// ----------------------------------------------------------- block wheel
//
// Bucket i holds the one block in [now's block + 2, now's block + 257]
// congruent to i, in schedule order.  A block leaves the block wheel only
// by cascading into the tick wheel when the clock enters the block before
// it (or jumps into it), so each tick bucket receives a block's events in
// schedule order before any later-scheduled event of that block.

void Engine::block_push(std::uint32_t slot) {
  if (blocks_.empty()) {
    blocks_.resize(kBlockSlots);
    spare_.reserve(kBlockSlots);  // arrays are made only when none is spare
  }
  const std::size_t i =
      static_cast<std::size_t>(block_of(nodes_[slot].t)) & kBlockMask;
  BlockBucket& bk = blocks_[i];
  if (bk.empty()) {
    block_bitmap_[i >> 6] |= std::uint64_t{1} << (i & 63);
    if (!spare_.empty()) {
      bk = std::move(spare_.back());
      spare_.pop_back();
    }
    // Every array in use grows to the largest block seen, so once the
    // block population stops growing no bucket reallocates.
    bk.reserve(block_capacity_);
  }
  bk.push_back(slot);
  ++block_count_;
}

std::size_t Engine::first_block_bucket() const {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  const std::size_t from =
      static_cast<std::size_t>(block_of(now_) + 2) & kBlockMask;
  // The last round revisits the start word unmasked: the wrap-around part.
  for (std::size_t k = 0; k <= kBlockWords; ++k) {
    const std::size_t w = ((from >> 6) + k) % kBlockWords;
    const std::uint64_t word =
        block_bitmap_[w] & (k == 0 ? kAll << (from & 63) : kAll);
    if (word != 0) {
      return (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
    }
  }
  POLARIS_CHECK_MSG(false, "first_block_bucket on an empty block wheel");
  return 0;
}

void Engine::cascade(std::size_t i) {
  BlockBucket& bk = blocks_[i];
  const std::size_t n = bk.size();
  for (std::size_t k = 0; k < n; ++k) {
    if (k + kPrefetchAhead < n) prefetch(bk[k + kPrefetchAhead]);
    if (cancelled(bk[k])) {
      reap_node(bk[k]);
    } else {
      wheel_push(bk[k]);
    }
  }
  block_count_ -= n;
  block_capacity_ = std::max(block_capacity_, bk.capacity());
  bk.clear();
  spare_.push_back(std::move(bk));
  block_bitmap_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

SimTime Engine::bucket_min_time(std::size_t i, bool live_only) const {
  const BlockBucket& bk = blocks_[i];
  SimTime best = kNoEventTime;
  for (std::size_t k = 0; k < bk.size(); ++k) {
    if (k + kPrefetchAhead < bk.size()) prefetch(bk[k + kPrefetchAhead]);
    if (!live_only || !cancelled(bk[k])) best = std::min(best, nodes_[bk[k]].t);
  }
  return best;
}

void Engine::enter_block(SimTime t) {
  // Blocks a+2 .. b+1 leave the block wheel's range.  Blocks b and b+1
  // now belong to the tick wheel; an earlier one would hold an event the
  // clock passed.
  const std::uint64_t a = block_of(now_);
  const std::uint64_t b = block_of(t);
  const std::uint64_t last = std::min(b + 1, a + 1 + kBlockSlots);
  while (block_count_ != 0) {
    const std::size_t i = first_block_bucket();
    const std::uint64_t k = a + 2 + ((i - (a + 2)) & kBlockMask);
    if (k > last) break;
    POLARIS_CHECK_MSG(k >= b, "the clock passed a queued block");
    cascade(i);
  }
}

bool Engine::jump(SimTime until) {
  reap_cancelled_top();
  while (block_count_ != 0) {
    const std::size_t i = first_block_bucket();
    const SimTime earliest = bucket_min_time(i, true);
    if (earliest == kNoEventTime) {
      cascade(i);  // only tombstones: reaps them all
      continue;
    }
    if (earliest > until || (!heap_.empty() && heap_[0].t < earliest)) {
      return false;
    }
    set_clock(earliest);
    return true;
  }
  return false;
}

// ----------------------------------------------------------- node pool

std::uint32_t Engine::acquire_node() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  return slot;
}

void Engine::release_node(std::uint32_t slot) {
  // Clears the tombstone and advances the generation, invalidating every
  // outstanding EventId for this slot.
  nodes_[slot].gen = (nodes_[slot].gen | kCancelled) + 1;
  free_.push_back(slot);
}

void Engine::reap_node(std::uint32_t slot) {
  nodes_[slot].cb = Callback();  // drop captured state (handles, owners) now
  release_node(slot);
  ++stats_.cancelled_skipped;
}

void Engine::reap_cancelled_top() {
  while (!heap_.empty() && cancelled(heap_[0].slot)) {
    const std::uint32_t slot = heap_[0].slot;
    heap_pop_top();
    reap_node(slot);
  }
}

// ----------------------------------------------------------- scheduling

EventId Engine::schedule_at(SimTime t, Callback&& cb) {
  POLARIS_CHECK_MSG(t >= now_, "cannot schedule into the simulated past");
  const std::uint32_t slot = acquire_node();
  Node& node = nodes_[slot];
  node.t = t;
  node.cb = std::move(cb);
  if (node.cb.heap_allocated()) ++stats_.sbo_misses;
  const std::uint64_t ahead = block_of(t) - block_of(now_);
  if (ahead <= 1) {
    wheel_push(slot);
  } else if (ahead < 2 + kBlockSlots) {
    block_push(slot);
  } else {
    heap_push(HeapEntry{t, next_seq_++, slot});
  }
  ++stats_.scheduled;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  stats_.max_pool_in_use =
      std::max(stats_.max_pool_in_use, nodes_.size() - free_.size());
  return EventId{slot, node.gen};
}

EventId Engine::schedule_raw_at(SimTime t, RawCallback fn, void* ctx) {
  // A 16-byte trivially-copyable capture: always inline in the
  // UniqueFunction (no manage function, memcpy moves), so raw scheduling
  // is exactly as cheap as the coroutine-resume fast path.
  struct RawThunk {
    RawCallback fn;
    void* ctx;
    void operator()() const { fn(ctx); }
  };
  return schedule_at(t, RawThunk{fn, ctx});
}

bool Engine::step() { return step_bounded(std::numeric_limits<SimTime>::max()); }

bool Engine::step_bounded(SimTime until) {
  if (stopped_) return false;
  // Wheel candidate: reap tombstoned bucket heads lazily until a live
  // event (or nothing) fronts the tick wheel.  A dry tick wheel refills
  // from the block wheel by jumping the clock.
  std::uint32_t wheel_slot = kNilSlot;
  std::size_t wheel_bucket = 0;
  for (;;) {
    while (wheel_count_ != 0) {
      const std::size_t b =
          next_bucket(static_cast<std::size_t>(now_) & kWheelMask);
      const std::uint32_t head = buckets_[b].head;
      if (cancelled(head)) {
        unlink_bucket_head(b);
        reap_node(head);
        continue;
      }
      wheel_slot = head;
      wheel_bucket = b;
      break;
    }
    if (wheel_slot != kNilSlot || block_count_ == 0 || !jump(until)) break;
  }
  // Heap candidate, then merge: heap times drift into the tick wheel's
  // range as now() advances.  The heap event wins a tie on time, because
  // it was scheduled first (header comment).
  reap_cancelled_top();
  std::uint32_t slot;
  bool from_wheel;
  if (wheel_slot != kNilSlot && !heap_.empty()) {
    from_wheel = nodes_[wheel_slot].t < heap_[0].t;
    slot = from_wheel ? wheel_slot : heap_[0].slot;
  } else if (wheel_slot != kNilSlot) {
    from_wheel = true;
    slot = wheel_slot;
  } else if (!heap_.empty()) {
    from_wheel = false;
    slot = heap_[0].slot;
  } else {
    return false;
  }
  const SimTime t = nodes_[slot].t;
  if (t > until) return false;
  if (from_wheel) {
    unlink_bucket_head(wheel_bucket);
  } else {
    heap_pop_top();
  }
  set_clock(t);
  // Release the slot before invoking: the callback may schedule (reusing
  // this slot) and a later cancel of this fired event must see a bumped
  // generation.
  Callback cb = std::move(nodes_[slot].cb);
  release_node(slot);
  ++executed_;
  // Load the next wheel event's node while the callback runs, if it is in
  // this bitmap word (a sparse wheel is not worth a summary walk).
  const std::size_t b = static_cast<std::size_t>(t) & kWheelMask;
  if (const std::uint64_t w = bitmap_[b >> 6] >> (b & 63)) {
    prefetch(buckets_[b + static_cast<std::size_t>(std::countr_zero(w))].head);
  }
  cb();
  return true;
}

SimTime Engine::next_event_time() const {
  SimTime best = kNoEventTime;
  if (wheel_count_ != 0) {
    // Tick buckets are one tick wide and hold only times in now()'s block
    // and the next, so the first occupied bucket at/after now's position
    // (wrapping) fronts the earliest wheel event, and every block-wheel
    // event is later.
    const std::size_t b =
        next_bucket(static_cast<std::size_t>(now_) & kWheelMask);
    best = nodes_[buckets_[b].head].t;
  } else if (block_count_ != 0) {
    best = bucket_min_time(first_block_bucket(), false);
  }
  if (!heap_.empty() && heap_[0].t < best) best = heap_[0].t;
  return best;
}

std::size_t Engine::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (step()) ++n;
  maybe_rethrow();
  return n;
}

std::size_t Engine::run_until(SimTime until) {
  POLARIS_CHECK(until >= now_);
  stopped_ = false;
  std::size_t n = 0;
  // step_bounded reaps tombstones before the boundary test, so the bound
  // applies to the next *live* event, not a cancelled placeholder.  It
  // returns false unstopped only when that event is past `until` or the
  // queue is drained, the one case where the clock may move to `until`.
  while (step_bounded(until)) ++n;
  if (!stopped_ && now_ < until) set_clock(until);
  maybe_rethrow();
  return n;
}

void Engine::maybe_rethrow() {
  if (error_) {
    auto e = std::move(error_);
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

namespace {

/// Root coroutine that drives a detached Task and reports its outcome to
/// the engine.  The frame self-destroys on completion (final_suspend never
/// suspends), which is safe because nothing awaits a DetachedProcess.
struct DetachedProcess {
  struct promise_type : detail::RecycledFrame {
    DetachedProcess get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }  // drive() catches all
  };
};

DetachedProcess drive(Engine& engine, Task<void> task) {
  engine.note_process_started();
  try {
    co_await std::move(task);
  } catch (...) {
    engine.report_error(std::current_exception());
  }
  engine.note_process_finished();
}

}  // namespace

void Engine::spawn(Task<void> task) {
  // Start the root on a zero-delay event so spawn() itself never reenters
  // user code; all execution happens inside run().
  schedule_after(0, [this, t = std::move(task)]() mutable {
    drive(*this, std::move(t));
  });
}

}  // namespace polaris::des
