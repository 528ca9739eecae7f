// Sequential discrete-event simulation engine.
//
// The pending-event set has three tiers, chosen for the delay distribution
// DES workloads actually produce.  Time is cut into blocks of 4,096 ticks
// (half the tick wheel), and an event's tier depends on how many blocks
// ahead of now()'s block it falls:
//
//  - A tick wheel of 8,192 one-tick buckets holds now()'s block and the
//    next, in O(1) per schedule and per pop.  Each bucket is an intrusive
//    FIFO of pool slots; because a bucket spans exactly one tick, append
//    order equals schedule order, so wheel pops reproduce the order of a
//    comparison queue exactly.  A two-level bitmap (bit per bucket, summary
//    bit per word) finds the next occupied bucket with two
//    count-trailing-zeros steps instead of a scan.
//  - A block wheel of 256 one-block buckets (about 1 ms at 1 ns ticks)
//    holds the 256 blocks after those two, also in O(1) per schedule.  It
//    is allocated on first use.  Each bucket is an array of slots in
//    schedule order; an emptied array goes to a spare list for the next
//    bucket that fills, so arrays track the live blocks and a steady state
//    allocates nothing.  When the clock enters block b, block b+1's bucket
//    is appended to the tick wheel in array order.  No event of block b+1
//    can reach the tick wheel any earlier (it was two blocks ahead until
//    now), so every tick bucket stays in schedule order by construction.
//    When the tick wheel runs dry, one scan of the first occupied block
//    bucket finds its earliest live time and the clock jumps there, which
//    cascades that block and the next.  Scans and cascades prefetch nodes
//    a fixed distance ahead.
//  - A 4-ary implicit min-heap of (time, sequence) keys holds everything
//    further out.  Heap times drift into the wheels' range as now()
//    advances, so each pop compares the tick-wheel head with the heap top,
//    and a jump never passes the heap top.  On a tie the heap event runs
//    first: it was scheduled at least 258 blocks ahead and the wheel event
//    at most 257, so with a clock that never goes back it came first.
//
// The clock never passes a queued live event: it moves only to the time
// of the event being run, to a jump target, or (run_until) to a bound that
// precedes every queued live event.  The cascade and the tie rule rely on
// this.
//
// Each pending event is one 64-byte, line-aligned pool node (time, next
// slot, generation with tombstone, callback) taken from a free list, so
// scheduling does not touch the allocator and firing loads one cache line;
// step() prefetches the next wheel event's node before running a callback.
// Callbacks live in a small-buffer-optimized UniqueFunction, so the common
// coroutine-resume event allocates nothing.
//
// Cancellation is O(1) and leak-free: an EventId carries the event's pool
// slot plus a generation counter; cancel() sets the node's tombstone bit,
// and the slot is reaped (returned to the pool) when it reaches the front
// of its tick bucket, the top of the heap, or is met by a block scan or
// cascade.  Firing or reaping bumps the generation, so a stale EventId —
// including one for an already-fired event — is recognized by the
// generation mismatch and ignored without retaining any state.
//
// Coroutine-based processes (see task.hpp) are resumed exclusively through
// scheduled events, which bounds recursion depth and gives every resumption
// a well-defined simulated time.
#pragma once

#include <cstdint>
#include <exception>
#include <limits>
#include <vector>

#include "polaris/des/time.hpp"
#include "polaris/support/function.hpp"

namespace polaris::des {

template <typename T>
class Task;

/// Handle for cancelling a scheduled event.  Identifies the event by pool
/// slot + generation (always even: the node keeps its tombstone in bit 0);
/// stays safely stale after the event fires.
struct EventId {
  std::uint32_t slot = 0xffff'ffffu;
  std::uint32_t gen = 0;
};

/// Always-on engine instrumentation: a few integer ops per event, read by
/// the observability layer (polaris::obs) after or during a run.
struct EngineStats {
  std::uint64_t scheduled = 0;          ///< events ever enqueued
  std::uint64_t executed = 0;           ///< events run to completion
  std::uint64_t cancelled_skipped = 0;  ///< tombstones reaped at pop
  std::size_t max_queue_depth = 0;      ///< event-queue high watermark
  std::uint64_t sbo_misses = 0;   ///< callbacks too big for inline storage
  std::size_t pool_capacity = 0;  ///< pool slots ever allocated
  std::size_t pool_in_use = 0;    ///< slots currently holding queued events
  std::size_t max_pool_in_use = 0;  ///< pool-occupancy high watermark
};

class Engine {
 public:
  using Callback = support::UniqueFunction<void()>;

  /// Raw callback form for hot non-coroutine state machines (e.g. the
  /// fabric packet walkers): a plain function pointer plus a context
  /// pointer.  Scheduling one never touches the allocator and its stored
  /// form is trivially movable, so it always takes the SBO fast path.
  using RawCallback = void (*)(void*);

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (must be >= now()).  Takes the
  /// callback by rvalue reference so the hot path pays exactly one move
  /// (into the pooled node).
  EventId schedule_at(SimTime t, Callback&& cb);

  /// Schedules `cb` at now() + dt (dt >= 0).
  EventId schedule_after(SimTime dt, Callback&& cb) {
    return schedule_at(now_ + dt, std::move(cb));
  }

  /// Schedules `fn(ctx)` at absolute time `t`.  Same ordering guarantees
  /// as schedule_at; `ctx` must stay valid until the event fires or is
  /// cancelled.
  EventId schedule_raw_at(SimTime t, RawCallback fn, void* ctx);

  /// Schedules `fn(ctx)` at now() + dt.
  EventId schedule_raw_after(SimTime dt, RawCallback fn, void* ctx) {
    return schedule_raw_at(now_ + dt, fn, ctx);
  }

  /// Cancels a pending event in O(1).  Cancelling an already-fired or
  /// already-cancelled event is a no-op (the generation no longer matches).
  void cancel(EventId id) {
    if (id.slot >= nodes_.size()) return;
    Node& n = nodes_[id.slot];
    if (n.gen == id.gen) n.gen |= kCancelled;
  }

  /// Runs until the event queue is empty or stop() is called.  Returns the
  /// number of events executed.  Rethrows the first exception that escaped
  /// a process.
  std::size_t run();

  /// Runs events with time <= `until`.  Returns events executed.  The
  /// clock is advanced to `until` when every queued live event is later
  /// (or none is left); after stop() or an escaped exception it stays at
  /// the last event run, so events still queued never see it go back.
  std::size_t run_until(SimTime until);

  /// Requests run() to return after the current event completes.
  void stop() { stopped_ = true; }

  /// Starts a detached coroutine process (defined in task.hpp).
  void spawn(Task<void> task);

  /// Number of spawned processes that have not yet completed.
  std::size_t live_processes() const { return live_processes_; }

  /// Total events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Scheduling/queue statistics since construction.
  EngineStats stats() const {
    EngineStats s = stats_;
    s.executed = executed_;
    s.pool_capacity = nodes_.size();
    s.pool_in_use = nodes_.size() - free_.size();
    return s;
  }

  /// Current event-queue depth (includes cancelled-but-not-reaped events).
  std::size_t queue_depth() const {
    return wheel_count_ + block_count_ + heap_.size();
  }

  /// True when no events remain queued.  A queue holding only cancelled
  /// events reports non-empty until run() reaps past them.
  bool empty() const { return queue_depth() == 0; }

  /// Returned by next_event_time() when no events remain queued.
  static constexpr SimTime kNoEventTime = std::numeric_limits<SimTime>::max();

  /// Timestamp of the earliest queued event, kNoEventTime when drained.
  /// A pending cancelled event may make this a (still correct) lower bound
  /// rather than the exact next live time; exact whenever cancel() is
  /// unused.  This is the conservative-sync hook for parallel DES: a shard
  /// reports min(next_event_time, earliest outbound handoff) and the
  /// coordinator advances the global window to the minimum across shards.
  SimTime next_event_time() const;

  // -- internal (used by task.hpp/sync.hpp) --------------------------------
  void note_process_started() { ++live_processes_; }
  void note_process_finished() { --live_processes_; }
  void report_error(std::exception_ptr e) {
    if (!error_) error_ = std::move(e);
    stopped_ = true;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffff'ffffu;
  /// Tick wheel: one bucket per simulated tick, span 8,192 ticks.
  static constexpr std::size_t kWheelBits = 13;
  static constexpr std::size_t kWheelSpan = std::size_t{1} << kWheelBits;
  static constexpr std::size_t kWheelMask = kWheelSpan - 1;
  static constexpr std::size_t kWheelWords = kWheelSpan / 64;
  static constexpr std::size_t kSummaryWords = kWheelWords / 64;
  /// Block: half the tick wheel, so the tick wheel holds exactly now()'s
  /// block and the next.
  static constexpr std::size_t kBlockBits = kWheelBits - 1;
  /// Block wheel: 256 one-block buckets for the blocks 2..257 ahead.
  static constexpr std::size_t kBlockSlots = kWheelSpan / 32;
  static constexpr std::size_t kBlockMask = kBlockSlots - 1;
  static constexpr std::size_t kBlockWords = kBlockSlots / 64;

  /// Tombstone bit of Node::gen; the generation counts in steps of 2.
  static constexpr std::uint32_t kCancelled = 1;
  /// How many slots ahead a block-bucket walk prefetches nodes.
  static constexpr std::size_t kPrefetchAhead = 8;

  /// One pending event, one cache line.  `next` chains tick-bucket FIFOs.
  struct alignas(64) Node {
    SimTime t = 0;
    std::uint32_t next = kNilSlot;
    std::uint32_t gen = 0;  ///< generation, tombstone in bit 0
    Callback cb;
  };
  static_assert(sizeof(Node) == 64 && alignof(Node) == 64);
  /// Aligns the pool inside a plain operator new block.  The aligned
  /// operator new reaches glibc's memalign, whose split-off fragments
  /// slowed the allocations of the code that ran after small engines.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    T* allocate(std::size_t n) {
      auto* raw = static_cast<char*>(::operator new(n * sizeof(T) + 64));
      char* p = raw + 64 - reinterpret_cast<std::uintptr_t>(raw) % 64;
      p[-1] = static_cast<char>(p - raw);  // 16..64
      return reinterpret_cast<T*>(p);
    }
    void deallocate(T* p, std::size_t) {
      char* q = reinterpret_cast<char*>(p);
      ::operator delete(q - q[-1]);
    }
    friend bool operator==(LineAllocator, LineAllocator) { return true; }
  };
  /// One heap slot: the full ordering key plus the owning pool slot;
  /// `seq` orders heap events that share a time.
  struct HeapEntry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Intrusive FIFO of pool slots holding one tick's events.
  struct Bucket {
    std::uint32_t head = kNilSlot;
    std::uint32_t tail = kNilSlot;
  };
  /// One block's slots in schedule order.
  using BlockBucket = std::vector<std::uint32_t>;

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
  static std::uint64_t block_of(SimTime t) {
    return static_cast<std::uint64_t>(t) >> kBlockBits;
  }

  void heap_push(HeapEntry e);
  void heap_pop_top();

  bool cancelled(std::uint32_t slot) const {
    return (nodes_[slot].gen & kCancelled) != 0;
  }
  void prefetch(std::uint32_t slot) const {
    __builtin_prefetch(&nodes_[slot]);
  }
  std::uint32_t acquire_node();
  /// Returns a fired slot, its callback already moved out, to the pool.
  void release_node(std::uint32_t slot);
  /// Drops a tombstoned slot's callback and returns the slot to the pool.
  void reap_node(std::uint32_t slot);
  void reap_cancelled_top();  ///< Reaps tombstones sitting at the heap top.

  /// Into its tick bucket; inlined so scheduling a near event stays as
  /// cheap as with the tick wheel alone.
  [[gnu::always_inline]] void wheel_push(std::uint32_t slot);
  void set_bucket_bit(std::size_t b);
  void clear_bucket_bit(std::size_t b);
  /// Index of the next occupied bucket at/after position `from`, wrapping.
  /// Precondition: wheel_count_ > 0.
  std::size_t next_bucket(std::size_t from) const;
  void unlink_bucket_head(std::size_t b);

  // Block wheel, cascade and jump: off the tick-wheel fast path.
  [[gnu::noinline]] void block_push(std::uint32_t slot);
  /// Index of the earliest block's bucket.  Precondition: block_count_ > 0.
  std::size_t first_block_bucket() const;
  /// Moves block bucket `i` into the tick wheel, reaping its tombstones,
  /// and its emptied array to the spare list.
  void cascade(std::size_t i);
  /// Earliest time in block bucket `i`; tombstones count unless
  /// `live_only`.
  SimTime bucket_min_time(std::size_t i, bool live_only) const;
  /// Cascades the blocks that enter the tick wheel's range as the clock
  /// moves to `t`, a later block than now()'s.
  [[gnu::noinline]] void enter_block(SimTime t);
  /// Tick wheel dry: jumps the clock to the earliest live block-wheel
  /// event if it is <= `until` and not after the heap top.  Returns
  /// whether the tick wheel now holds that event.
  [[gnu::noinline]] bool jump(SimTime until);
  void set_clock(SimTime t) {
    if (block_of(t) != block_of(now_)) enter_block(t);
    now_ = t;
  }

  bool step();  ///< Executes one event; returns false when drained/stopped.
  bool step_bounded(SimTime until);  ///< step(), but not past `until`.
  void maybe_rethrow();

  std::vector<HeapEntry> heap_;  ///< 4-ary implicit min-heap on (t, seq)
  std::vector<Node, LineAllocator<Node>> nodes_;  ///< pool, by slot
  std::vector<std::uint32_t> free_;  ///< pool slots ready for reuse
  std::vector<Bucket> buckets_;      ///< kWheelSpan one-tick FIFOs
  std::uint64_t bitmap_[kWheelWords] = {};   ///< bit per occupied bucket
  std::uint64_t summary_[kSummaryWords] = {};  ///< bit per nonzero word
  std::size_t wheel_count_ = 0;  ///< events currently in the tick wheel
  std::vector<BlockBucket> blocks_;  ///< kBlockSlots buckets, lazy
  std::vector<BlockBucket> spare_;   ///< emptied bucket arrays for reuse
  std::size_t block_capacity_ = 0;   ///< largest bucket array capacity
  std::uint64_t block_bitmap_[kBlockWords] = {};  ///< bit per occupied block
  std::size_t block_count_ = 0;  ///< events currently in the block wheel
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;  ///< next heap entry's seq
  std::uint64_t executed_ = 0;
  EngineStats stats_;  ///< executed/pool fields derived in stats()
  std::size_t live_processes_ = 0;
  bool stopped_ = false;
  std::exception_ptr error_;
};

}  // namespace polaris::des
