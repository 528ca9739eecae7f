// Scoped-span tracer with Chrome trace-event JSON export.
//
// A Tracer collects spans (operations with duration), instants (point
// events) and counter samples on named tracks, stamped by a ClockSource
// (simulated or wall time).  write_json() emits the Chrome trace-event
// format, loadable in chrome://tracing or ui.perfetto.dev: tracks are
// grouped into processes ("ranks", "links", ...), and spans that overlap
// on one track — background isends, concurrent sendrecv halves — are
// packed into extra lanes so every exported thread timeline is properly
// nested.
//
// Instrumented code holds a `Tracer*` that is null until an observer
// attaches; every hook is a branch on that pointer, so an untraced run
// pays nothing else.  That pointer is the only tracing switch: detaching
// (nulling it) stops recording, and a tracer records every call it gets.
//
// One record path.  Each track owns a single-producer/single-consumer log
// of 32-byte compact events over interned name IDs.  record = a
// deterministic 1-in-N sampling branch and (if sampled) a clock read plus
// one slot write — no lock, no string.  Always-on per-track
// counters (span count, span nanoseconds) stay exact regardless of
// sampling.  The log is either
//
//  * unbounded (the default RingOptions{}): a chain of fixed-size segments,
//    the first allocated on the track's first record.  Nothing is sampled
//    away or dropped — full fidelity, byte-stable JSON (the golden-trace
//    suite pins it); or
//  * bounded (ring_capacity > 0): one segment reused as a ring.  When it
//    fills, the newest events are dropped and counted.
//
// One exporter.  write_json() and trace_hash() are one non-consuming batch
// of TraceStreamWriter over a quiesced tracer; a TraceStreamWriter attached
// to a live tracer drains the logs incrementally (freeing drained
// segments), so arbitrarily long runs export in bounded memory.
//
// Concurrency contract: each track is recorded by at most one thread at a
// time (ranks, shards and links already have per-owner tracks); a
// TraceStreamWriter may drain concurrently with all producers.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "polaris/obs/clock.hpp"
#include "polaris/support/check.hpp"

namespace polaris::obs {

using TrackId = std::uint32_t;

/// Interned event-name handle.  Id 0 is always the empty string.
using NameId = std::uint32_t;
inline constexpr NameId kNoName = 0;

enum class EventKind : std::uint8_t {
  kSpan,     ///< has start and duration
  kInstant,  ///< point in time
  kCounter,  ///< sampled value
};

struct TraceEvent {
  TrackId track = 0;
  EventKind kind = EventKind::kSpan;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;  ///< spans only
  double value = 0.0;       ///< counters only
  std::string name;
  std::string category;

  std::int64_t end_ns() const { return start_ns + (dur_ns < 0 ? 0 : dur_ns); }
};

/// Handle for an open span: a (track, open-slot) pair.  An invalid id
/// (unsampled span, slot limit reached) makes end_span a no-op.
struct SpanId {
  std::size_t index = std::numeric_limits<std::size_t>::max();
  bool valid() const {
    return index != std::numeric_limits<std::size_t>::max();
  }
};

/// Tracer storage and sampling knobs.  The defaults record everything.
struct RingOptions {
  /// Events retained per track.  0 = unbounded: the log grows a segment at
  /// a time and never drops.  Otherwise rounded up to a power of two and
  /// used as a ring that drops the newest events when full (counted).
  std::size_t ring_capacity = 0;
  /// Deterministic sampling: the k-th span (resp. instant) on a track is
  /// recorded iff k % sample_every == 0 (rounded up to a power of two).
  /// Counters keep exact totals either way.  1 = record everything.
  std::uint32_t sample_every = 1;
  /// Concurrently-open spans per track (begin/end pairs in flight); 0 =
  /// grow on demand.  A begin_span past the limit is dropped and counted.
  std::uint32_t open_span_slots = 0;
  /// Upper bound on add_track() calls (contract-checked).  The always-on
  /// per-track counters are reserved densely for this many tracks —
  /// several tracks per cache line — so the sampled-away record path
  /// touches one hot line instead of each track's log header.  The
  /// reservation is not zeroed, and dead tracers' reservations are reused.
  std::size_t max_tracks = 4096;
};

namespace detail {

/// 32-byte interned event; track is implicit (one log per track).  No
/// member initializers: segments are allocated without zeroing.
struct CompactEvent {
  std::int64_t start_ns;
  std::int64_t aux;  ///< span: dur_ns; counter: bit pattern of value
  NameId name;
  NameId category;
  /// Per-track record order; a begin/end span takes it at begin_span.
  /// The export's final tie-break (wraps; compared as a signed distance).
  std::uint32_t seq;
  EventKind kind;
};
static_assert(sizeof(CompactEvent) == 32);

/// A collected event tagged with its track (and, in the exporter, its lane).
struct BatchEvent {
  TrackId track;
  std::uint32_t lane;
  CompactEvent ev;
};

/// Single-writer counter bump: the atomic access is for readers' benefit,
/// but only the track's owner thread stores it, so this is a plain
/// load/add/store — one add on x86 instead of a serializing lock-prefixed
/// fetch_add.
inline void bump(std::uint64_t& c, std::uint64_t d = 1) {
  std::atomic_ref<std::uint64_t> a(c);
  a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}
inline std::uint64_t read(std::uint64_t& c) {
  return std::atomic_ref<std::uint64_t>(c).load(std::memory_order_relaxed);
}

/// Always-on per-track totals, reserved as one dense array (two tracks
/// per cache line) so the sampled-away record path — which touches nothing
/// but these — stays cache-resident even with dozens of live tracks.  The
/// per-kind totals double as the sampling phase.  Single-writer per track
/// (the concurrency contract), accessed through bump()/read().  Trivial,
/// so reserving max_tracks entries costs no zeroing; 32-byte aligned so an
/// entry never straddles a line.
struct alignas(32) HotCounters {
  std::uint64_t spans_total;
  std::uint64_t instants_total;
  std::uint64_t counters_total;
  // Busy nanoseconds: exact for complete_span (duration known before the
  // sampling gate); begin/end spans contribute only when sampled.
  std::uint64_t span_ns_total;
};

/// A block of a track's events.  A bounded log is one segment used as a
/// ring; an unbounded log chains segments, which the drainer frees.
struct Segment {
  explicit Segment(std::size_t capacity)
      : events(std::make_unique_for_overwrite<CompactEvent[]>(capacity)) {}
  std::unique_ptr<CompactEvent[]> events;
  std::atomic<Segment*> next{nullptr};
};

/// One track's single-producer/single-consumer event log plus the
/// producer's open-span slots and drop accounting.  Only reached on the
/// sampled (1-in-N) path — the always-on totals live in the dense
/// HotCounters array instead, so a sampled-away event never pulls a log
/// header into cache.  Events are indexed by a global count: `head` events
/// were ever published, the first `tail` of them were drained.
struct TrackLog {
  // Unbounded logs: 4 KiB segments.  A lightly used track holds one page,
  // and short-lived tracers leave no large holes in the heap (32 KiB
  // segments raised chaos_library's peak RSS).
  static constexpr std::size_t kSegmentEvents = 128;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  TrackLog(std::size_t ring_capacity, std::uint32_t slot_limit);
  TrackLog(const TrackLog&) = delete;
  TrackLog& operator=(const TrackLog&) = delete;
  ~TrackLog();

  // Producer side (the track's owner thread).
  bool push(const CompactEvent& ev) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (bounded && h - tail.load(std::memory_order_acquire) > mask) {
      // Drop-newest keeps the ring a coherent prefix of each track's
      // history and never blocks the producer.
      bump(dropped_ring_full);
      return false;
    }
    const std::size_t at = static_cast<std::size_t>(h) & mask;
    // First record, or (unbounded) the current segment is full.
    if (at == 0 && (write_seg == nullptr || !bounded)) add_segment();
    write_seg->events[at] = ev;
    head.store(h + 1, std::memory_order_release);
    bump(sampled_events);
    return true;
  }
  void add_segment();

  struct OpenSpan {
    std::int64_t start_ns = 0;
    NameId name = kNoName;
    NameId category = kNoName;
    std::uint32_t seq = 0;
    bool live = false;
  };
  std::uint32_t claim_slot();
  void release_slot(std::uint32_t slot);

  // Consumer side.  Appends events [from, to) — published (to <= head) and
  // not yet freed (from >= first_index) — to `out`, tagged with `track`.
  void copy(std::uint64_t from, std::uint64_t to, TrackId track,
            std::vector<BatchEvent>& out) const;
  /// Frees the leading segments that are fully drained and that the
  /// producer has moved past.
  void free_drained();

  const bool bounded;
  const std::size_t mask;  // segment capacity - 1
  const std::uint32_t slot_limit;  // 0 = grow on demand
  // Producer line: head, the write segment, the sequence counter, the slot
  // pool and sampled/drop accounting, padded away from tail so the
  // consumer's tail stores never invalidate it.  Counters are single-writer
  // (see bump()).
  alignas(64) std::atomic<std::uint64_t> head{0};
  Segment* write_seg = nullptr;
  std::uint32_t next_seq = 0;
  std::vector<OpenSpan> open;
  std::vector<std::uint32_t> free_slots;
  std::atomic<std::uint32_t> open_live{0};
  std::uint64_t sampled_events = 0;
  std::uint64_t dropped_ring_full = 0;
  std::uint64_t dropped_no_slot = 0;
  // Allocated events: the producer adds, the drainer subtracts.
  std::atomic<std::uint64_t> capacity_events{0};
  // Consumer-owned (the producer sets `first` once, before publishing its
  // first event): the oldest live segment and the index of its first event.
  alignas(64) std::atomic<std::uint64_t> tail{0};
  Segment* first = nullptr;
  std::uint64_t first_index = 0;
};

/// A tracer's dense per-track arrays, reserved for max_tracks tracks and
/// left uninitialized (add_track sets each entry it hands out).
struct TrackArrays {
  explicit TrackArrays(std::size_t tracks)
      : capacity(tracks),
        hot(std::make_unique_for_overwrite<HotCounters[]>(tracks)),
        logs(std::make_unique_for_overwrite<TrackLog*[]>(tracks)) {}
  const std::size_t capacity;
  std::unique_ptr<HotCounters[]> hot;
  std::unique_ptr<TrackLog*[]> logs;
};

}  // namespace detail

class Tracer {
 public:
  /// Tracer stamped by `clock`; the clock must outlive the tracer.  The
  /// default options record every event.
  explicit Tracer(const ClockSource& clock, const RingOptions& opts = {})
      : Tracer(&clock, opts) {}

  /// Clockless tracer: only complete_span/instant_at with explicit
  /// timestamps are meaningful (e.g. post-hoc Gantt export).
  explicit Tracer(const RingOptions& opts = {}) : Tracer(nullptr, opts) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  /// Registers a track.  `process` groups tracks into one Chrome process
  /// row ("ranks", "links", "jobs"); `name` labels the thread timeline.
  TrackId add_track(std::string process, std::string name);

  /// Interns a name, returning a stable id usable on any record call.
  /// Takes a mutex: call at attach time (or for cold dynamic names), cache
  /// the id on the hot path.  The same string always yields the same id.
  NameId intern(std::string_view s);

  /// Resolves an interned id (registry lookup under the intern mutex).
  std::string name_of(NameId id) const;

  std::int64_t now_ns() const { return clock_ ? clock_->now_ns() : 0; }

  // Record calls.  Each string overload interns its names and calls the
  // NameId overload; hot paths intern once and pass ids.

  /// Opens a span at the current clock time; end_span() closes it.  A span
  /// still open is exported by snapshot()/write_json() as closed at the
  /// current clock, and by a TraceStreamWriter only once it closes.
  SpanId begin_span(TrackId track, std::string_view name,
                    std::string_view category = {}) {
    return begin_span(track, intern(name), intern(category));
  }
  SpanId begin_span(TrackId track, NameId name, NameId category = kNoName) {
    // Sampled-away spans are counted and nothing else: no clock read, no
    // slot claim, no log lookup; the invalid id makes end_span a no-op.
    if (!tick(hot(track).spans_total)) return SpanId{};
    return begin_span_sampled(track, name, category);
  }
  /// Closes a span; ending one twice is a contract violation.
  void end_span(SpanId id) {
    if (!id.valid()) return;
    end_span_impl(id);
  }

  /// Records an already-finished span with explicit timestamps.
  void complete_span(TrackId track, std::string_view name,
                     std::string_view category, std::int64_t start_ns,
                     std::int64_t dur_ns) {
    complete_span(track, intern(name), intern(category), start_ns, dur_ns);
  }
  void complete_span(TrackId track, NameId name, NameId category,
                     std::int64_t start_ns, std::int64_t dur_ns) {
    POLARIS_DCHECK(dur_ns >= 0);
    detail::HotCounters& h = hot(track);
    // Duration is already known here, so the busy-ns counter stays exact
    // for every completed span even when the event itself is sampled away.
    detail::bump(h.span_ns_total, static_cast<std::uint64_t>(dur_ns));
    if (!tick(h.spans_total)) return;
    record(track, start_ns, dur_ns, name, category, EventKind::kSpan);
  }

  /// Point event at the current clock time.
  void instant(TrackId track, std::string_view name,
               std::string_view category = {}) {
    instant(track, intern(name), intern(category));
  }
  void instant(TrackId track, NameId name, NameId category = kNoName) {
    if (!tick(hot(track).instants_total)) return;
    // Clock read and log lookup only behind the sampling gate.
    record(track, now_ns(), 0, name, category, EventKind::kInstant);
  }
  void instant_at(TrackId track, std::string_view name,
                  std::string_view category, std::int64_t at_ns) {
    instant_at(track, intern(name), intern(category), at_ns);
  }
  void instant_at(TrackId track, NameId name, NameId category,
                  std::int64_t at_ns) {
    if (!tick(hot(track).instants_total)) return;
    record(track, at_ns, 0, name, category, EventKind::kInstant);
  }

  /// Samples a counter series (rendered as a stacked area in the viewer).
  void counter(TrackId track, std::string_view name, double value) {
    counter(track, intern(name), value);
  }
  void counter(TrackId track, NameId name, double value) {
    detail::bump(hot(track).counters_total);
    record(track, now_ns(),
           static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value)),
           name, kNoName, EventKind::kCounter);
  }

  /// Events snapshot()/write_json() would return now: recorded and not yet
  /// drained, plus still-open spans.
  std::size_t event_count() const;
  std::size_t track_count() const;

  /// Each track's undrained events in record order, track by track.  Open
  /// spans are included, closed at the current clock time, so analysis
  /// never sees negative durations.  Expects quiesced producers.
  std::vector<TraceEvent> snapshot() const;

  struct Track {
    std::string process;
    std::string name;
  };
  std::vector<Track> tracks() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}), one event per line,
  /// sorted by start time within each exported lane: one non-consuming
  /// TraceStreamWriter batch (open spans included, as in snapshot()).
  /// Repeatable; expects quiesced producers.
  void write_json(std::ostream& os) const;

  /// Aggregate record-path accounting.  Used by tests and the BENCH_OBS
  /// steady-state allocation check: interned_names and
  /// ring_capacity_events must not move between warmup and steady state.
  struct Stats {
    std::uint64_t spans_total = 0;
    std::uint64_t instants_total = 0;
    std::uint64_t counters_total = 0;
    std::uint64_t span_ns_total = 0;
    std::uint64_t sampled_events = 0;
    std::uint64_t dropped_ring_full = 0;
    std::uint64_t dropped_no_slot = 0;
    std::uint64_t drained_events = 0;
    std::size_t interned_names = 0;
    std::size_t ring_capacity_events = 0;  ///< allocated, all tracks
    std::size_t track_count = 0;
  };
  Stats stats() const;

 private:
  friend class TraceStreamWriter;

  Tracer(const ClockSource* clock, const RingOptions& opts);

  SpanId begin_span_sampled(TrackId track, NameId name, NameId category);
  void end_span_impl(SpanId id);

  /// Appends one event with the track's next record sequence.
  void record(TrackId track, std::int64_t start_ns, std::int64_t aux,
              NameId name, NameId category, EventKind kind) {
    detail::TrackLog& log = this->log(track);
    log.push({start_ns, aux, name, category, log.next_seq++, kind});
  }

  detail::TrackLog& log(TrackId track) const {
    POLARIS_CHECK(track < log_count_.load(std::memory_order_acquire));
    return *arrays_->logs[track];
  }

  /// Dense always-on counters for a track (reserved for max_tracks at
  /// construction, so the pointer never moves).
  detail::HotCounters& hot(TrackId track) const {
    POLARIS_DCHECK(track < log_count_.load(std::memory_order_relaxed));
    return hot_[track];
  }

  /// Counts one event of a kind and reports whether it is the sampled one
  /// (the 1st, N+1th, ... of that kind on the track).
  bool tick(std::uint64_t& total) const {
    std::atomic_ref<std::uint64_t> a(total);
    const std::uint64_t seen = a.load(std::memory_order_relaxed);
    a.store(seen + 1, std::memory_order_relaxed);
    return (seen & sample_mask_) == 0;
  }

  /// Appends every track's undrained events to `out`.  A consuming read
  /// (the streaming writer) advances the tails and frees drained segments;
  /// a non-consuming one (snapshot, write_json) also appends the open
  /// spans, closed at the current clock.
  void collect(std::vector<detail::BatchEvent>& out, bool consume) const;

  const ClockSource* clock_ = nullptr;
  const RingOptions opts_;
  // Record-path hot members, grouped: the sampling mask and the dense
  // counter array base are read on every record call.
  std::uint64_t sample_mask_ = 0;
  detail::HotCounters* hot_ = nullptr;  // arrays_->hot

  // Per-track arrays reserved for max_tracks, so neither moves while
  // producers run; entry i is written before log_count_ is released past
  // it, so record() never takes mu_.  Track logs are owned by logs_.
  std::unique_ptr<detail::TrackArrays> arrays_;
  mutable std::mutex mu_;
  std::vector<Track> tracks_;
  std::vector<std::unique_ptr<detail::TrackLog>> logs_;
  std::atomic<std::size_t> log_count_{0};

  // Name interning; ids resolve to strings at export.  A deque keeps each
  // name at a stable address for the views that key name_ids_.
  mutable std::mutex intern_mu_;
  std::deque<std::string> names_{std::string()};  // names_[0] == ""
  std::unordered_map<std::string_view, NameId> name_ids_;
};

/// Streams a tracer's events to Chrome trace JSON.  Construct (writes the
/// header), call drain() as often as desired while producers are still
/// recording (each call consumes the logs; an unbounded log frees drained
/// segments, so export runs in bounded memory), and finish() once they
/// quiesce.  Each drain is one batch: sorted per track by (start, longer
/// first, record order), packed into lanes, and preceded by metadata for
/// every process, track and lane not yet announced.  A single batch is
/// exactly write_json()'s layout; the output is deterministic for
/// deterministic per-track event streams regardless of how record work was
/// spread over threads.
class TraceStreamWriter {
 public:
  TraceStreamWriter(Tracer& tracer, std::ostream& os);
  TraceStreamWriter(const TraceStreamWriter&) = delete;
  TraceStreamWriter& operator=(const TraceStreamWriter&) = delete;
  ~TraceStreamWriter();

  /// Consumes everything currently in the logs; returns events written.
  std::size_t drain();
  /// Final drain plus the JSON footer (idempotent).
  void finish();

  std::size_t events_written() const { return events_written_; }

 private:
  friend class Tracer;

  /// consume=false reads the logs without advancing them and includes open
  /// spans (the Tracer::write_json path).
  TraceStreamWriter(const Tracer& tracer, std::ostream& os, bool consume);

  /// Copies tracks and names registered since the last batch and
  /// announces their new processes.
  void sync_registry();
  void assign_lanes();
  void announce();
  void emit(const detail::BatchEvent& e);

  const Tracer* tracer_;
  std::ostream* os_;
  bool consume_ = true;
  bool first_ = true;
  bool finished_ = false;
  std::size_t events_written_ = 0;
  std::vector<std::string> names_;  // escaped, by NameId
  std::unordered_map<std::string, int> pids_;
  std::vector<int> track_pid_;
  std::vector<std::string> track_names_;
  /// Per track, per lane: the stack of enclosing span ends.
  std::vector<std::vector<std::vector<std::int64_t>>> lanes_;
  std::vector<std::size_t> announced_lanes_;
  std::vector<detail::BatchEvent> batch_;  // reused scratch
};

/// FNV-1a fingerprint of the tracer's exported JSON (write_json byte
/// stream).  Two runs that produced the same trace hash to the same value
/// on every platform — the cheap "did these runs behave identically?"
/// check the scenario runner's determinism verdicts are built on.
std::uint64_t trace_hash(const Tracer& tracer);

/// RAII span; a null tracer makes every operation a no-op, so call sites
/// need no branches of their own.  Safe to keep across co_await (lives in
/// the coroutine frame).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Tracer* tracer, TrackId track, std::string_view name,
             std::string_view category = {})
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin_span(track, name, category);
  }
  ScopedSpan(Tracer* tracer, TrackId track, NameId name,
             NameId category = kNoName)
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin_span(track, name, category);
  }
  ~ScopedSpan() { end(); }

  ScopedSpan(ScopedSpan&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)), id_(other.id_) {}
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = std::exchange(other.tracer_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }

  /// Closes the span early (idempotent).
  void end() {
    if (tracer_) {
      tracer_->end_span(id_);
      tracer_ = nullptr;
    }
  }

 private:
  Tracer* tracer_ = nullptr;
  SpanId id_;
};

}  // namespace polaris::obs
