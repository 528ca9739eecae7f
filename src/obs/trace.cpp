#include "polaris/obs/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "polaris/support/check.hpp"
#include "polaris/support/json.hpp"

namespace polaris::obs {

namespace {

std::uint64_t round_up_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  return std::bit_ceil(v);
}

/// Keeps the last dead tracer's per-track arrays for the next tracer.
/// Handing a kMaxTracks-sized block back to malloc after every short-lived
/// tracer leaves holes that later allocations fragment (chaos_library peak
/// RSS +3.6% median, up to +18%, over 10 runs).
class SpareArrays {
 public:
  std::unique_ptr<detail::TrackArrays> take() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (spare_) return std::move(spare_);
    }
    return std::make_unique<detail::TrackArrays>(Tracer::kMaxTracks);
  }
  void give(std::unique_ptr<detail::TrackArrays> arrays) {
    const std::lock_guard<std::mutex> lock(mu_);
    spare_ = std::move(arrays);
  }

 private:
  std::mutex mu_;
  std::unique_ptr<detail::TrackArrays> spare_;
};

// Never destroyed, so a tracer with static storage duration can still
// return its arrays at exit.
SpareArrays& spare_arrays() {
  static auto* const spares = new SpareArrays;
  return *spares;
}

}  // namespace

namespace detail {

TrackLog::TrackLog(std::size_t ring_capacity)
    : bounded(ring_capacity > 0),
      mask(static_cast<std::size_t>(
               bounded ? round_up_pow2(ring_capacity) : kSegmentEvents) -
           1) {}

TrackLog::~TrackLog() {
  for (Segment* seg = first; seg != nullptr;) {
    Segment* next = seg->next.load(std::memory_order_relaxed);
    delete seg;
    seg = next;
  }
}

void TrackLog::add_segment() {
  auto* seg = new Segment(mask + 1);
  if (write_seg == nullptr) {
    first = seg;  // published to the consumer by the head store
  } else {
    write_seg->next.store(seg, std::memory_order_release);
  }
  write_seg = seg;
  capacity_events.fetch_add(mask + 1, std::memory_order_relaxed);
}

void TrackLog::copy(std::uint64_t from, std::uint64_t to, TrackId track,
                    std::vector<BatchEvent>& out) const {
  if (from == to) return;  // `first` is only published with an event
  const Segment* seg = first;
  std::uint64_t base = first_index;
  for (std::uint64_t i = from; i < to; ++i) {
    while (!bounded && i - base > mask) {
      seg = seg->next.load(std::memory_order_acquire);
      base += mask + 1;
    }
    out.push_back({track, 0, seg->events[static_cast<std::size_t>(i) & mask]});
  }
}

void TrackLog::free_drained() {
  while (!bounded &&
         tail.load(std::memory_order_relaxed) - first_index > mask) {
    Segment* next = first->next.load(std::memory_order_acquire);
    if (next == nullptr) break;  // the producer links its next segment here
    delete first;
    first = next;
    first_index += mask + 1;
    capacity_events.fetch_sub(mask + 1, std::memory_order_relaxed);
  }
}

std::uint32_t TrackLog::claim_slot() {
  std::uint32_t slot;
  if (!free_slots.empty()) {
    slot = free_slots.back();
    free_slots.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(open.size());
    open.emplace_back();
  }
  open_live.store(open_live.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  return slot;
}

void TrackLog::release_slot(std::uint32_t slot) {
  open[slot].live = false;
  free_slots.push_back(slot);
  open_live.store(open_live.load(std::memory_order_relaxed) - 1,
                  std::memory_order_relaxed);
}

}  // namespace detail

Tracer::Tracer(const ClockSource* clock, const RingOptions& opts)
    : clock_(clock), opts_(opts) {
  sample_mask_ = round_up_pow2(opts_.sample_every) - 1;
  arrays_ = spare_arrays().take();
  hot_ = arrays_->hot.get();
}

Tracer::~Tracer() { spare_arrays().give(std::move(arrays_)); }

TrackId Tracer::add_track(std::string process, std::string name) {
  const std::lock_guard<std::mutex> lock(mu_);
  POLARIS_CHECK_MSG(tracks_.size() < kMaxTracks,
                    "Tracer::kMaxTracks exceeded");
  tracks_.push_back(Track{std::move(process), std::move(name)});
  const auto id = static_cast<TrackId>(tracks_.size() - 1);
  hot_[id] = detail::HotCounters{};
  arrays_->logs[id] = logs_.emplace_back(std::make_unique<detail::TrackLog>(
                                             opts_.ring_capacity))
                          .get();
  log_count_.store(tracks_.size(), std::memory_order_release);
  return id;
}

NameId Tracer::intern(std::string_view s) {
  if (s.empty()) return kNoName;
  const std::lock_guard<std::mutex> lock(intern_mu_);
  if (auto it = name_ids_.find(s); it != name_ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  name_ids_.emplace(names_.emplace_back(s), id);
  return id;
}

std::string Tracer::name_of(NameId id) const {
  const std::lock_guard<std::mutex> lock(intern_mu_);
  POLARIS_CHECK(id < names_.size());
  return names_[id];
}

// ------------------------------------------------------------ record paths
//
// The common record calls live inline in the header; what remains here is
// the sampled tail of begin_span (slot claim + clock read) and end_span.
// SpanId encoding: track << 32 | open slot.

SpanId Tracer::begin_span_sampled(TrackId track, NameId name,
                                  NameId category) {
  detail::TrackLog& log = this->log(track);
  const std::uint32_t slot = log.claim_slot();
  log.open[slot] = {now_ns(), name, category, log.next_seq++, true};
  return SpanId{(static_cast<std::size_t>(track) << 32) | slot};
}

void Tracer::end_span_impl(SpanId id) {
  const auto track = static_cast<TrackId>(id.index >> 32);
  const auto slot = static_cast<std::uint32_t>(id.index & 0xffffffffu);
  detail::TrackLog& log = this->log(track);
  POLARIS_CHECK(slot < log.open.size());
  const detail::TrackLog::OpenSpan o = log.open[slot];
  POLARIS_CHECK_MSG(o.live, "end_span on a closed span");
  log.release_slot(slot);
  const std::int64_t dur = std::max<std::int64_t>(now_ns() - o.start_ns, 0);
  detail::bump(hot(track).span_ns_total, static_cast<std::uint64_t>(dur));
  log.push({o.start_ns, dur, o.name, o.category, o.seq, EventKind::kSpan});
}

// ----------------------------------------------------------------- readers

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  const std::size_t tracks = log_count_.load(std::memory_order_acquire);
  for (std::size_t t = 0; t < tracks; ++t) {
    const detail::TrackLog& log = this->log(static_cast<TrackId>(t));
    n += static_cast<std::size_t>(log.head.load(std::memory_order_acquire) -
                                  log.tail.load(std::memory_order_relaxed));
    n += log.open_live.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t Tracer::track_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tracks_.size();
}

void Tracer::collect(std::vector<detail::BatchEvent>& out,
                     bool consume) const {
  const std::int64_t now = consume ? 0 : now_ns();
  const std::size_t tracks = log_count_.load(std::memory_order_acquire);
  for (std::size_t t = 0; t < tracks; ++t) {
    const auto track = static_cast<TrackId>(t);
    detail::TrackLog& log = this->log(track);
    const std::uint64_t lo = log.tail.load(std::memory_order_relaxed);
    const std::uint64_t hi = log.head.load(std::memory_order_acquire);
    log.copy(lo, hi, track, out);
    if (consume) {
      log.tail.store(hi, std::memory_order_release);
      log.free_drained();
      continue;
    }
    for (const detail::TrackLog::OpenSpan& o : log.open) {
      if (!o.live) continue;
      out.push_back({track, 0,
                     {o.start_ns, std::max<std::int64_t>(now - o.start_ns, 0),
                      o.name, o.category, o.seq, EventKind::kSpan}});
    }
  }
}

namespace {

/// Record sequences wrap; compare them as a signed distance.
bool seq_before(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

std::int64_t dur_of(const detail::CompactEvent& ev) {
  return ev.kind == EventKind::kSpan ? ev.aux : 0;
}

/// Export order: by track, then start time, longer spans first so parents
/// precede children, then record order (a begin/end span takes its place
/// at begin_span, so tied spans keep begin order).
bool export_order(const detail::BatchEvent& a, const detail::BatchEvent& b) {
  if (a.track != b.track) return a.track < b.track;
  if (a.ev.start_ns != b.ev.start_ns) return a.ev.start_ns < b.ev.start_ns;
  if (dur_of(a.ev) != dur_of(b.ev)) return dur_of(a.ev) > dur_of(b.ev);
  return seq_before(a.ev.seq, b.ev.seq);
}

}  // namespace

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<detail::BatchEvent> batch;
  collect(batch, /*consume=*/false);
  // collect() groups by track already; restore record order within each.
  std::sort(batch.begin(), batch.end(),
            [](const detail::BatchEvent& a, const detail::BatchEvent& b) {
              if (a.track != b.track) return a.track < b.track;
              return seq_before(a.ev.seq, b.ev.seq);
            });
  std::vector<TraceEvent> out;
  out.reserve(batch.size());
  const std::lock_guard<std::mutex> lock(intern_mu_);
  for (const detail::BatchEvent& b : batch) {
    TraceEvent& ev = out.emplace_back();
    ev.track = b.track;
    ev.kind = b.ev.kind;
    ev.start_ns = b.ev.start_ns;
    ev.dur_ns = dur_of(b.ev);
    if (b.ev.kind == EventKind::kCounter) {
      ev.value = std::bit_cast<double>(static_cast<std::uint64_t>(b.ev.aux));
    }
    ev.name = names_[b.ev.name];
    ev.category = names_[b.ev.category];
  }
  return out;
}

std::vector<Tracer::Track> Tracer::tracks() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return tracks_;
}

Tracer::Stats Tracer::stats() const {
  Stats s;
  s.track_count = track_count();
  {
    const std::lock_guard<std::mutex> lock(intern_mu_);
    s.interned_names = names_.size();
  }
  const std::size_t tracks = log_count_.load(std::memory_order_acquire);
  for (std::size_t t = 0; t < tracks; ++t) {
    const auto track = static_cast<TrackId>(t);
    detail::TrackLog& log = this->log(track);
    detail::HotCounters& h = hot(track);
    s.spans_total += detail::read(h.spans_total);
    s.instants_total += detail::read(h.instants_total);
    s.counters_total += detail::read(h.counters_total);
    s.span_ns_total += detail::read(h.span_ns_total);
    s.sampled_events += detail::read(log.sampled_events);
    s.dropped_ring_full += detail::read(log.dropped_ring_full);
    s.drained_events += log.tail.load(std::memory_order_relaxed);
    s.ring_capacity_events +=
        log.capacity_events.load(std::memory_order_relaxed);
  }
  return s;
}

// ------------------------------------------------------------- JSON export

namespace {

/// Microsecond timestamp with nanosecond precision kept as a fraction.
std::string format_us(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000 < 0 ? -(ns % 1000)
                                                     : ns % 1000));
  return buf;
}

void write_metadata(std::ostream& os, const char* what, int pid, int tid,
                    const std::string& value, int sort_index, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  std::string name;
  support::append_json_escaped(name, value);
  os << R"({"ph":"M","pid":)" << pid;
  if (tid >= 0) os << R"(,"tid":)" << tid;
  os << R"(,"name":")" << what << R"(","args":{"name":")" << name
     << R"("}})";
  if (sort_index >= 0) {
    os << ",\n"
       << R"({"ph":"M","pid":)" << pid;
    if (tid >= 0) os << R"(,"tid":)" << tid;
    os << R"(,"name":")" << (tid >= 0 ? "thread_sort_index"
                                      : "process_sort_index")
       << R"(","args":{"sort_index":)" << sort_index << "}}";
  }
}

constexpr int kMaxLanesPerTrack = 64;

/// Lanes of one track are adjacent tids; lane 0 keeps the track's name,
/// extra lanes get a ~n suffix.
int tid_of(TrackId track, std::size_t lane) {
  return static_cast<int>(track) * kMaxLanesPerTrack +
         static_cast<int>(std::min<std::size_t>(lane, kMaxLanesPerTrack - 1));
}

}  // namespace

void Tracer::write_json(std::ostream& os) const {
  TraceStreamWriter(*this, os, /*consume=*/false).finish();
}

// ------------------------------------------------------- streaming export

TraceStreamWriter::TraceStreamWriter(Tracer& tracer, std::ostream& os)
    : TraceStreamWriter(tracer, os, /*consume=*/true) {}

TraceStreamWriter::TraceStreamWriter(const Tracer& tracer, std::ostream& os,
                                     bool consume)
    : tracer_(&tracer), os_(&os), consume_(consume) {
  *os_ << "{\"traceEvents\":[\n";
}

TraceStreamWriter::~TraceStreamWriter() { finish(); }

void TraceStreamWriter::sync_registry() {
  std::vector<Tracer::Track> added;
  {
    const std::lock_guard<std::mutex> lock(tracer_->mu_);
    added.assign(tracer_->tracks_.begin() +
                     static_cast<std::ptrdiff_t>(track_pid_.size()),
                 tracer_->tracks_.end());
  }
  {
    const std::lock_guard<std::mutex> lock(tracer_->intern_mu_);
    for (std::size_t i = names_.size(); i < tracer_->names_.size(); ++i) {
      support::append_json_escaped(names_.emplace_back(), tracer_->names_[i]);
    }
  }
  // Process name -> pid, in first-registration order.
  for (Tracer::Track& t : added) {
    const auto [it, inserted] =
        pids_.emplace(t.process, static_cast<int>(pids_.size()));
    if (inserted) {
      write_metadata(*os_, "process_name", it->second, -1, t.process,
                     it->second, &first_);
    }
    track_pid_.push_back(it->second);
    track_names_.push_back(std::move(t.name));
  }
  lanes_.resize(track_pid_.size());
  announced_lanes_.resize(track_pid_.size(), 0);
}

// Lane allocation: spans that only nest share lane 0; a span that
// partially overlaps every open lane gets a fresh lane.  Each (track, lane)
// pair becomes one exported tid, so every exported timeline is properly
// nested and Chrome renders it without warnings.  Lane state carries over
// between batches.
void TraceStreamWriter::assign_lanes() {
  for (detail::BatchEvent& b : batch_) {
    if (b.ev.kind != EventKind::kSpan) continue;
    const std::int64_t start = b.ev.start_ns;
    const std::int64_t end = start + b.ev.aux;
    auto& track_lanes = lanes_[b.track];
    std::size_t lane = 0;
    for (; lane < track_lanes.size(); ++lane) {
      auto& open = track_lanes[lane];
      while (!open.empty() && open.back() <= start) open.pop_back();
      if (open.empty() || end <= open.back()) break;
    }
    if (lane == track_lanes.size()) track_lanes.emplace_back();
    track_lanes[lane].push_back(end);
    b.lane = static_cast<std::uint32_t>(lane);
  }
}

void TraceStreamWriter::announce() {
  for (std::size_t t = 0; t < lanes_.size(); ++t) {
    const std::size_t lanes = std::max<std::size_t>(lanes_[t].size(), 1);
    for (std::size_t l = announced_lanes_[t]; l < lanes; ++l) {
      std::string name = track_names_[t];
      if (l > 0) name += " ~" + std::to_string(l);
      const int tid = tid_of(static_cast<TrackId>(t), l);
      write_metadata(*os_, "thread_name", track_pid_[t], tid, name, tid,
                     &first_);
    }
    announced_lanes_[t] = lanes;
  }
}

void TraceStreamWriter::emit(const detail::BatchEvent& b) {
  const detail::CompactEvent& ev = b.ev;
  const int pid = track_pid_[b.track];
  const int tid = tid_of(b.track, b.lane);
  const std::string& name = names_[ev.name];
  const std::string_view cat =
      ev.category == kNoName ? "polaris" : std::string_view(names_[ev.category]);
  std::ostream& os = *os_;
  if (!first_) os << ",\n";
  first_ = false;
  switch (ev.kind) {
    case EventKind::kSpan:
      os << R"({"ph":"X","pid":)" << pid << R"(,"tid":)" << tid
         << R"(,"ts":)" << format_us(ev.start_ns) << R"(,"dur":)"
         << format_us(ev.aux) << R"(,"name":")" << name << R"(","cat":")"
         << cat << R"("})";
      break;
    case EventKind::kInstant:
      os << R"({"ph":"i","pid":)" << pid << R"(,"tid":)" << tid
         << R"(,"ts":)" << format_us(ev.start_ns) << R"(,"s":"t","name":")"
         << name << R"(","cat":")" << cat << R"("})";
      break;
    case EventKind::kCounter:
      os << R"({"ph":"C","pid":)" << pid << R"(,"tid":)" << tid
         << R"(,"ts":)" << format_us(ev.start_ns) << R"(,"name":")" << name
         << R"(","args":{"value":)"
         << std::bit_cast<double>(static_cast<std::uint64_t>(ev.aux))
         << "}}";
      break;
  }
}

std::size_t TraceStreamWriter::drain() {
  POLARIS_CHECK_MSG(!finished_, "drain after finish");
  batch_.clear();
  tracer_->collect(batch_, consume_);
  std::sort(batch_.begin(), batch_.end(), export_order);
  sync_registry();
  assign_lanes();
  announce();
  for (const detail::BatchEvent& b : batch_) emit(b);
  const std::size_t n = batch_.size();
  events_written_ += n;
  batch_.clear();
  return n;
}

void TraceStreamWriter::finish() {
  if (finished_) return;
  drain();
  finished_ = true;
  *os_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::uint64_t trace_hash(const Tracer& tracer) {
  std::ostringstream os;
  tracer.write_json(os);
  const std::string json = os.str();
  // FNV-1a's loop and prime, but not its offset basis: this start value is
  // one digit short of 14695981039346656037.  It stays, because the pinned
  // campaign hashes and the fingerprints built on them depend on it.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace polaris::obs
