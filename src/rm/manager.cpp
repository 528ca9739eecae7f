#include "polaris/rm/manager.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "polaris/des/time.hpp"
#include "polaris/support/check.hpp"
#include "polaris/support/stats.hpp"

namespace polaris::rm {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kFcfs:
      return "fcfs";
    case Policy::kSjf:
      return "sjf";
    case Policy::kEasyBackfill:
      return "easy-backfill";
    case Policy::kConservative:
      return "conservative";
  }
  return "?";
}

namespace {

/// Cycle-local capacity profile for conservative backfill: a step function
/// of free nodes over future time, seeded from the running set's planned
/// completions.  Each scanned job reserves the earliest window that fits,
/// so no later-scanned job can delay an earlier-scanned one.  Rebuilt per
/// rate-limited cycle (it lives O(depth + running) long), never stored.
class Profile {
 public:
  Profile(double now, double free_now,
          const std::vector<PlanningTimeline::RunEnd>& ends) {
    pts_.push_back({now, free_now});
    double f = free_now;
    for (const auto& e : ends) {
      f += e.width;
      if (e.end <= pts_.back().time) {
        pts_.back().free = f;
      } else {
        pts_.push_back({e.end, f});
      }
    }
  }

  /// Earliest start >= now for `width` nodes over `dur` seconds; reserves
  /// the window.
  double reserve(double width, double dur) {
    for (std::size_t i = 0; i < pts_.size(); ++i) {
      if (pts_[i].free < width) continue;
      const double t = pts_[i].time;
      const double end = t + dur;
      bool fits = true;
      std::size_t j = i;
      while (j < pts_.size() && pts_[j].time < end) {
        if (pts_[j].free < width) {
          fits = false;
          break;
        }
        ++j;
      }
      if (!fits) continue;
      // Split at `end`, then subtract the width over [t, end).
      if (j == pts_.size() || pts_[j].time > end) {
        pts_.insert(pts_.begin() + static_cast<std::ptrdiff_t>(j),
                    {end, pts_[j - 1].free});
      }
      for (std::size_t k = i; k < j; ++k) pts_[k].free -= width;
      return t;
    }
    // Beyond every breakpoint the machine is fully drained of running
    // jobs; the request fits there (width <= machine checked upstream).
    const double t = pts_.back().time;
    pts_.push_back({t + dur, pts_.back().free});
    pts_[pts_.size() - 2].free -= width;
    return t;
  }

 private:
  struct Point {
    double time;
    double free;  ///< free nodes from `time` to the next point
  };
  std::vector<Point> pts_;
};

}  // namespace

ResourceManager::ResourceManager(des::Engine& engine, std::size_t nodes,
                                 RmConfig cfg)
    : engine_(&engine),
      cfg_(cfg),
      alloc_(nodes) {}

ResourceManager::ResourceManager(des::Engine& engine,
                                 const fabric::Topology& topo, RmConfig cfg)
    : engine_(&engine),
      cfg_(cfg),
      alloc_(cfg.placement == RmConfig::Placement::kTopology
                 ? BlockAllocator(topo)
                 : BlockAllocator(topo.node_count())) {}

double ResourceManager::now_s() const { return des::to_seconds(engine_->now()); }

void ResourceManager::submit(const JobSpec& spec) {
  POLARIS_CHECK(spec.width >= 1 && spec.width <= alloc_.node_count());
  POLARIS_CHECK(spec.checkpoint_interval >= 0.0 &&
                spec.checkpoint_cost >= 0.0);
  POLARIS_CHECK_MSG(job_index_.find(spec.id) == nullptr,
                    "rm: duplicate job id");
  const auto slot = static_cast<std::uint32_t>(jobs_.size());
  jobs_.emplace_back();
  RmJob& job = jobs_.back();
  job.spec = spec;
  job.slot = slot;
  job.remaining = spec.runtime;
  job.rm = this;
  job_index_[spec.id] = slot;
  const des::SimTime at =
      std::max(engine_->now(), des::from_seconds(spec.submit));
  engine_->schedule_raw_at(at, &arrival_cb, &job);
}

void ResourceManager::arrival_cb(void* ctx) {
  RmJob& job = *static_cast<RmJob*>(ctx);
  ResourceManager& rm = *job.rm;
  rm.acct_.on_submit(job.spec);
  rm.enqueue(job, /*front=*/false);
  if (rm.have_track_) {
    rm.tracer_->instant(rm.track_, "submit job " + std::to_string(job.spec.id),
                        "rm");
  }
  rm.run_queue();
}

void ResourceManager::enqueue(RmJob& job, bool front) {
  POLARIS_CHECK(!job.queued);
  job.queued = true;
  // The job is linked in after `prev` (kNilIndex: at the head).
  std::uint32_t prev = front ? kNilIndex : tail_;
  if (cfg_.policy == Policy::kSjf) {
    // Estimate order.  Among equal estimates an arrival goes last and a
    // requeued job (`front`) first.
    const double est = planning_estimate(job.spec);
    prev = tail_;
    while (prev != kNilIndex) {
      const double other = planning_estimate(jobs_[prev].spec);
      if (other < est || (other == est && !front)) break;
      prev = jobs_[prev].prev;
    }
  }
  job.prev = prev;
  job.next = prev == kNilIndex ? head_ : jobs_[prev].next;
  if (job.prev != kNilIndex) {
    jobs_[job.prev].next = job.slot;
  } else {
    head_ = job.slot;
  }
  if (job.next != kNilIndex) {
    jobs_[job.next].prev = job.slot;
  } else {
    tail_ = job.slot;
  }
  ++pending_count_;
}

void ResourceManager::dequeue(RmJob& job) {
  POLARIS_CHECK(job.queued);
  if (job.prev != kNilIndex) {
    jobs_[job.prev].next = job.next;
  } else {
    head_ = job.next;
  }
  if (job.next != kNilIndex) {
    jobs_[job.next].prev = job.prev;
  } else {
    tail_ = job.prev;
  }
  job.prev = job.next = kNilIndex;
  job.queued = false;
  --pending_count_;
}

ResourceManager::RmJob* ResourceManager::queue_head() {
  POLARIS_CHECK(head_ != kNilIndex);
  return &jobs_[head_];
}

void ResourceManager::start_job(RmJob& job, bool via_backfill) {
  const std::uint32_t width = job.spec.width;
  const bool ok = alloc_.allocate(width, job.slot, job.alloc);
  POLARIS_CHECK(ok);

  job.state = JobState::kRunning;
  job.start = now_s();
  job.planned_end = job.start + planning_estimate(job.spec);
  timeline_.add(job.planned_end, width, job.slot);
  job.completion = engine_->schedule_raw_after(
      des::from_seconds(job.remaining * stretch(job.spec)), &completion_cb,
      &job);
  acct_.on_start(job.spec.id, job.start);
  ++started_;
  ++running_count_;
  if (via_backfill) ++backfilled_;
  if (c_started_) c_started_->add();
  if (via_backfill && c_backfilled_) c_backfilled_->add();
  if (h_wait_) {
    // Sim-seconds -> integer microseconds for the log-bucketed histogram.
    h_wait_->record(static_cast<std::uint64_t>(
        (job.start - job.spec.submit) * 1e6));
  }
}

void ResourceManager::completion_cb(void* ctx) {
  RmJob& job = *static_cast<RmJob*>(ctx);
  job.rm->finish_job(job);
}

void ResourceManager::finish_job(RmJob& job) {
  const double finish = now_s();
  timeline_.remove(job.slot, job.planned_end);
  alloc_.release(job.alloc);
  job.alloc.clear();
  job.state = JobState::kCompleted;
  acct_.on_complete(job.spec.id, finish);
  ++completed_;
  --running_count_;
  if (have_track_) {
    const des::SimTime start_tick = des::from_seconds(job.start);
    tracer_->complete_span(track_, "job " + std::to_string(job.spec.id), "rm",
                           start_tick, engine_->now() - start_tick);
  }
  run_queue();
}

void ResourceManager::requeue_job(RmJob& job) {
  POLARIS_CHECK(job.state == JobState::kRunning);
  engine_->cancel(job.completion);
  timeline_.remove(job.slot, job.planned_end);
  alloc_.release(job.alloc);
  job.alloc.clear();
  // Completed checkpoint intervals survive; the segment in progress is lost.
  double saved = 0.0;
  if (job.spec.checkpoint_interval > 0.0) {
    const double segment =
        job.spec.checkpoint_interval + job.spec.checkpoint_cost;
    const double intervals = std::floor((now_s() - job.start) / segment);
    saved = intervals * segment;
    job.remaining = std::max(
        job.remaining - intervals * job.spec.checkpoint_interval, 0.0);
  }
  acct_.on_requeue(job.spec.id, now_s(), saved);
  job.state = JobState::kPending;
  job.start = -1.0;
  --running_count_;
  ++requeues_;
  if (c_requeues_) c_requeues_->add();
  if (have_track_) {
    tracer_->instant(track_, "requeue job " + std::to_string(job.spec.id),
                     "rm");
  }
  // Front of the queue: a victim resumes before jobs that never ran.
  enqueue(job, /*front=*/true);
}

void ResourceManager::run_queue() {
  if (in_run_queue_) return;
  in_run_queue_ = true;
  ++decision_passes_;
  quick_start();
  maybe_backfill();
  update_gauges();
  in_run_queue_ = false;
}

void ResourceManager::quick_start() {
  while (head_ != kNilIndex) {
    RmJob* j = queue_head();
    if (j->spec.width > alloc_.free_count()) break;
    dequeue(*j);
    start_job(*j, /*via_backfill=*/false);
  }
}

void ResourceManager::maybe_backfill() {
  if (cfg_.policy == Policy::kFcfs || head_ == kNilIndex) return;
  const des::SimTime interval = des::from_seconds(cfg_.backfill_interval);
  if (engine_->now() - last_backfill_tick_ >= interval) {
    backfill_cycle();
    return;
  }
  // Too soon: coalesce into one deferred cycle instead of rescanning the
  // queue on every event.
  if (!backfill_timer_set_) {
    backfill_timer_set_ = true;
    engine_->schedule_raw_at(last_backfill_tick_ + interval,
                             &backfill_timer_cb, this);
  }
}

void ResourceManager::backfill_timer_cb(void* ctx) {
  auto& rm = *static_cast<ResourceManager*>(ctx);
  rm.backfill_timer_set_ = false;
  rm.run_queue();
}

void ResourceManager::backfill_cycle() {
  ++backfill_cycles_;
  last_backfill_tick_ = engine_->now();
  if (head_ == kNilIndex) return;
  const double now = now_s();

  if (cfg_.policy == Policy::kConservative) {
    Profile prof(now, static_cast<double>(alloc_.free_count()),
                 timeline_.ends());
    const std::uint32_t head_slot = head_;
    std::uint32_t scanned = 0;
    std::uint32_t s = head_;
    while (s != kNilIndex && scanned < cfg_.backfill_depth) {
      RmJob& c = jobs_[s];
      const std::uint32_t nxt = c.next;
      ++scanned;
      const bool is_head = s == head_slot;
      const double est = planning_estimate(c.spec);
      const double earliest = prof.reserve(c.spec.width, est);
      if (earliest <= now && c.spec.width <= alloc_.free_count()) {
        dequeue(c);
        start_job(c, /*via_backfill=*/!is_head);
      }
      s = nxt;
    }
    return;
  }

  // EASY: protect only the head job — its shadow start must not move.
  // SJF reserves nothing for the head, so every job that fits starts.
  RmJob* head = queue_head();
  const PlanningTimeline::Shadow shadow =
      cfg_.policy == Policy::kSjf
          ? PlanningTimeline::Shadow{std::numeric_limits<double>::infinity(),
                                     0}
          : timeline_.shadow_for(
                head->spec.width,
                static_cast<std::uint32_t>(alloc_.free_count()));
  std::uint32_t extra = shadow.extra;
  std::uint32_t scanned = 0;
  std::uint32_t s = head_;
  while (s != kNilIndex && scanned < cfg_.backfill_depth) {
    RmJob& c = jobs_[s];
    const std::uint32_t nxt = c.next;
    if (&c != head) {
      ++scanned;
      if (c.spec.width <= alloc_.free_count()) {
        const double est = planning_estimate(c.spec);
        const bool ends_before_shadow = now + est <= shadow.time;
        const bool fits_extra = c.spec.width <= extra;
        if (ends_before_shadow || fits_extra) {
          if (!ends_before_shadow) extra -= c.spec.width;
          dequeue(c);
          start_job(c, /*via_backfill=*/true);
        }
      }
    }
    s = nxt;
  }
}

void ResourceManager::on_fault(const fault::FaultEvent& ev) {
  switch (ev.kind) {
    case fault::FaultEvent::Kind::kNodeCrash:
      node_failed(ev.id);
      break;
    case fault::FaultEvent::Kind::kNodeRepair:
      node_repaired(ev.id);
      break;
    default:
      break;  // link faults reroute traffic; nodes stay schedulable
  }
}

void ResourceManager::node_failed(fabric::NodeId node) {
  POLARIS_CHECK(node < alloc_.node_count());
  if (alloc_.drained(node)) return;
  const std::uint32_t owner = alloc_.owner_of(node);
  alloc_.drain(node);
  if (owner != kNilIndex) requeue_job(jobs_[owner]);
  run_queue();
}

void ResourceManager::node_repaired(fabric::NodeId node) {
  POLARIS_CHECK(node < alloc_.node_count());
  if (!alloc_.drained(node)) return;
  alloc_.undrain(node);
  run_queue();
}

void ResourceManager::attach_metrics(obs::MetricsRegistry& metrics) {
  g_queue_depth_ = &metrics.gauge("rm.queue_depth");
  g_running_ = &metrics.gauge("rm.running");
  g_nodes_free_ = &metrics.gauge("rm.nodes_free");
  g_nodes_drained_ = &metrics.gauge("rm.nodes_drained");
  c_started_ = &metrics.counter("rm.started");
  c_backfilled_ = &metrics.counter("rm.backfilled");
  c_requeues_ = &metrics.counter("rm.requeues");
  h_wait_ = &metrics.log_histogram("rm.wait_time_us");
  update_gauges();
}

void ResourceManager::attach_tracer(obs::Tracer& tracer) {
  tracer_ = &tracer;
  track_ = tracer.add_track("rm jobs", "rm");
  have_track_ = true;
}

void ResourceManager::update_gauges() {
  if (!g_queue_depth_) return;
  g_queue_depth_->set(static_cast<double>(pending_count_));
  g_running_->set(static_cast<double>(running_count_));
  g_nodes_free_->set(static_cast<double>(alloc_.free_count()));
  g_nodes_drained_->set(static_cast<double>(alloc_.drained_count()));
}

const Allocation* ResourceManager::allocation_of(JobId id) const {
  const std::uint32_t* slot = job_index_.find(id);
  if (!slot) return nullptr;
  const RmJob& j = jobs_[*slot];
  return j.state == JobState::kRunning ? &j.alloc : nullptr;
}

ResourceManager::Summary ResourceManager::summary() const {
  Summary s;
  s.backfilled = backfilled_;
  s.requeues = requeues_;
  s.fragmented_allocs = alloc_.stats().fragmented;
  support::Summary waits;
  double slowdown_sum = 0.0;
  double node_seconds = 0.0;
  double first_submit = std::numeric_limits<double>::infinity();
  double last_finish = 0.0;
  for (const JobRecord& r : acct_.query({})) {
    ++s.jobs;
    first_submit = std::min(first_submit, r.submit);
    if (r.state != JobState::kCompleted) continue;
    ++s.completed;
    waits.add(r.start - r.submit);
    const double runtime = r.finish - r.start;
    slowdown_sum +=
        std::max(1.0, (r.finish - r.submit) / std::max(runtime, 10.0));
    node_seconds += runtime * r.width;
    last_finish = std::max(last_finish, r.finish);
  }
  if (s.completed > 0) {
    s.makespan = last_finish - first_submit;
    s.mean_wait = waits.mean();
    s.p95_wait = waits.percentile(95.0);
    s.mean_bounded_slowdown =
        slowdown_sum / static_cast<double>(s.completed);
  }
  if (s.makespan > 0.0) {
    s.utilization =
        node_seconds / (static_cast<double>(alloc_.node_count()) * s.makespan);
  }
  return s;
}

}  // namespace polaris::rm
