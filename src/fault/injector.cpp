#include "polaris/fault/injector.hpp"

#include <string>
#include <utility>

#include "polaris/support/check.hpp"

namespace polaris::fault {

Injector::Injector(des::Engine& engine, fabric::SimNetwork& network)
    : engine_(&engine), network_(&network) {
  network_->enable_faults();
  const std::size_t n = network_->topology().node_count();
  crash_time_.assign(n, -1.0);
  down_since_.assign(n, 0);
  node_repair_.assign(n, RepairPlan{});
  link_repair_.assign(network_->topology().link_count(), RepairPlan{});
}

void Injector::schedule_node_crash(double at, std::uint32_t node,
                                   double repair_after) {
  POLARIS_CHECK(node < network_->topology().node_count());
  FaultEvent ev{at, node, FaultEvent::Kind::kNodeCrash};
  engine_->schedule_at(des::from_seconds(at), [this, ev, repair_after] {
    apply(ev, repair_after);
  });
}

void Injector::schedule_link_outage(double at, fabric::LinkId link,
                                    double repair_after) {
  POLARIS_CHECK(link < network_->topology().link_count());
  FaultEvent ev{at, link, FaultEvent::Kind::kLinkDown};
  engine_->schedule_at(des::from_seconds(at), [this, ev, repair_after] {
    apply(ev, repair_after);
  });
}

std::size_t Injector::load_node_timeline(FailureTimeline& timeline,
                                         double horizon, double repair_after) {
  const auto n =
      static_cast<std::uint32_t>(network_->topology().node_count());
  std::size_t scheduled = 0;
  for (const FailureTimeline::Event& ev : timeline.until(horizon)) {
    schedule_node_crash(ev.time, static_cast<std::uint32_t>(ev.node) % n,
                        repair_after);
    ++scheduled;
  }
  return scheduled;
}

std::size_t Injector::load_link_timeline(FailureTimeline& timeline,
                                         double horizon, double repair_after) {
  const auto links =
      static_cast<std::uint32_t>(network_->topology().link_count());
  std::size_t scheduled = 0;
  for (const FailureTimeline::Event& ev : timeline.until(horizon)) {
    schedule_link_outage(ev.time,
                         static_cast<fabric::LinkId>(ev.node % links),
                         repair_after);
    ++scheduled;
  }
  return scheduled;
}

double Injector::downed_at(std::uint32_t node) const {
  POLARIS_CHECK(node < crash_time_.size());
  return crash_time_[node];
}

bool Injector::extend_repair(RepairPlan& plan, FaultEvent::Kind repair_kind,
                             std::uint32_t id, double at,
                             double repair_after) {
  ++overlapped_faults_;
  if (repair_after <= 0.0) {
    // Overlapping permanent fault: cancel any pending repair.  The stale
    // repair event (if one is queued) sees the bumped generation and
    // ignores itself.
    if (plan.at < 0.0) return false;  // already permanent
    plan.at = -1.0;
    ++plan.gen;
    ++repair_extensions_;
    return true;
  }
  const double deadline = at + repair_after;
  // Never shorten: a pending-permanent plan (at < 0) or a later deadline
  // wins.  Equal deadlines collapse without a new event.
  if (plan.at < 0.0 || deadline <= plan.at) return false;
  plan.at = deadline;
  ++plan.gen;
  ++repair_extensions_;
  schedule_repair(plan, repair_kind, id);
  return true;
}

void Injector::schedule_repair(const RepairPlan& plan,
                               FaultEvent::Kind repair_kind,
                               std::uint32_t id) {
  const FaultEvent up{plan.at, id, repair_kind};
  const std::uint32_t gen = plan.gen;
  engine_->schedule_at(des::from_seconds(plan.at),
                       [this, up, gen] { apply_repair(up, gen); });
}

void Injector::apply(FaultEvent ev, double repair_after) {
  switch (ev.kind) {
    case FaultEvent::Kind::kNodeCrash: {
      if (!network_->node_up(ev.id)) {
        // Overlapping fault on a down node: no double count, no listener
        // notification (the survivors' view did not change) — but the
        // repair window merges so the node cannot resurrect early.
        extend_repair(node_repair_[ev.id], FaultEvent::Kind::kNodeRepair,
                      ev.id, ev.time, repair_after);
        update_gauges();
        return;
      }
      network_->set_node_up(ev.id, false);
      ++crashes_;
      ++faults_applied_;
      ++nodes_down_;
      crash_time_[ev.id] = ev.time;
      down_since_[ev.id] = engine_->now();
      history_.push_back(ev);
      if (tracer_ && have_track_) {
        tracer_->instant(track_, "crash node " + std::to_string(ev.id),
                         "fault");
      }
      RepairPlan& plan = node_repair_[ev.id];
      ++plan.gen;  // invalidates any stale repair event for this node
      plan.at = repair_after > 0.0 ? ev.time + repair_after : -1.0;
      if (plan.at >= 0.0) {
        schedule_repair(plan, FaultEvent::Kind::kNodeRepair, ev.id);
      }
      notify_fault();
      break;
    }
    case FaultEvent::Kind::kLinkDown: {
      if (!network_->link_up(ev.id)) {
        extend_repair(link_repair_[ev.id], FaultEvent::Kind::kLinkUp, ev.id,
                      ev.time, repair_after);
        update_gauges();
        return;
      }
      network_->set_link_up(ev.id, false);
      ++link_outages_;
      ++faults_applied_;
      ++links_down_;
      history_.push_back(ev);
      if (tracer_ && have_track_) {
        tracer_->instant(track_, "link " + std::to_string(ev.id) + " down",
                         "fault");
      }
      RepairPlan& plan = link_repair_[ev.id];
      ++plan.gen;
      plan.at = repair_after > 0.0 ? ev.time + repair_after : -1.0;
      if (plan.at >= 0.0) {
        schedule_repair(plan, FaultEvent::Kind::kLinkUp, ev.id);
      }
      notify_fault();
      break;
    }
    case FaultEvent::Kind::kNodeRepair:
    case FaultEvent::Kind::kLinkUp:
      // Repairs are only ever scheduled internally, through
      // schedule_repair -> apply_repair.
      POLARIS_CHECK_MSG(false, "repair events go through apply_repair");
      break;
  }
  for (FaultListener* l : listeners_) l->on_fault(ev);
  update_gauges();
}

void Injector::apply_repair(FaultEvent ev, std::uint32_t gen) {
  switch (ev.kind) {
    case FaultEvent::Kind::kNodeRepair: {
      RepairPlan& plan = node_repair_[ev.id];
      if (gen != plan.gen) return;  // superseded by a later/permanent fault
      if (network_->node_up(ev.id)) return;
      network_->set_node_up(ev.id, true);
      --nodes_down_;
      plan.at = -1.0;
      history_.push_back(ev);
      if (tracer_ && have_track_) {
        tracer_->complete_span(track_,
                               "node " + std::to_string(ev.id) + " down",
                               "fault", down_since_[ev.id],
                               engine_->now() - down_since_[ev.id]);
      }
      if (nodes_down_ == 0) {
        for (des::OneShotEvent* w : up_waiters_) w->fire(*engine_);
        up_waiters_.clear();
      }
      break;
    }
    case FaultEvent::Kind::kLinkUp: {
      RepairPlan& plan = link_repair_[ev.id];
      if (gen != plan.gen) return;
      if (network_->link_up(ev.id)) return;
      network_->set_link_up(ev.id, true);
      --links_down_;
      plan.at = -1.0;
      history_.push_back(ev);
      if (tracer_ && have_track_) {
        tracer_->instant(track_, "link " + std::to_string(ev.id) + " up",
                         "fault");
      }
      break;
    }
    default:
      POLARIS_CHECK_MSG(false, "apply_repair only handles repairs");
      break;
  }
  for (FaultListener* l : listeners_) l->on_fault(ev);
  update_gauges();
}

void Injector::notify_fault() {
  for (des::OneShotEvent* w : fault_waiters_) w->fire(*engine_);
  fault_waiters_.clear();
}

void Injector::update_gauges() {
  if (!metrics_) return;
  metrics_->gauge("fault.nodes_down").set(nodes_down_);
  metrics_->gauge("fault.links_down").set(links_down_);
  metrics_->gauge("fault.node_crashes").set(static_cast<double>(crashes_));
  metrics_->gauge("fault.link_outages")
      .set(static_cast<double>(link_outages_));
}

void Injector::work_timer_cb(void* ctx) {
  auto* w = static_cast<TimedWait*>(ctx);
  w->event.fire(*w->injector->engine_);
}

des::Task<bool> Injector::work_for(double seconds) {
  const std::uint64_t before = faults_applied_;
  TimedWait w{this, {}};
  const des::EventId timer = engine_->schedule_raw_after(
      des::from_seconds(seconds), &work_timer_cb, &w);
  fault_waiters_.push_back(&w.event);
  co_await w.event.wait();
  // Whichever source fired, the other may still hold a reference: drop the
  // subscription and the timer before the frame goes away.
  for (std::size_t i = 0; i < fault_waiters_.size(); ++i) {
    if (fault_waiters_[i] == &w.event) {
      fault_waiters_[i] = fault_waiters_.back();
      fault_waiters_.pop_back();
      break;
    }
  }
  const bool interrupted = faults_applied_ != before;
  if (interrupted) engine_->cancel(timer);
  co_return !interrupted;
}

des::Task<void> Injector::await_all_nodes_up() {
  while (nodes_down_ > 0) {
    TimedWait w{this, {}};
    up_waiters_.push_back(&w.event);
    co_await w.event.wait();
  }
}

void Injector::attach_tracer(obs::Tracer& tracer) {
  tracer_ = &tracer;
  track_ = tracer.add_track("faults", "injected");
  have_track_ = true;
}

void Injector::attach_metrics(obs::MetricsRegistry& metrics) {
  metrics_ = &metrics;
  update_gauges();
}

}  // namespace polaris::fault
