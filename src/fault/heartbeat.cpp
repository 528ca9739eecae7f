#include "polaris/fault/heartbeat.hpp"

#include <string>

#include "polaris/support/check.hpp"

namespace polaris::fault {

HeartbeatService::HeartbeatService(des::Engine& engine,
                                   fabric::SimNetwork& network, Config config)
    : engine_(&engine), network_(&network), config_(config) {
  POLARIS_CHECK(config_.period > 0 && config_.timeout > 0 &&
                config_.monitor < network.topology().node_count());
  const std::size_t n = network.topology().node_count();
  peers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    peers_.push_back(Peer{
        this, static_cast<std::uint32_t>(i),
        TimeoutDetector(config_.timeout, /*registered_at=*/config_.start),
        PhiAccrualDetector(/*window=*/100, /*min_stddev=*/config_.period / 100.0,
                           /*bootstrap_interval=*/config_.period)});
  }
}

void HeartbeatService::start() {
  engine_->schedule_raw_at(des::from_seconds(config_.start), &tick_cb, this);
}

void HeartbeatService::tick_cb(void* ctx) {
  static_cast<HeartbeatService*>(ctx)->tick();
}

void HeartbeatService::heartbeat_done_cb(void* ctx,
                                         fabric::XferStatus status) {
  Peer& p = *static_cast<Peer*>(ctx);
  HeartbeatService& svc = *p.service;
  p.inflight = false;
  if (status != fabric::XferStatus::kOk) {
    // Killed mid-wire or refused at a dead NIC: the detectors hear nothing,
    // which is exactly the signal they exist to notice.
    ++svc.lost_;
    return;
  }
  ++svc.delivered_;
  const double now = des::to_seconds(svc.engine_->now());
  p.timeout.heartbeat(now);
  p.phi.heartbeat(now);
  p.suspected = false;  // the node is talking again
}

void HeartbeatService::tick() {
  const double now = des::to_seconds(engine_->now());
  for (Peer& p : peers_) {
    if (p.node == config_.monitor) continue;
    if (!p.inflight && network_->node_up(p.node)) {
      p.inflight = true;
      ++sent_;
      network_->transfer_raw(p.node, config_.monitor,
                             config_.heartbeat_bytes, &heartbeat_done_cb, &p);
    }
    if (!p.suspected && (p.timeout.suspect(now) ||
                         p.phi.suspect(now, config_.phi_threshold))) {
      p.suspected = true;
      p.suspected_time = now;
      ++suspected_count_;
      if (tracer_ && have_track_) {
        tracer_->instant(track_, "suspect node " + std::to_string(p.node),
                         "detector");
      }
      if (metrics_) {
        metrics_->counter("fault.suspicions").add();
      }
    }
  }
  if (metrics_) {
    metrics_->gauge("fault.heartbeats_sent").set(static_cast<double>(sent_));
    metrics_->gauge("fault.heartbeats_lost").set(static_cast<double>(lost_));
  }
  const double next = now + config_.period;
  if (config_.horizon > 0.0 && next > config_.horizon) return;
  engine_->schedule_raw_at(des::from_seconds(next), &tick_cb, this);
}

bool HeartbeatService::suspected(std::uint32_t node) const {
  POLARIS_CHECK(node < peers_.size());
  return peers_[node].suspected;
}

double HeartbeatService::suspected_at(std::uint32_t node) const {
  POLARIS_CHECK(node < peers_.size());
  return peers_[node].suspected_time;
}

void HeartbeatService::attach_tracer(obs::Tracer& tracer) {
  tracer_ = &tracer;
  track_ = tracer.add_track("faults", "detector");
  have_track_ = true;
}

void HeartbeatService::attach_metrics(obs::MetricsRegistry& metrics) {
  metrics_ = &metrics;
}

}  // namespace polaris::fault
