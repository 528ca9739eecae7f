// Sim-time heartbeat service feeding the failure detectors.
//
// One monitor rank watches every other node: each period, every live node
// sends a small heartbeat message through the real fabric (transfer_raw —
// no coroutine frames, and heartbeats from a node that dies mid-wire are
// killed by the injector exactly like application traffic, producing the
// natural silence the detectors are built to notice).  Arrivals feed one
// TimeoutDetector and one PhiAccrualDetector per node; each tick also scans
// for fresh suspicions, which are stamped with the sim time — so
// suspected_at(n) minus Injector::downed_at(n) is the measured detection
// latency BENCH_FAULT.json reports.
//
// The first tick is at t = 0, which is also every detector's registration
// instant, and each heartbeat is kHeartbeatBytes on the wire.  The phi
// window is bootstrapped with the configured period (a node that crashes
// after a single heartbeat must still accrue suspicion).
#pragma once

#include <cstdint>
#include <vector>

#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fault/detector.hpp"
#include "polaris/obs/metrics.hpp"
#include "polaris/obs/trace.hpp"

namespace polaris::fault {

class HeartbeatService {
 public:
  struct Config {
    double period = 0.1;        ///< seconds between heartbeats
    double horizon = 0.0;       ///< stop ticking past this sim time (0 = never)
    std::uint32_t monitor = 0;  ///< rank that collects heartbeats
    double timeout = 0.5;       ///< TimeoutDetector threshold, seconds
    double phi_threshold = 8.0;
  };
  /// Wire size of one heartbeat.
  static constexpr std::uint64_t kHeartbeatBytes = 8;

  HeartbeatService(des::Engine& engine, fabric::SimNetwork& network,
                   Config config);

  /// Schedules the first tick (at t = 0).
  void start();

  bool suspected(std::uint32_t node) const;
  /// Sim time the node was most recently suspected (-1 if never).
  double suspected_at(std::uint32_t node) const;
  /// Cumulative suspicion events raised (a node cleared by a fresh
  /// heartbeat and re-suspected counts twice).
  std::size_t suspicions() const { return suspected_count_; }

  std::uint64_t heartbeats_sent() const { return sent_; }
  std::uint64_t heartbeats_delivered() const { return delivered_; }
  std::uint64_t heartbeats_lost() const { return lost_; }

  void attach_tracer(obs::Tracer& tracer);
  void attach_metrics(obs::MetricsRegistry& metrics);

 private:
  struct Peer {
    HeartbeatService* service;
    std::uint32_t node;
    TimeoutDetector timeout;
    PhiAccrualDetector phi;
    bool inflight = false;
    bool suspected = false;
    double suspected_time = -1.0;
  };

  static void tick_cb(void* ctx);
  static void heartbeat_done_cb(void* ctx, fabric::XferStatus status);
  void tick();

  des::Engine* engine_;
  fabric::SimNetwork* network_;
  Config config_;
  std::vector<Peer> peers_;  ///< one per node; the monitor's entry is idle

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t lost_ = 0;
  std::size_t suspected_count_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  bool have_track_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace polaris::fault
