// Unit costs for the cost ledger, measured from outside each layer.
//
// Each probe drives one layer's public functions on a synthetic load and
// divides host time by the work the layer reports.  The median of three
// repetitions is kept.
#include <cstdint>

#include "bench.hpp"
#include "polaris/des/engine.hpp"
#include "polaris/fabric/network.hpp"
#include "polaris/fabric/params.hpp"
#include "polaris/fabric/topology.hpp"
#include "polaris/msg/tag_matcher.hpp"

namespace perfbench {
namespace {

using namespace polaris;

constexpr int kReps = 3;

// ---------------------------------------------------------------- des

/// A hold-model process: each event reschedules itself after a
/// pseudo-random delay until its budget runs out.
struct Hold {
  des::Engine* engine = nullptr;
  std::uint64_t left = 0;
  std::uint64_t state = 0;
};

void hold_cb(void* ctx) {
  Hold& h = *static_cast<Hold*>(ctx);
  if (h.left == 0) return;
  --h.left;
  h.state = h.state * 6364136223846793005ull + 1442695040888963407ull;
  const auto delay = static_cast<des::SimTime>(1 + (h.state >> 33) % 1024);
  h.engine->schedule_raw_after(delay, hold_cb, &h);
}

double des_event_ns(std::uint64_t events) {
  constexpr std::size_t kHolders = 256;
  des::Engine engine;
  std::vector<Hold> holds(kHolders);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < kHolders; ++i) {
    holds[i] = {&engine, events / kHolders, i + 1};
    engine.schedule_raw_after(0, hold_cb, &holds[i]);
  }
  engine.run();
  const double s = seconds_between(t0, Clock::now());
  return s * 1e9 / static_cast<double>(engine.events_executed());
}

// ------------------------------------------------------------- fabric

/// Back-to-back transfers between two hosts: each completion injects the
/// next, so every message finds its path idle.
struct IdleChain {
  fabric::SimNetwork* net = nullptr;
  std::uint64_t left = 0;
};

void idle_done(void* ctx, fabric::XferStatus) {
  IdleChain& c = *static_cast<IdleChain*>(ctx);
  if (c.left == 0) return;
  --c.left;
  c.net->transfer_raw(0, 15, 128, idle_done, &c);
}

double fabric_idle_msg_ns(std::uint64_t messages) {
  des::Engine engine;
  const fabric::FatTree topo(4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  IdleChain chain{&net, messages};
  const Clock::time_point t0 = Clock::now();
  idle_done(&chain, fabric::XferStatus::kOk);
  engine.run();
  const double s = seconds_between(t0, Clock::now());
  return s * 1e9 / static_cast<double>(net.stats().messages);
}

/// Incast rounds: every other host sends to host 0 at once, so all but
/// the first message of a round walk hop by hop.  The last completion of
/// a round starts the next.
struct Incast {
  fabric::SimNetwork* net = nullptr;
  std::uint64_t rounds_left = 0;
  std::uint32_t pending = 0;
};

void incast_done(void* ctx, fabric::XferStatus) {
  Incast& c = *static_cast<Incast*>(ctx);
  if (c.pending > 0 && --c.pending > 0) return;
  if (c.rounds_left == 0) return;
  --c.rounds_left;
  constexpr fabric::NodeId kHosts = 16;
  c.pending = kHosts - 1;
  for (fabric::NodeId src = 1; src < kHosts; ++src) {
    c.net->transfer_raw(src, 0, 128, incast_done, &c);
  }
}

double fabric_hop_ns(std::uint64_t rounds) {
  des::Engine engine;
  const fabric::FatTree topo(4);
  fabric::SimNetwork net(engine, fabric::fabrics::myrinet2000(), topo);
  Incast incast{&net, rounds, 0};
  const Clock::time_point t0 = Clock::now();
  incast_done(&incast, fabric::XferStatus::kOk);
  engine.run();
  const double s = seconds_between(t0, Clock::now());
  const std::uint64_t hops = net.stats().walker_hop_events;
  return hops == 0 ? 0.0 : s * 1e9 / static_cast<double>(hops);
}

// ---------------------------------------------------------------- msg

/// Alternates the two matching orders simrt produces: receive posted
/// before the message arrives, and message arriving unexpected first.
double msg_pair_ns(std::uint64_t pairs) {
  msg::TagMatcher<std::uint32_t> matcher;
  std::uint64_t matched = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const int src = static_cast<int>(i % 64);
    const msg::Envelope<std::uint32_t> env{src, 7, 16,
                                           static_cast<std::uint32_t>(i)};
    if (i % 2 == 0) {
      if (!matcher.post_recv(i, src, 7)) {
        matched += matcher.arrive(env).has_value();
      }
    } else if (!matcher.arrive(env)) {
      matched += matcher.post_recv(i, src, 7).has_value();
    }
  }
  const double s = seconds_between(t0, Clock::now());
  return matched == pairs ? s * 1e9 / static_cast<double>(pairs) : 0.0;
}

template <typename Fn>
double median_of_reps(Fn fn) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) v.push_back(fn());
  return median(std::move(v));
}

}  // namespace

UnitCosts measure_unit_costs(bool tiny) {
  const std::uint64_t scale = tiny ? 1 : 20;
  UnitCosts u;
  u.des_event_ns = median_of_reps([&] { return des_event_ns(100'000 * scale); });
  u.fabric_idle_msg_ns =
      median_of_reps([&] { return fabric_idle_msg_ns(50'000 * scale); });
  u.fabric_hop_ns = median_of_reps([&] { return fabric_hop_ns(2'000 * scale); });
  u.msg_pair_ns = median_of_reps([&] { return msg_pair_ns(100'000 * scale); });
  return u;
}

}  // namespace perfbench
