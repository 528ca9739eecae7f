// Active messages.
//
// An active message carries a handler index; delivery runs the registered
// handler on the payload at the destination — the low-level primitive
// beneath user-level messaging layers (von Eicken et al.) and the natural
// API for fabric control traffic.  Neither Polaris runtime dispatches
// through this table; each handles its rendezvous RTS/CTS in its own
// protocol code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "polaris/support/function.hpp"

namespace polaris::msg {

using AmHandlerId = std::uint32_t;

/// Handler invoked at the destination: (source rank, payload bytes).
using AmHandler =
    support::UniqueFunction<void(int src, std::span<const std::byte>)>;

/// Per-endpoint table of active-message handlers.  Handler ids are dense
/// and must be registered identically on every endpoint (SPMD convention).
class ActiveMessageTable {
 public:
  /// Registers a handler; returns its id (dense, starting at 0).
  AmHandlerId register_handler(AmHandler handler);

  /// Runs handler `id` for a message from `src`.  Throws on unknown id.
  void dispatch(AmHandlerId id, int src,
                std::span<const std::byte> payload);

  std::size_t size() const { return handlers_.size(); }
  std::uint64_t dispatched() const { return dispatched_; }

 private:
  std::vector<AmHandler> handlers_;
  std::uint64_t dispatched_ = 0;
};

}  // namespace polaris::msg
