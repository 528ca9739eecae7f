// Young's first-order optimal checkpoint interval: the cross-check the
// tests hold Daly's higher-order formula (fault::daly_interval) against.
#pragma once

#include <cmath>

#include "polaris/fault/checkpoint.hpp"
#include "polaris/support/check.hpp"

namespace polaris::fault {

/// tau = sqrt(2 delta M).
inline double young_interval(const CheckpointConfig& c) {
  POLARIS_CHECK(c.checkpoint_cost > 0 && c.system_mtbf > 0);
  return std::sqrt(2.0 * c.checkpoint_cost * c.system_mtbf);
}

}  // namespace polaris::fault
