// Reference LogGP executor and exhaustive algorithm selection.
//
// The executor as it was written first, with one std::map entry and one
// std::deque per pairwise channel, and a selection that builds and
// predicts every valid candidate.  Tests hold coll::predicted_seconds
// (flat per-pair FIFOs) bit-identical to the first, and
// coll::select_algorithm (which skips a ring allreduce whose floor loses)
// identical to the second.
#pragma once

#include <cstddef>

#include "polaris/coll/algorithms.hpp"
#include "polaris/fabric/loggp.hpp"

namespace polaris::coll {

/// predicted_seconds over map-keyed deque channels.
double reference_predicted_seconds(const Schedule& schedule,
                                   const fabric::LogGPParams& net,
                                   std::size_t elem_bytes);

/// select_algorithm building and predicting every valid candidate.
Algorithm reference_select_algorithm(Collective kind, std::size_t ranks,
                                     std::size_t count,
                                     std::size_t elem_bytes,
                                     const fabric::LogGPParams& net,
                                     int root = 0);

}  // namespace polaris::coll
