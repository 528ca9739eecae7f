// Core types of the polaris::rm resource manager.
//
// A JobSpec is what a user submits: width, wall-time request and identity
// (user/account).  The manager turns it into a live job with a state
// machine:
//
//   kPending --start--> kRunning --finish--> kCompleted
//      ^                   |
//      |                   +---- node crash ----> requeued (kPending,
//      |                                          requeues+1)
//      +<-----------------------------------------+
//
// A node-failure requeue keeps only the work a job has checkpointed.  A
// job without checkpoints loses all its progress (accounted as wasted
// node-seconds) and runs its full runtime again on the next allocation.
// A checkpointing job keeps every completed interval and loses only the
// segment in progress.
#pragma once

#include <cstddef>
#include <cstdint>

namespace polaris::rm {

using JobId = std::uint64_t;
using UserId = std::uint32_t;
using AccountId = std::uint32_t;

inline constexpr std::uint32_t kNilIndex = 0xffff'ffffu;

enum class JobState : std::uint8_t {
  kPending,    ///< queued (includes requeued-after-failure)
  kRunning,
  kCompleted,
};

const char* to_string(JobState s);

/// Queue discipline of the resource manager.
enum class Policy {
  kFcfs,          ///< strict queue order; the head blocks everyone behind it
  kSjf,           ///< queue kept in estimate order; every job that fits starts
  kEasyBackfill,  ///< backfill that never delays the head job's start
  kConservative,  ///< backfill that delays no scanned job's planned start
};

const char* to_string(Policy p);

/// A rigid parallel job as submitted.  `estimate` is the user wall-time
/// request the scheduler plans with; `runtime` is what actually happens.
struct JobSpec {
  JobId id = 0;
  UserId user = 0;
  AccountId account = 0;
  double submit = 0.0;    ///< arrival time, seconds
  double runtime = 0.0;   ///< actual execution time, seconds
  double estimate = 0.0;  ///< requested wall time, seconds (0 = runtime)
  std::uint32_t width = 1;
  /// Seconds of work between checkpoints; 0 = none (a requeue restarts
  /// from scratch).  Each checkpoint takes `checkpoint_cost` seconds, so a
  /// run lasts its work times (1 + checkpoint_cost / checkpoint_interval).
  double checkpoint_interval = 0.0;
  double checkpoint_cost = 0.0;
};

}  // namespace polaris::rm
