// Job accounting and fair-share usage tracking.
//
// Every job's lifecycle lands in a ledger of JobRecords — the queryable
// equivalent of a production resource manager's accounting database
// (sacct): submit/start/finish stamps, requeue count, node-seconds wasted
// to preemption or node failure, and final state.  The ledger is
// append-ordered by first submission and indexed by JobId through a
// FlatMap64, so recording is O(1) per event.
//
// Fair share follows the classic decayed-usage model: each user's
// consumed node-seconds decay exponentially with a configured half-life, and the priority factor is 2^(-usage / (shares * mean)) —
// 1.0 for an idle user, 0.5 at exactly the fair allocation, approaching 0
// for hogs.  The scheduler folds the factor into queue tiers at
// submit/requeue time.
//
// Determinism: dump() emits records sorted by JobId with fixed formatting,
// and fingerprint() hashes that text, so two same-seed runs can assert
// byte-identical ledgers.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "polaris/rm/types.hpp"
#include "polaris/support/flat_map.hpp"

namespace polaris::rm {

struct JobRecord {
  JobId id = 0;
  UserId user = 0;
  AccountId account = 0;
  std::uint32_t width = 0;
  std::int32_t priority = 0;
  double submit = 0.0;
  double start = -1.0;   ///< most recent start; -1 while pending
  double finish = -1.0;  ///< -1 until completed
  double wasted_node_seconds = 0.0;  ///< lost to preemption/node failure
  std::uint32_t requeues = 0;
  JobState state = JobState::kPending;

  double wait() const { return start >= 0.0 ? start - submit : -1.0; }
};

class AccountingStore {
 public:
  struct Config {
    double fairshare_halflife = 7 * 24 * 3600.0;  ///< seconds of sim time
  };

  AccountingStore() = default;
  explicit AccountingStore(Config cfg) : cfg_(cfg) {}

  // --- lifecycle recording (called by the resource manager) ---
  void on_submit(const JobSpec& spec);
  void on_start(JobId id, double at);
  /// Preemption or node-failure requeue: charges the partial run as waste,
  /// less the `saved` seconds of it that completed checkpoints keep.
  void on_requeue(JobId id, double at, double saved = 0.0);
  void on_complete(JobId id, double at);

  /// Default 1.0; higher shares tolerate more usage before losing factor.
  void set_user_shares(UserId user, double shares);

  /// Decayed-usage priority factor in (0, 1]; 1.0 for an unused identity.
  double user_factor(UserId user, double now) const;

  /// Decayed node-seconds charged to a user so far.
  double user_usage(UserId user, double now) const;

  // --- queries (sacct-alike) ---
  struct Query {
    UserId user = kNilIndex;        ///< kNilIndex = any
    AccountId account = kNilIndex;  ///< kNilIndex = any
    JobState state = JobState::kPending;
    bool filter_state = false;
  };
  /// Matching records sorted by JobId.
  std::vector<JobRecord> query(const Query& q) const;
  const JobRecord* find(JobId id) const;
  std::size_t size() const { return records_.size(); }

  struct Totals {
    std::uint64_t jobs = 0;
    std::uint64_t completed = 0;
    std::uint64_t requeues = 0;
    double node_seconds = 0.0;
    double wasted_node_seconds = 0.0;
  };
  Totals totals() const;

  /// Deterministic text form: one line per record, sorted by JobId.
  void dump(std::ostream& os) const;
  std::string dump() const;
  /// FNV-1a hash of dump() — the byte-identity check for same-seed runs.
  std::uint64_t fingerprint() const;

 private:
  struct Usage {
    double usage = 0.0;       ///< decayed node-seconds
    double last_decay = 0.0;  ///< sim time usage was last brought current
    double shares = 1.0;
  };

  JobRecord* record_for(JobId id);
  void charge(UserId user, double node_seconds, double now);
  static double decayed(const Usage& u, double now, double halflife);
  double mean_usage(double now) const;

  Config cfg_;
  std::deque<JobRecord> records_;
  support::FlatMap64<std::uint32_t> index_;  ///< JobId -> records_ pos
  support::FlatMap64<Usage> users_;
  double total_usage_ = 0.0;        ///< decayed, brought current lazily
  double total_last_decay_ = 0.0;
};

}  // namespace polaris::rm
