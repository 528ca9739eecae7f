// Job accounting.
//
// Every job's lifecycle lands in a ledger of JobRecords — the queryable
// equivalent of a production resource manager's accounting database
// (sacct): submit/start/finish stamps, requeue count, node-seconds wasted
// to node failures, and final state.  The ledger is append-ordered by
// first submission and indexed by JobId through a FlatMap64, so recording
// is O(1) per event.
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
  double submit = 0.0;
  double start = -1.0;   ///< most recent start; -1 while pending
  double finish = -1.0;  ///< -1 until completed
  double wasted_node_seconds = 0.0;  ///< lost to node failures
  std::uint32_t requeues = 0;
  JobState state = JobState::kPending;

  double wait() const { return start >= 0.0 ? start - submit : -1.0; }
};

class AccountingStore {
 public:
  // --- lifecycle recording (called by the resource manager) ---
  void on_submit(const JobSpec& spec);
  void on_start(JobId id, double at);
  /// Node-failure requeue: charges the partial run as waste, less the
  /// `saved` seconds of it that completed checkpoints keep.
  void on_requeue(JobId id, double at, double saved = 0.0);
  void on_complete(JobId id, double at);

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
  JobRecord* record_for(JobId id);

  std::deque<JobRecord> records_;
  support::FlatMap64<std::uint32_t> index_;  ///< JobId -> records_ pos
};

}  // namespace polaris::rm
