#include "polaris/rm/accounting.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "polaris/support/check.hpp"

namespace polaris::rm {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending:
      return "PENDING";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kCompleted:
      return "COMPLETED";
  }
  return "?";
}

JobRecord* AccountingStore::record_for(JobId id) {
  std::uint32_t* pos = index_.find(id);
  POLARIS_CHECK_MSG(pos != nullptr, "accounting: unknown job id");
  return &records_[*pos];
}

void AccountingStore::on_submit(const JobSpec& spec) {
  POLARIS_CHECK_MSG(index_.find(spec.id) == nullptr,
                    "accounting: duplicate job id");
  index_[spec.id] = static_cast<std::uint32_t>(records_.size());
  JobRecord r;
  r.id = spec.id;
  r.user = spec.user;
  r.account = spec.account;
  r.width = spec.width;
  r.submit = spec.submit;
  records_.push_back(r);
}

void AccountingStore::on_start(JobId id, double at) {
  JobRecord* r = record_for(id);
  r->start = at;
  r->state = JobState::kRunning;
}

void AccountingStore::on_requeue(JobId id, double at, double saved) {
  JobRecord* r = record_for(id);
  POLARIS_CHECK(r->state == JobState::kRunning && r->start >= 0.0);
  r->wasted_node_seconds += (at - r->start - saved) * r->width;
  r->start = -1.0;
  r->state = JobState::kPending;
  ++r->requeues;
}

void AccountingStore::on_complete(JobId id, double at) {
  JobRecord* r = record_for(id);
  POLARIS_CHECK(r->state == JobState::kRunning && r->start >= 0.0);
  r->finish = at;
  r->state = JobState::kCompleted;
}

std::vector<JobRecord> AccountingStore::query(const Query& q) const {
  std::vector<JobRecord> out;
  for (const JobRecord& r : records_) {
    if (q.user != kNilIndex && r.user != q.user) continue;
    if (q.account != kNilIndex && r.account != q.account) continue;
    if (q.filter_state && r.state != q.state) continue;
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  return out;
}

const JobRecord* AccountingStore::find(JobId id) const {
  const std::uint32_t* pos = index_.find(id);
  return pos ? &records_[*pos] : nullptr;
}

AccountingStore::Totals AccountingStore::totals() const {
  Totals t;
  for (const JobRecord& r : records_) {
    ++t.jobs;
    t.requeues += r.requeues;
    t.wasted_node_seconds += r.wasted_node_seconds;
    if (r.state == JobState::kCompleted) {
      ++t.completed;
      t.node_seconds += (r.finish - r.start) * r.width;
    }
  }
  return t;
}

void AccountingStore::dump(std::ostream& os) const {
  std::vector<const JobRecord*> sorted;
  sorted.reserve(records_.size());
  for (const JobRecord& r : records_) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->id < b->id; });
  os.precision(12);
  for (const JobRecord* r : sorted) {
    os << r->id << ' ' << r->user << ' ' << r->account << ' ' << r->width
       << ' ' << r->submit << ' ' << r->start << ' '
       << r->finish << ' ' << r->requeues << ' ' << r->wasted_node_seconds
       << ' ' << to_string(r->state) << '\n';
  }
}

std::string AccountingStore::dump() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

std::uint64_t AccountingStore::fingerprint() const {
  const std::string text = dump();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace polaris::rm
