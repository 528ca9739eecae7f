// AccountingStore: the sacct-alike ledger.
#include "polaris/rm/accounting.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "polaris/rm/types.hpp"

namespace polaris::rm {
namespace {

JobSpec spec(JobId id, UserId user, AccountId account, std::uint32_t width,
             double submit) {
  JobSpec s;
  s.id = id;
  s.user = user;
  s.account = account;
  s.width = width;
  s.submit = submit;
  return s;
}

TEST(AccountingTest, LifecycleStampsAndTotals) {
  AccountingStore acct;
  acct.on_submit(spec(1, /*user=*/2, /*account=*/3, /*width=*/4, 10.0));
  acct.on_start(1, 20.0);
  const JobRecord* rec = acct.find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kRunning);
  EXPECT_DOUBLE_EQ(rec->wait(), 10.0);
  acct.on_complete(1, 50.0);
  EXPECT_EQ(rec->state, JobState::kCompleted);
  EXPECT_DOUBLE_EQ(rec->finish, 50.0);

  const AccountingStore::Totals t = acct.totals();
  EXPECT_EQ(t.jobs, 1u);
  EXPECT_EQ(t.completed, 1u);
  EXPECT_EQ(t.requeues, 0u);
  EXPECT_DOUBLE_EQ(t.node_seconds, 120.0);  // 4 nodes x 30 s
  EXPECT_DOUBLE_EQ(t.wasted_node_seconds, 0.0);
  EXPECT_EQ(acct.find(99), nullptr);
}

TEST(AccountingTest, RequeueChargesPartialRunAsWaste) {
  AccountingStore acct;
  acct.on_submit(spec(1, 0, 0, 4, 0.0));
  acct.on_start(1, 0.0);
  acct.on_requeue(1, 30.0);
  const JobRecord* rec = acct.find(1);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kPending);
  EXPECT_EQ(rec->requeues, 1u);
  EXPECT_DOUBLE_EQ(rec->wasted_node_seconds, 120.0);
  EXPECT_DOUBLE_EQ(rec->start, -1.0);

  acct.on_start(1, 100.0);
  acct.on_complete(1, 150.0);
  const AccountingStore::Totals t = acct.totals();
  EXPECT_DOUBLE_EQ(t.node_seconds, 200.0);         // final run only
  EXPECT_DOUBLE_EQ(t.wasted_node_seconds, 120.0);  // aborted run
}

TEST(AccountingTest, QueriesFilterByUserAccountAndState) {
  AccountingStore acct;
  acct.on_submit(spec(3, /*user=*/0, /*account=*/0, 1, 0.0));
  acct.on_submit(spec(1, /*user=*/0, /*account=*/1, 1, 1.0));
  acct.on_submit(spec(2, /*user=*/1, /*account=*/1, 1, 2.0));
  acct.on_start(1, 5.0);
  acct.on_complete(1, 6.0);
  acct.on_start(2, 5.0);

  EXPECT_EQ(acct.query({}).size(), 3u);
  // Sorted by id regardless of submission order.
  EXPECT_EQ(acct.query({})[0].id, 1u);
  EXPECT_EQ(acct.query({})[2].id, 3u);

  AccountingStore::Query by_user;
  by_user.user = 0;
  EXPECT_EQ(acct.query(by_user).size(), 2u);

  AccountingStore::Query by_account;
  by_account.account = 1;
  EXPECT_EQ(acct.query(by_account).size(), 2u);

  AccountingStore::Query done;
  done.filter_state = true;
  done.state = JobState::kCompleted;
  const auto completed = acct.query(done);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].id, 1u);

  AccountingStore::Query both;
  both.user = 1;
  both.filter_state = true;
  both.state = JobState::kRunning;
  EXPECT_EQ(acct.query(both).size(), 1u);
}

TEST(AccountingTest, FingerprintIsDeterministicAndSensitive) {
  auto build = [](double finish) {
    AccountingStore acct;
    acct.on_submit(spec(1, 2, 3, 4, 0.0));
    acct.on_start(1, 10.0);
    acct.on_complete(1, finish);
    acct.on_submit(spec(2, 0, 0, 1, 5.0));
    return acct;
  };
  const AccountingStore a = build(100.0);
  const AccountingStore b = build(100.0);
  const AccountingStore c = build(101.0);
  EXPECT_EQ(a.dump(), b.dump());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_NE(a.dump().find("COMPLETED"), std::string::npos);
  EXPECT_NE(a.dump().find("PENDING"), std::string::npos);
}

}  // namespace
}  // namespace polaris::rm
