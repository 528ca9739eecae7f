#include "polaris/support/slab_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace polaris::support {
namespace {

struct Record {
  int value = 0;
  std::uint32_t gen = 0;
};

TEST(SlabPool, ReusesReleasedSlotsLifoAndGrowsByNextIndex) {
  SlabPool<Record> pool;
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 1u);
  EXPECT_EQ(pool.acquire(), 2u);
  pool.release(0);
  pool.release(2);
  EXPECT_EQ(pool.acquire(), 2u);  // last released first
  EXPECT_EQ(pool.acquire(), 0u);
  EXPECT_EQ(pool.acquire(), 3u);  // no free slot: the next index
}

TEST(SlabPool, RecordsKeepAddressAndFieldsAcrossGrowth) {
  SlabPool<Record> pool;
  const std::uint32_t first = pool.acquire();
  Record* addr = &pool[first];
  addr->value = 42;
  // Growth across many deque blocks moves no record.
  std::vector<Record*> seen;
  for (int i = 0; i < 10'000; ++i) seen.push_back(&pool[pool.acquire()]);
  EXPECT_EQ(&pool[first], addr);
  EXPECT_EQ(pool[first].value, 42);
  for (std::uint32_t s = 1; s <= 10'000; ++s) {
    EXPECT_EQ(&pool[s], seen[s - 1]);
  }
  // Release and reuse leave the record's fields for the caller to reset.
  ++pool[first].gen;
  pool.release(first);
  EXPECT_EQ(pool.acquire(), first);
  EXPECT_EQ(pool[first].value, 42);
  EXPECT_EQ(pool[first].gen, 1u);
}

TEST(SlabPool, CountsCapacityAndInUse) {
  SlabPool<Record> pool;
  EXPECT_EQ(pool.capacity(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
  const std::uint32_t a = pool.acquire();
  const std::uint32_t b = pool.acquire();
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(a);
  EXPECT_EQ(pool.capacity(), 2u);
  EXPECT_EQ(pool.in_use(), 1u);
  pool.acquire();
  EXPECT_EQ(pool.capacity(), 2u);  // reused, not grown
  EXPECT_EQ(pool.in_use(), 2u);
  pool.release(b);
  pool.release(a);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(SlabPool, IteratesFreeAndLiveRecordsInSlotOrder) {
  SlabPool<Record> pool;
  for (int i = 0; i < 4; ++i) pool[pool.acquire()].value = i;
  pool.release(1);
  pool.release(3);
  std::vector<int> values;
  for (const Record& r : pool) values.push_back(r.value);
  EXPECT_EQ(values, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace polaris::support
