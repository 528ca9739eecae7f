#include "polaris/msg/reg_cache.hpp"

#include <gtest/gtest.h>

#include "polaris/support/check.hpp"

namespace polaris::msg {
namespace {

constexpr std::size_t kPage = RegistrationCache::kPageSize;

TEST(RegCache, FirstAcquireMissesAndCharges) {
  RegistrationCache c(1 << 20, 10e-6, 1e-6);
  const double cost = c.acquire(0x10000, 2 * kPage);
  EXPECT_DOUBLE_EQ(cost, 10e-6 + 2e-6);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.pinned_bytes(), 2 * kPage);
}

TEST(RegCache, RepeatAcquireHitsForFree) {
  RegistrationCache c(1 << 20, 10e-6, 1e-6);
  c.acquire(0x10000, kPage);
  EXPECT_DOUBLE_EQ(c.acquire(0x10000, kPage), 0.0);
  EXPECT_EQ(c.stats().hits, 1u);
}

TEST(RegCache, SubrangeOfRegisteredRegionHits) {
  RegistrationCache c(1 << 20, 10e-6, 1e-6);
  c.acquire(0x10000, 8 * kPage);
  EXPECT_DOUBLE_EQ(c.acquire(0x10000 + kPage, kPage), 0.0);
  EXPECT_DOUBLE_EQ(c.acquire(0x10000 + 7 * kPage, 100), 0.0);
}

TEST(RegCache, PartialOverlapReRegistersUnion) {
  RegistrationCache c(1 << 20, 10e-6, 1e-6);
  c.acquire(0x10000, 4 * kPage);
  // Extends past the end: must miss and re-register.
  const double cost = c.acquire(0x10000 + 2 * kPage, 4 * kPage);
  EXPECT_GT(cost, 0.0);
  EXPECT_EQ(c.stats().misses, 2u);
  // The old overlapping region was dropped; pinned bytes reflect only the
  // new region.
  EXPECT_EQ(c.pinned_bytes(), 4 * kPage);
}

TEST(RegCache, SpansPagesByAddressNotLength) {
  RegistrationCache c(1 << 20, 0.0, 1e-6);
  // 2 bytes straddling a page boundary pin two pages.
  const double cost = c.acquire(2 * kPage - 1, 2);
  EXPECT_DOUBLE_EQ(cost, 2e-6);
  EXPECT_EQ(c.pinned_bytes(), 2 * kPage);
}

TEST(RegCache, LruEvictionUnderCapacity) {
  RegistrationCache c(4 * kPage, 10e-6, 1e-6);
  c.acquire(0 * 16 * kPage, kPage);
  c.acquire(1 * 16 * kPage, kPage);
  c.acquire(2 * 16 * kPage, kPage);
  c.acquire(3 * 16 * kPage, kPage);
  // Touch region 0 so region 1 is LRU.
  EXPECT_DOUBLE_EQ(c.acquire(0, kPage), 0.0);
  c.acquire(4 * 16 * kPage, kPage);  // evicts region 1
  EXPECT_TRUE(c.contains(0, kPage));
  EXPECT_FALSE(c.contains(16 * kPage, kPage));
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_LE(c.pinned_bytes(), 4 * kPage);
}

TEST(RegCache, ZeroLengthQueries) {
  RegistrationCache c(1 << 20, 10e-6, 1e-6);
  EXPECT_FALSE(c.contains(0x1000, 0));
  EXPECT_THROW((void)c.acquire(0x1000, 0), support::ContractViolation);
}

TEST(RegCache, AmortizationOverRepeatedUse) {
  // The point of the cache: N reuses of one buffer cost one registration.
  RegistrationCache c(1 << 24, 25e-6, 0.5e-6);
  double total = 0.0;
  for (int i = 0; i < 1000; ++i) total += c.acquire(0x100000, 64 * 1024);
  EXPECT_DOUBLE_EQ(total, 25e-6 + 0.5e-6 * 16);
  EXPECT_EQ(c.stats().hits, 999u);
}

TEST(RegCache, RejectsTinyCapacity) {
  EXPECT_THROW(RegistrationCache(100, 0.0, 0.0), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::msg
