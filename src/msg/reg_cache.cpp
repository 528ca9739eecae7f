#include "polaris/msg/reg_cache.hpp"

#include "polaris/support/check.hpp"

namespace polaris::msg {

RegistrationCache::RegistrationCache(std::size_t capacity_bytes,
                                     double base_cost, double per_page_cost)
    : capacity_bytes_(capacity_bytes),
      base_cost_(base_cost),
      per_page_cost_(per_page_cost) {
  POLARIS_CHECK(capacity_bytes >= kPageSize);
}

const RegistrationCache::Region* RegistrationCache::covering(
    std::uintptr_t first_page, std::uintptr_t last_page) const {
  // Regions never overlap (invalidate-on-register keeps them disjoint), so
  // scan is bounded by region count; registration caches are small.
  for (const auto& [key, region] : regions_) {
    if (region.first_page <= first_page && last_page <= region.last_page) {
      return &region;
    }
  }
  return nullptr;
}

double RegistrationCache::acquire(std::uintptr_t addr, std::size_t len) {
  POLARIS_CHECK(len > 0);
  const std::uintptr_t first = page_of(addr);
  const std::uintptr_t last = page_of(addr + len - 1);

  if (const Region* r = covering(first, last)) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, r->lru_it);
    return 0.0;
  }
  ++stats_.misses;

  // Remove partial overlaps: the new region re-registers the union range.
  invalidate_overlaps_only(first, last);

  const std::size_t pages = last - first + 1;
  const std::size_t bytes = pages * kPageSize;
  while (pinned_bytes_ + bytes > capacity_bytes_ && !regions_.empty()) {
    evict_lru();
  }

  lru_.push_front(first);
  regions_.emplace(first, Region{first, last, lru_.begin()});
  pinned_bytes_ += bytes;
  stats_.bytes_registered = pinned_bytes_;
  return base_cost_ + per_page_cost_ * static_cast<double>(pages);
}

void RegistrationCache::invalidate_overlaps_only(std::uintptr_t first_page,
                                                 std::uintptr_t last_page) {
  for (auto it = regions_.begin(); it != regions_.end();) {
    const Region& r = it->second;
    const bool overlaps =
        !(r.last_page < first_page || last_page < r.first_page);
    if (overlaps) {
      pinned_bytes_ -= (r.last_page - r.first_page + 1) * kPageSize;
      lru_.erase(r.lru_it);
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.bytes_registered = pinned_bytes_;
}

bool RegistrationCache::contains(std::uintptr_t addr, std::size_t len) const {
  if (len == 0) return false;
  return covering(page_of(addr), page_of(addr + len - 1)) != nullptr;
}

void RegistrationCache::evict_lru() {
  POLARIS_CHECK(!lru_.empty());
  const std::uintptr_t key = lru_.back();
  lru_.pop_back();
  const auto it = regions_.find(key);
  POLARIS_CHECK(it != regions_.end());
  pinned_bytes_ -=
      (it->second.last_page - it->second.first_page + 1) * kPageSize;
  regions_.erase(it);
  ++stats_.evictions;
  stats_.bytes_registered = pinned_bytes_;
}

}  // namespace polaris::msg
