// Memory-registration (pin-down) cache.
//
// User-level NICs with DMA engines (Myrinet GM, InfiniBand verbs) require
// buffers to be registered — pinned and translated — before the NIC may
// touch them.  Registration costs tens of microseconds, so production
// messaging layers cache registrations keyed by page range and evict
// lazily.  This class implements that cache with byte-capacity LRU
// eviction and reports the time cost of each lookup from the fabric's
// (reg_base, reg_per_page) model, so both the simulated runtime (as a time
// charge) and benchmarks (as an ablation) can use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace polaris::msg {

struct RegCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_registered = 0;  ///< currently pinned
};

class RegistrationCache {
 public:
  static constexpr std::size_t kPageSize = 4096;

  /// `capacity_bytes`: maximum pinned bytes before LRU eviction.
  /// `base_cost`/`per_page_cost`: seconds charged on a miss.
  RegistrationCache(std::size_t capacity_bytes, double base_cost,
                    double per_page_cost);

  /// Registers [addr, addr+len).  Returns the time cost in seconds: zero if
  /// the containing page range is already registered, base + pages*per_page
  /// otherwise (partial overlaps re-register the whole range: conservative,
  /// matching pin-down-cache practice).
  double acquire(std::uintptr_t addr, std::size_t len);

  bool contains(std::uintptr_t addr, std::size_t len) const;
  std::size_t pinned_bytes() const { return pinned_bytes_; }
  const RegCacheStats& stats() const { return stats_; }

 private:
  struct Region {
    std::uintptr_t first_page;
    std::uintptr_t last_page;  // inclusive
    std::list<std::uintptr_t>::iterator lru_it;
  };

  static std::uintptr_t page_of(std::uintptr_t addr) {
    return addr / kPageSize;
  }

  /// The registered region covering [first, last] pages, if any.
  const Region* covering(std::uintptr_t first_page,
                         std::uintptr_t last_page) const;
  void invalidate_overlaps_only(std::uintptr_t first_page,
                                std::uintptr_t last_page);
  void evict_lru();

  std::size_t capacity_bytes_;
  double base_cost_;
  double per_page_cost_;
  std::size_t pinned_bytes_ = 0;

  // Keyed by first page of the registered region.
  std::unordered_map<std::uintptr_t, Region> regions_;
  std::list<std::uintptr_t> lru_;  // front = most recent, holds first_page
  RegCacheStats stats_;
};

}  // namespace polaris::msg
