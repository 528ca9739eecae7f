// Slab pool of records addressed by 32-bit slot number.
//
// The simulated message path keeps its per-message records (fabric flights,
// packet walks and parked transfers; simrt in-flight messages, posted
// receives and requests; serve requests) in pools whose records never move:
// raw engine callbacks carry a record's address as their context, and
// coroutines hold references into a pool across awaits.  Storage is a
// std::deque, which grows without moving what it already holds.
//
// A released slot is reused last in, first out, and a pool with no free
// slot appends a default-constructed record at the next slot number, so
// slot numbers, and any scan over the pool, are a pure function of the
// acquire/release sequence.  The pool never resets a record: fields survive
// release and reuse, so callers reset what they need and may keep a
// generation counter in the record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace polaris::support {

template <typename T>
class SlabPool {
 public:
  /// A free slot: the most recently released one, else the next new one.
  std::uint32_t acquire() {
    if (free_.empty()) {
      records_.emplace_back();
      return static_cast<std::uint32_t>(records_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Returns an acquired slot; its record stays in place, fields intact.
  void release(std::uint32_t slot) { free_.push_back(slot); }

  T& operator[](std::uint32_t slot) { return records_[slot]; }

  /// Records ever created; a capacity that stops growing is a warm pool.
  std::size_t capacity() const { return records_.size(); }
  /// Slots acquired and not yet released.
  std::size_t in_use() const { return records_.size() - free_.size(); }

  /// Every record in slot order, free ones included.
  auto begin() { return records_.begin(); }
  auto end() { return records_.end(); }

 private:
  std::deque<T> records_;
  std::vector<std::uint32_t> free_;
};

}  // namespace polaris::support
