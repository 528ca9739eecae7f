// Two-sided tagged-message matching engine.
//
// This is the heart of a user-level messaging layer: arriving messages are
// matched against posted receives by (source, tag) with MPI semantics —
// receives may wildcard either field; an arriving message matches the
// OLDEST matching posted receive; a newly posted receive matches the
// OLDEST matching unexpected message.  The engine is substrate-neutral: the
// simulated runtime and the real threaded runtime both instantiate it (the
// latter under its endpoint lock), parameterized on a per-message cookie.
//
// Implementation: hash-bucketed queues instead of linear deque scans.  A
// posted receive's wildcard pattern partitions the posted set four ways —
// exact (src,tag), (ANY,tag), (src,ANY), (ANY,ANY) — and each receive sits
// in exactly one FIFO bucket keyed by its own packed (src,tag) pair
// (wildcards encoded as 0xffffffff halves, which no concrete message can
// carry).  An arrival therefore has at most FOUR candidate buckets, and
// because every bucket is FIFO the oldest matching receive overall is one
// of the four bucket heads: each receive carries a monotonic global
// sequence number, and comparing the (at most four) head sequence numbers
// picks the globally oldest match in O(1).  Unexpected messages are the
// mirror image: each message threads through four doubly-linked lists —
// one per receive pattern that could claim it — so a new receive of ANY
// pattern finds its oldest matching message at the head of the single list
// keyed by the receive's own (src,tag).  All nodes live in slab pools with
// free lists; eager O(1) unlinking on consume/cancel means lists hold only
// live entries and steady-state traffic never allocates.  cancel_recv is
// O(1) via a RecvId -> slot index.
//
// The original linear-scan implementation survives verbatim as the test
// oracle msg::ReferenceTagMatcher (tests/oracles, linked by the tests and
// bench_d3_msg); a randomized equivalence suite proves decision-identical
// behaviour.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "polaris/support/check.hpp"
#include "polaris/support/flat_map.hpp"

namespace polaris::msg {

/// Wildcards for posted receives.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

using RecvId = std::uint64_t;

/// Metadata describing an arriving message.  Cookie carries whatever the
/// substrate needs to complete delivery (an in-flight simulation record, a
/// staged buffer pointer, ...).
template <typename Cookie>
struct Envelope {
  int src = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  Cookie cookie{};
};

/// Match outcome statistics, exposed for tests and instrumentation.
struct MatchStats {
  std::uint64_t posted = 0;
  std::uint64_t arrived = 0;
  std::uint64_t matched_posted = 0;      ///< arrivals that found a receive
  std::uint64_t matched_unexpected = 0;  ///< receives that found an arrival
  std::uint64_t cancelled = 0;
  std::size_t max_unexpected_depth = 0;
  std::size_t max_posted_depth = 0;
};

template <typename Cookie>
class TagMatcher {
 public:
  using EnvelopeT = Envelope<Cookie>;

  /// Posts a receive for (src, tag); src/tag may be wildcards.
  /// If an unexpected message already matches, returns its envelope and the
  /// receive completes immediately; otherwise the receive is queued under
  /// `id` and std::nullopt is returned.  `id` must be unique among queued
  /// receives.
  std::optional<EnvelopeT> post_recv(RecvId id, int src, int tag) {
    ++stats_.posted;
    // Every unexpected message matching this receive pattern is threaded,
    // in arrival order, through the one list keyed by the pattern itself —
    // its head IS the oldest match.
    if (const Bucket* b = unexp_buckets_.find(pack(src, tag));
        b && b->head != kNil) {
      const std::uint32_t slot = b->head;
      EnvelopeT env = std::move(unexp_nodes_[slot].env);
      unlink_unexpected(slot);
      --unexpected_live_;
      ++stats_.matched_unexpected;
      return env;
    }
    const std::uint32_t slot = acquire_posted();
    PostedNode& n = posted_nodes_[slot];
    n.id = id;
    n.src = src;
    n.tag = tag;
    n.seq = next_seq_++;
    append_posted(slot);
    posted_index_[id] = slot;
    ++posted_live_;
    stats_.max_posted_depth = std::max(stats_.max_posted_depth, posted_live_);
    return std::nullopt;
  }

  /// Delivers an arriving message.  If a posted receive matches, returns
  /// its RecvId (the receive completes); otherwise the envelope joins the
  /// unexpected queue and std::nullopt is returned.
  std::optional<RecvId> arrive(EnvelopeT env) {
    ++stats_.arrived;
    POLARIS_DCHECK(env.src != kAnySource && env.tag != kAnyTag);
    // The four receive patterns that accept (src, tag).  Buckets are FIFO,
    // so the globally oldest matching receive is the bucket head with the
    // smallest global sequence number.
    const std::uint64_t keys[4] = {
        pack(env.src, env.tag), pack(kAnySource, env.tag),
        pack(env.src, kAnyTag), pack(kAnySource, kAnyTag)};
    std::uint32_t best = kNil;
    std::uint64_t best_seq = ~std::uint64_t{0};
    for (const std::uint64_t k : keys) {
      if (const Bucket* b = posted_buckets_.find(k); b && b->head != kNil) {
        if (posted_nodes_[b->head].seq < best_seq) {
          best_seq = posted_nodes_[b->head].seq;
          best = b->head;
        }
      }
    }
    if (best != kNil) {
      const RecvId id = posted_nodes_[best].id;
      unlink_posted(best);
      posted_index_.erase(id);
      --posted_live_;
      ++stats_.matched_posted;
      matched_envelope_ = std::move(env);
      return id;
    }
    const std::uint32_t slot = acquire_unexpected();
    unexp_nodes_[slot].env = std::move(env);
    for (int cat = 0; cat < 4; ++cat) append_unexpected(slot, cat);
    ++unexpected_live_;
    stats_.max_unexpected_depth =
        std::max(stats_.max_unexpected_depth, unexpected_live_);
    return std::nullopt;
  }

  /// The envelope consumed by the most recent successful arrive() match.
  /// Valid until the next arrive().
  const EnvelopeT& last_matched() const { return matched_envelope_; }

  /// Removes a queued posted receive; false if it already matched.  O(1).
  bool cancel_recv(RecvId id) {
    const std::uint32_t* slot = posted_index_.find(id);
    if (!slot) return false;
    unlink_posted(*slot);
    posted_index_.erase(id);
    --posted_live_;
    ++stats_.cancelled;
    return true;
  }

  /// Non-destructive probe: the oldest unexpected message matching
  /// (src, tag), or nullptr.  The view is valid until the next mutation.
  const EnvelopeT* probe(int src, int tag) const {
    const Bucket* b = unexp_buckets_.find(pack(src, tag));
    if (!b || b->head == kNil) return nullptr;
    return &unexp_nodes_[b->head].env;
  }

  std::size_t posted_depth() const { return posted_live_; }
  std::size_t unexpected_depth() const { return unexpected_live_; }
  const MatchStats& stats() const { return stats_; }

  // -- allocation observability ----------------------------------------------
  // Slab + bucket capacities: a workload whose capacities do not grow
  // between two samples performed zero matcher allocations in between.
  std::size_t posted_pool_capacity() const { return posted_nodes_.size(); }
  std::size_t unexpected_pool_capacity() const { return unexp_nodes_.size(); }
  std::size_t bucket_capacity() const {
    return posted_buckets_.bucket_capacity() +
           unexp_buckets_.bucket_capacity() +
           posted_index_.bucket_capacity();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffff'ffffu;

  /// Packs a (src, tag) pair — wildcards included — into one map key.
  /// Concrete fields are non-negative, so the 0xffffffff halves produced by
  /// kAnySource/kAnyTag collide with no concrete pair.
  static std::uint64_t pack(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Which of the four pattern lists a receive (rs, rt) reads — and, on
  /// the unexpected side, the link index a message uses in the list for
  /// that pattern.
  static int category(int rs, int rt) {
    return rs == kAnySource ? (rt == kAnyTag ? 3 : 1)
                            : (rt == kAnyTag ? 2 : 0);
  }

  /// The key of the pattern-`cat` list that would claim message `env`.
  static std::uint64_t unexp_key(int src, int tag, int cat) {
    switch (cat) {
      case 0: return pack(src, tag);
      case 1: return pack(kAnySource, tag);
      case 2: return pack(src, kAnyTag);
      default: return pack(kAnySource, kAnyTag);
    }
  }

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  struct PostedNode {
    RecvId id = 0;
    int src = 0;
    int tag = 0;
    std::uint64_t seq = 0;  ///< global post order, compared across buckets
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  struct UnexpNode {
    EnvelopeT env{};
    std::uint32_t prev[4] = {kNil, kNil, kNil, kNil};
    std::uint32_t next[4] = {kNil, kNil, kNil, kNil};
  };

  std::uint32_t acquire_posted() {
    if (!posted_free_.empty()) {
      const std::uint32_t slot = posted_free_.back();
      posted_free_.pop_back();
      return slot;
    }
    posted_nodes_.emplace_back();
    return static_cast<std::uint32_t>(posted_nodes_.size() - 1);
  }

  std::uint32_t acquire_unexpected() {
    if (!unexp_free_.empty()) {
      const std::uint32_t slot = unexp_free_.back();
      unexp_free_.pop_back();
      return slot;
    }
    unexp_nodes_.emplace_back();
    return static_cast<std::uint32_t>(unexp_nodes_.size() - 1);
  }

  void append_posted(std::uint32_t slot) {
    PostedNode& n = posted_nodes_[slot];
    Bucket& b = posted_buckets_[pack(n.src, n.tag)];
    n.prev = b.tail;
    n.next = kNil;
    if (b.tail != kNil) {
      posted_nodes_[b.tail].next = slot;
    } else {
      b.head = slot;
    }
    b.tail = slot;
  }

  void unlink_posted(std::uint32_t slot) {
    PostedNode& n = posted_nodes_[slot];
    const std::uint64_t key = pack(n.src, n.tag);
    Bucket* b = posted_buckets_.find(key);
    POLARIS_DCHECK(b != nullptr);
    if (n.prev != kNil) {
      posted_nodes_[n.prev].next = n.next;
    } else {
      b->head = n.next;
    }
    if (n.next != kNil) {
      posted_nodes_[n.next].prev = n.prev;
    } else {
      b->tail = n.prev;
    }
    if (b->head == kNil) posted_buckets_.erase(key);  // keep the map dense
    posted_free_.push_back(slot);
  }

  void append_unexpected(std::uint32_t slot, int cat) {
    UnexpNode& n = unexp_nodes_[slot];
    Bucket& b = unexp_buckets_[unexp_key(n.env.src, n.env.tag, cat)];
    n.prev[cat] = b.tail;
    n.next[cat] = kNil;
    if (b.tail != kNil) {
      unexp_nodes_[b.tail].next[cat] = slot;
    } else {
      b.head = slot;
    }
    b.tail = slot;
  }

  /// Unthreads a consumed message from all four pattern lists; O(1) per
  /// list because links are doubly linked.
  void unlink_unexpected(std::uint32_t slot) {
    UnexpNode& n = unexp_nodes_[slot];
    for (int cat = 0; cat < 4; ++cat) {
      const std::uint64_t key = unexp_key(n.env.src, n.env.tag, cat);
      Bucket* b = unexp_buckets_.find(key);
      POLARIS_DCHECK(b != nullptr);
      if (n.prev[cat] != kNil) {
        unexp_nodes_[n.prev[cat]].next[cat] = n.next[cat];
      } else {
        b->head = n.next[cat];
      }
      if (n.next[cat] != kNil) {
        unexp_nodes_[n.next[cat]].prev[cat] = n.prev[cat];
      } else {
        b->tail = n.prev[cat];
      }
      if (b->head == kNil) unexp_buckets_.erase(key);
    }
    unexp_free_.push_back(slot);
  }

  // Posted receives: one FIFO bucket per pattern key; RecvId -> slot index
  // for O(1) cancellation.
  support::FlatMap64<Bucket> posted_buckets_;
  support::FlatMap64<std::uint32_t> posted_index_;
  std::vector<PostedNode> posted_nodes_;
  std::vector<std::uint32_t> posted_free_;

  // Unexpected messages: each node threads through the four pattern lists
  // that could claim it.
  support::FlatMap64<Bucket> unexp_buckets_;
  std::vector<UnexpNode> unexp_nodes_;
  std::vector<std::uint32_t> unexp_free_;

  std::uint64_t next_seq_ = 0;
  std::size_t posted_live_ = 0;
  std::size_t unexpected_live_ = 0;
  EnvelopeT matched_envelope_{};
  MatchStats stats_;
};

}  // namespace polaris::msg
