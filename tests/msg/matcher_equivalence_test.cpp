// Randomized equivalence: the bucketed TagMatcher must make the exact
// decisions of the linear ReferenceTagMatcher under arbitrary interleavings
// of posts (with wildcard mixes), arrivals, cancels and probes.  MPI
// matching is a total function of the operation sequence — oldest matching
// posted receive per arrival, oldest matching unexpected message per post —
// so any divergence in match results, depths or stats is a bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "polaris/msg/reference_matcher.hpp"
#include "polaris/msg/tag_matcher.hpp"
#include "polaris/support/rng.hpp"

namespace polaris::msg {
namespace {

/// Cookie shaped like the simrt substrate's pooled handle.
struct SlotCookie {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
};

std::uint64_t cookie_key(int c) { return static_cast<std::uint64_t>(c); }
std::uint64_t cookie_key(const SlotCookie& c) {
  return (static_cast<std::uint64_t>(c.gen) << 32) | c.slot;
}

template <typename Cookie, typename MakeCookie>
void run_equivalence(std::uint64_t seed, int ops, MakeCookie make_cookie) {
  TagMatcher<Cookie> fast;
  ReferenceTagMatcher<Cookie> ref;
  support::SplitMix64 rng(seed);
  RecvId next_id = 1;
  std::vector<RecvId> open;  // ids posted in BOTH and not yet known matched

  const auto pick_src = [&](bool allow_wild) {
    if (allow_wild && rng.next() % 4 == 0) return kAnySource;
    return static_cast<int>(rng.next() % 5);
  };
  const auto pick_tag = [&](bool allow_wild) {
    if (allow_wild && rng.next() % 4 == 0) return kAnyTag;
    return static_cast<int>(rng.next() % 7);
  };

  for (int i = 0; i < ops; ++i) {
    switch (rng.next() % 8) {
      case 0:
      case 1:
      case 2: {  // post_recv
        const RecvId id = next_id++;
        const int src = pick_src(true);
        const int tag = pick_tag(true);
        auto f = fast.post_recv(id, src, tag);
        auto r = ref.post_recv(id, src, tag);
        ASSERT_EQ(f.has_value(), r.has_value()) << "op " << i;
        if (f) {
          EXPECT_EQ(f->src, r->src);
          EXPECT_EQ(f->tag, r->tag);
          EXPECT_EQ(f->bytes, r->bytes);
          EXPECT_EQ(cookie_key(f->cookie), cookie_key(r->cookie));
        } else {
          open.push_back(id);
        }
        break;
      }
      case 3:
      case 4:
      case 5: {  // arrive (no wildcards on messages)
        Envelope<Cookie> env;
        env.src = pick_src(false);
        env.tag = pick_tag(false);
        env.bytes = rng.next() % 4096;
        env.cookie = make_cookie(rng.next());
        Envelope<Cookie> env2 = env;
        auto f = fast.arrive(std::move(env));
        auto r = ref.arrive(std::move(env2));
        ASSERT_EQ(f.has_value(), r.has_value()) << "op " << i;
        if (f) {
          EXPECT_EQ(*f, *r) << "op " << i;
          EXPECT_EQ(cookie_key(fast.last_matched().cookie),
                    cookie_key(ref.last_matched().cookie));
          EXPECT_EQ(fast.last_matched().bytes, ref.last_matched().bytes);
          std::erase(open, *f);
        }
        break;
      }
      case 6: {  // cancel a random open id (may have matched already)
        if (open.empty()) break;
        const std::size_t at = rng.next() % open.size();
        const RecvId id = open[at];
        const bool f = fast.cancel_recv(id);
        const bool r = ref.cancel_recv(id);
        ASSERT_EQ(f, r) << "op " << i;
        if (f) open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      }
      default: {  // probe (wildcards allowed)
        const int src = pick_src(true);
        const int tag = pick_tag(true);
        const auto* f = fast.probe(src, tag);
        const auto* r = ref.probe(src, tag);
        ASSERT_EQ(f != nullptr, r != nullptr) << "op " << i;
        if (f) {
          EXPECT_EQ(f->src, r->src);
          EXPECT_EQ(f->tag, r->tag);
          EXPECT_EQ(f->bytes, r->bytes);
        }
        break;
      }
    }
    ASSERT_EQ(fast.posted_depth(), ref.posted_depth()) << "op " << i;
    ASSERT_EQ(fast.unexpected_depth(), ref.unexpected_depth()) << "op " << i;
  }

  const MatchStats& fs = fast.stats();
  const MatchStats& rs = ref.stats();
  EXPECT_EQ(fs.posted, rs.posted);
  EXPECT_EQ(fs.arrived, rs.arrived);
  EXPECT_EQ(fs.matched_posted, rs.matched_posted);
  EXPECT_EQ(fs.matched_unexpected, rs.matched_unexpected);
  EXPECT_EQ(fs.cancelled, rs.cancelled);
  EXPECT_EQ(fs.max_posted_depth, rs.max_posted_depth);
  EXPECT_EQ(fs.max_unexpected_depth, rs.max_unexpected_depth);
}

TEST(MatcherEquivalence, RandomTrafficIntCookie) {
  // Cookie shaped like the real runtime's (payload struct); several seeds.
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 0xDEADBEEFull}) {
    run_equivalence<int>(seed, 20'000, [](std::uint64_t r) {
      return static_cast<int>(r % 1000);
    });
  }
}

TEST(MatcherEquivalence, RandomTrafficSlotCookie) {
  // Cookie shaped like simrt's pooled slot+generation handle.
  for (std::uint64_t seed : {3ull, 11ull, 0xC0FFEEull}) {
    run_equivalence<SlotCookie>(seed, 20'000, [](std::uint64_t r) {
      return SlotCookie{static_cast<std::uint32_t>(r),
                        static_cast<std::uint32_t>(r >> 32)};
    });
  }
}

TEST(MatcherEquivalence, WildcardHeavyTraffic) {
  // A separate pass with wildcards dominating: every post uses kAnySource
  // and/or kAnyTag, the regime where the bucketed matcher must fall back to
  // cross-bucket sequence comparison on every arrival.
  TagMatcher<int> fast;
  ReferenceTagMatcher<int> ref;
  support::SplitMix64 rng(0xA11Au);
  RecvId next_id = 1;
  for (int i = 0; i < 30'000; ++i) {
    if (rng.next() % 2 == 0) {
      const int kind = static_cast<int>(rng.next() % 3);
      const int src = kind == 0 ? kAnySource
                                : static_cast<int>(rng.next() % 3);
      const int tag = kind != 2 ? kAnyTag
                                : static_cast<int>(rng.next() % 3);
      const RecvId id = next_id++;
      auto f = fast.post_recv(id, src, tag);
      auto r = ref.post_recv(id, src, tag);
      ASSERT_EQ(f.has_value(), r.has_value()) << i;
      if (f) {
        ASSERT_EQ(f->cookie, r->cookie) << i;
      }
    } else {
      Envelope<int> env{static_cast<int>(rng.next() % 3),
                        static_cast<int>(rng.next() % 3), 8,
                        static_cast<int>(i)};
      auto f = fast.arrive(env);
      auto r = ref.arrive(env);
      ASSERT_EQ(f.has_value(), r.has_value()) << i;
      if (f) {
        ASSERT_EQ(*f, *r) << i;
      }
    }
  }
  EXPECT_EQ(fast.posted_depth(), ref.posted_depth());
  EXPECT_EQ(fast.unexpected_depth(), ref.unexpected_depth());
}

TEST(MatcherEquivalence, PoolsReachSteadyState) {
  // Bounded live depth must bound the matcher's slabs: run a long
  // ping-pong-style alternation and require the pools to stop growing.
  TagMatcher<int> m;
  RecvId next_id = 1;
  for (int i = 0; i < 64; ++i) {
    m.arrive(Envelope<int>{i % 4, i % 3, 8, i});  // warm the pools
  }
  for (int i = 0; i < 64; ++i) m.post_recv(next_id++, kAnySource, kAnyTag);
  const std::size_t posted_cap = m.posted_pool_capacity();
  const std::size_t unexp_cap = m.unexpected_pool_capacity();
  for (int round = 0; round < 10'000; ++round) {
    m.arrive(Envelope<int>{round % 4, round % 3, 8, round});
    auto got = m.post_recv(next_id++, round % 4, round % 3);
    ASSERT_TRUE(got.has_value());
  }
  EXPECT_EQ(m.posted_pool_capacity(), posted_cap);
  EXPECT_EQ(m.unexpected_pool_capacity(), unexp_cap);
}

}  // namespace
}  // namespace polaris::msg
