#include "polaris/rt/runtime.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

namespace polaris::rt {
namespace {

std::span<const std::byte> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

TEST(ShmWorld, PingPongDeliversPayload) {
  ShmWorld world(2);
  std::string got;
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      const std::string msg = "hello from rank 0";
      c.send(1, 7, bytes_of(msg));
    } else {
      std::vector<std::byte> buf(64);
      const RecvStatus st = c.recv(0, 7, buf);
      EXPECT_EQ(st.src, 0);
      EXPECT_EQ(st.tag, 7);
      got.assign(reinterpret_cast<const char*>(buf.data()), st.bytes);
    }
  });
  EXPECT_EQ(got, "hello from rank 0");
}

TEST(ShmWorld, RendezvousPathForLargeMessages) {
  ShmOptions opts;
  opts.eager_threshold = 256;
  ShmWorld world(2, opts);
  const std::size_t n = 1 << 20;
  std::vector<std::byte> received(n);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<std::byte> data(n);
      for (std::size_t i = 0; i < n; ++i) data[i] = std::byte(i & 0xff);
      c.send(1, 0, data);
      EXPECT_EQ(c.rendezvous_sends(), 1u);
      EXPECT_EQ(c.eager_sends(), 0u);
    } else {
      c.recv(0, 0, received);
    }
  });
  for (std::size_t i = 0; i < n; i += 4097) {
    ASSERT_EQ(received[i], std::byte(i & 0xff)) << i;
  }
}

TEST(ShmWorld, EagerPathForSmallMessages) {
  ShmWorld world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      const std::string msg = "small";
      c.send(1, 0, bytes_of(msg));
      EXPECT_EQ(c.eager_sends(), 1u);
      EXPECT_EQ(c.rendezvous_sends(), 0u);
    } else {
      std::vector<std::byte> buf(16);
      c.recv(0, 0, buf);
    }
  });
}

TEST(ShmWorld, UnexpectedMessagesQueueUntilRecv) {
  ShmWorld world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        c.send(1, i, {reinterpret_cast<const std::byte*>(&i), sizeof(i)});
      }
    } else {
      // Post receives in reverse tag order: all arrivals are unexpected
      // for a while; matching must still be by tag.
      for (int want = 9; want >= 0; --want) {
        int v = -1;
        c.recv(0, want, {reinterpret_cast<std::byte*>(&v), sizeof(v)});
        EXPECT_EQ(v, want);
      }
      EXPECT_GT(c.match_stats().matched_unexpected, 0u);
    }
  });
}

TEST(ShmWorld, WildcardRecvGetsAnySource) {
  ShmWorld world(4);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      int sum = 0;
      for (int i = 1; i < 4; ++i) {
        int v = 0;
        const auto st = c.recv(msg::kAnySource, 5,
                               {reinterpret_cast<std::byte*>(&v), sizeof(v)});
        EXPECT_GE(st.src, 1);
        sum += v;
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      const int v = c.rank();
      c.send(0, 5, {reinterpret_cast<const std::byte*>(&v), sizeof(v)});
    }
  });
}

TEST(ShmWorld, SelfSendWorks) {
  ShmWorld world(1);
  world.run([&](Communicator& c) {
    const std::string msg = "loopback";
    c.send(0, 3, bytes_of(msg));
    std::vector<std::byte> buf(32);
    const auto st = c.recv(0, 3, buf);
    EXPECT_EQ(st.bytes, msg.size());
  });
}

TEST(ShmWorld, NonOvertakingSameTagSameSource) {
  ShmWorld world(2);
  world.run([&](Communicator& c) {
    constexpr int kN = 1000;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        c.send(1, 0, {reinterpret_cast<const std::byte*>(&i), sizeof(i)});
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        c.recv(0, 0, {reinterpret_cast<std::byte*>(&v), sizeof(v)});
        ASSERT_EQ(v, i);
      }
    }
  });
}

TEST(ShmWorld, IrecvTestEventuallyCompletes) {
  ShmWorld world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      int v = 42;
      c.send(1, 0, {reinterpret_cast<const std::byte*>(&v), sizeof(v)});
    } else {
      int v = 0;
      Request r = c.irecv(0, 0, {reinterpret_cast<std::byte*>(&v), sizeof(v)});
      EXPECT_TRUE(r.valid());
      const auto st = c.wait(r);
      EXPECT_FALSE(r.valid());
      EXPECT_EQ(st.bytes, sizeof(int));
      EXPECT_EQ(v, 42);
    }
  });
}

TEST(ShmWorld, ExceptionInOneRankPropagatesAndUnblocksOthers) {
  ShmWorld world(2);
  EXPECT_THROW(world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      throw std::logic_error("rank 0 exploded");
    } else {
      std::vector<std::byte> buf(8);
      c.recv(0, 0, buf);  // would block forever without abort propagation
    }
  }),
               std::exception);
}

TEST(ShmWorld, ManyRanksRandomizedExchange) {
  constexpr int kRanks = 6;
  ShmWorld world(kRanks);
  std::array<std::array<int, kRanks>, kRanks> received{};
  world.run([&](Communicator& c) {
    // Everyone sends rank*100+dst to every other rank, then receives.
    for (int d = 0; d < kRanks; ++d) {
      if (d == c.rank()) continue;
      const int v = c.rank() * 100 + d;
      c.send(d, 9, {reinterpret_cast<const std::byte*>(&v), sizeof(v)});
    }
    for (int s = 0; s < kRanks - 1; ++s) {
      int v = -1;
      const auto st = c.recv(msg::kAnySource, 9,
                             {reinterpret_cast<std::byte*>(&v), sizeof(v)});
      received[c.rank()][st.src] = v;
    }
  });
  for (int r = 0; r < kRanks; ++r) {
    for (int s = 0; s < kRanks; ++s) {
      if (r == s) continue;
      EXPECT_EQ(received[r][s], s * 100 + r);
    }
  }
}

TEST(ShmWorld, WildcardStressInterleavedTagsAndSources) {
  // Drives the bucketed matcher hard on the real runtime: a sink rank mixes
  // exact, any-source, any-tag and fully wildcard receives against a flood
  // of interleaved tags from several senders.  Per-(source,tag) payload
  // order must be preserved (MPI non-overtaking) no matter which receive
  // shape consumed each message.
  constexpr int kRanks = 4;
  constexpr int kPerTag = 50;
  constexpr int kTags = 3;
  ShmWorld world(kRanks);
  // remaining[src][tag]: messages of that stream not yet received.  The
  // sink aims each receive shape at the fullest stream, so every posted
  // receive is guaranteed a matching message no matter what earlier
  // wildcards consumed (no stranding, hence no deadlock by construction).
  std::array<std::array<int, kTags>, kRanks> remaining{};
  world.run([&](Communicator& c) {
    if (c.rank() != 0) {
      for (int i = 0; i < kPerTag; ++i) {
        for (int tag = 0; tag < kTags; ++tag) {
          const int v = i;
          c.send(0, tag, {reinterpret_cast<const std::byte*>(&v),
                          sizeof(v)});
        }
      }
      return;
    }
    for (auto& per_src : remaining) per_src.fill(kPerTag);
    remaining[0].fill(0);  // the sink sends nothing to itself
    const int total = (kRanks - 1) * kTags * kPerTag;
    for (int n = 0; n < total; ++n) {
      int bs = 1, bt = 0;
      for (int s = 1; s < kRanks; ++s) {
        for (int t = 0; t < kTags; ++t) {
          if (remaining[s][t] > remaining[bs][bt]) {
            bs = s;
            bt = t;
          }
        }
      }
      int src = bs, tag = bt;
      switch (n % 4) {
        case 0: break;                       // exact
        case 1: src = msg::kAnySource; break;
        case 2: tag = msg::kAnyTag; break;
        default:                             // fully wildcard
          src = msg::kAnySource;
          tag = msg::kAnyTag;
          break;
      }
      int v = -1;
      const auto st =
          c.recv(src, tag, {reinterpret_cast<std::byte*>(&v), sizeof(v)});
      ASSERT_GE(st.src, 1);
      ASSERT_LT(st.src, kRanks);
      ASSERT_GE(st.tag, 0);
      ASSERT_LT(st.tag, kTags);
      // MPI non-overtaking: payloads of one stream arrive in send order.
      ASSERT_EQ(v, kPerTag - remaining[st.src][st.tag])
          << "src " << st.src << " tag " << st.tag;
      --remaining[st.src][st.tag];
    }
    // Every receive matched exactly one message, through one path or the
    // other (which path depends on thread timing).
    EXPECT_EQ(c.match_stats().matched_posted +
                  c.match_stats().matched_unexpected,
              static_cast<std::uint64_t>(total));
  });
  for (int s = 1; s < kRanks; ++s) {
    for (int t = 0; t < kTags; ++t) {
      EXPECT_EQ(remaining[s][t], 0);
    }
  }
}

TEST(ShmWorld, RingBackpressureDoesNotDeadlock) {
  ShmOptions opts;
  opts.ring_capacity = 4;  // tiny rings force backpressure
  ShmWorld world(2, opts);
  world.run([&](Communicator& c) {
    constexpr int kN = 500;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        c.send(1, 0, {reinterpret_cast<const std::byte*>(&i), sizeof(i)});
      }
      // And receive the reverse flood.
      for (int i = 0; i < kN; ++i) {
        int v;
        c.recv(1, 1, {reinterpret_cast<std::byte*>(&v), sizeof(v)});
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        c.send(0, 1, {reinterpret_cast<const std::byte*>(&i), sizeof(i)});
      }
      for (int i = 0; i < kN; ++i) {
        int v;
        c.recv(0, 0, {reinterpret_cast<std::byte*>(&v), sizeof(v)});
      }
    }
  });
}

}  // namespace
}  // namespace polaris::rt
