// Pins every barrier, broadcast and allreduce schedule the generators emit,
// and the algorithm selection on every fabric preset, to constants recorded
// from the generators as F4, F9, simrt and the campaigns run them.  A
// generator or cost-model edit that changes a single step of a single
// schedule, or flips a single selection, fails here, not only where an
// experiment happens to print it.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "polaris/coll/algorithms.hpp"
#include "polaris/coll/cost.hpp"
#include "polaris/fabric/loggp.hpp"
#include "polaris/fabric/params.hpp"

namespace polaris::coll {
namespace {

// The correctness sweep's rank and element counts, plus 64 Ki elements:
// the ring broadcast cuts a count into count / 1024 segments (1 to 32), so
// only a count of at least 32 Ki pins its full segmentation, which F4's
// 64 KiB broadcasts use.
constexpr std::size_t kRankSet[] = {1, 2, 3, 4, 5, 8, 13, 16, 32};
constexpr std::size_t kCountSet[] = {1, 3, 64, 1000, 65536};

/// 64-bit FNV-1a over the integers and strings fed to it.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void fold(Fnv1a& h, const Schedule& s) {
  h.add(s.name);
  h.add(s.ranks);
  h.add(s.total_count);
  for (const auto& steps : s.per_rank) {
    h.add(steps.size());
    for (const CommStep& c : steps) {
      h.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.send_peer)));
      h.add(c.send_offset);
      h.add(c.send_count);
      h.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.recv_peer)));
      h.add(c.recv_offset);
      h.add(c.recv_count);
      h.add(c.recv_reduce ? 1 : 0);
    }
  }
}

bool valid_at(Collective kind, Algorithm a, std::size_t ranks) {
  for (Algorithm v : algorithms_for(kind, ranks)) {
    if (v == a) return true;
  }
  return false;
}

/// Folds every schedule of (kind, a) over the sweep's ranks and counts;
/// broadcasts from roots 0 and p-1, barriers once per rank count.
std::uint64_t family_hash(Collective kind, Algorithm a) {
  Fnv1a h;
  for (std::size_t p : kRankSet) {
    if (!valid_at(kind, a, p)) continue;
    if (kind == Collective::kBarrier) {
      fold(h, barrier(p, a));
      continue;
    }
    for (std::size_t n : kCountSet) {
      if (kind == Collective::kBroadcast) {
        for (int root : {0, static_cast<int>(p) - 1}) {
          fold(h, broadcast(p, n, root, a));
        }
      } else {
        fold(h, allreduce(p, n, a));
      }
    }
  }
  return h.value();
}

struct Pin {
  Collective kind;
  Algorithm algo;
  std::uint64_t hash;
};

const Pin kPins[] = {
    {Collective::kBarrier, Algorithm::kDissemination,
     0x3842f86e78416f74ULL},
    {Collective::kBarrier, Algorithm::kLinear,
     0x7f84fa0f52622036ULL},
    {Collective::kBroadcast, Algorithm::kLinear,
     0x0e7f7af375795ef3ULL},
    {Collective::kBroadcast, Algorithm::kBinomial,
     0xc5ec584b2e8a1e20ULL},
    {Collective::kBroadcast, Algorithm::kRing,
     0x3061a99c3762e5d5ULL},
    {Collective::kAllreduce, Algorithm::kBinomial,
     0x1909555f3c48946fULL},
    {Collective::kAllreduce, Algorithm::kRing,
     0x76919d6c6704ab35ULL},
    {Collective::kAllreduce, Algorithm::kRecursiveDoubling,
     0x7739b4a025eb89daULL},
    {Collective::kAllreduce, Algorithm::kRabenseifner,
     0xa82ed0f8fd2b439eULL},
};

std::string pin_name(const ::testing::TestParamInfo<Pin>& info) {
  std::string name = std::string(to_string(info.param.kind)) + "_" +
                     to_string(info.param.algo);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << to_string(pin.kind) << "/" << to_string(pin.algo);
}

class SchedulePin : public ::testing::TestWithParam<Pin> {};

TEST_P(SchedulePin, EveryScheduleMatchesItsRecordedHash) {
  const Pin pin = GetParam();
  const std::uint64_t got = family_hash(pin.kind, pin.algo);
  EXPECT_EQ(got, pin.hash) << std::hex << "0x" << got;
}

INSTANTIATE_TEST_SUITE_P(Experiments, SchedulePin, ::testing::ValuesIn(kPins),
                         pin_name);

/// One letter per selected algorithm.
char letter(Algorithm a) {
  switch (a) {
    case Algorithm::kLinear:
      return 'L';
    case Algorithm::kBinomial:
      return 'B';
    case Algorithm::kRecursiveDoubling:
      return 'D';
    case Algorithm::kRing:
      return 'R';
    case Algorithm::kRabenseifner:
      return 'S';
    default:
      return '?';
  }
}

/// The selections for `kind` on `fabric`: one group of four letters
/// (counts 1, 64, 4096 and 1 Mi elements of 8 bytes) per rank count
/// 2, 8, 16, 64 and 256.
std::string selections(Collective kind, const fabric::FabricParams& fabric) {
  const auto net = fabric::extract_loggp(fabric, 3);
  std::string out;
  for (std::size_t p : {2u, 8u, 16u, 64u, 256u}) {
    if (!out.empty()) out += ' ';
    for (std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{4096},
                          std::size_t{1} << 20}) {
      out += letter(select_algorithm(kind, p, n, 8, net));
    }
  }
  return out;
}

TEST(SelectionPin, AllreduceAndBroadcastOnEveryFabricPreset) {
  struct Row {
    const char* fabric;
    const char* allreduce;
    const char* broadcast;
  };
  const Row rows[] = {
      {"fast-ethernet", "DDDD DDSS DDSS DDSS DDSS",
       "LLRR BLLR BBLR BBLL BBLL"},
      {"gig-ethernet", "DDDD DDSS DDSS DDSS DDSS",
       "LLRR BBLR BBLR BBLL BBBL"},
      {"myrinet-2000", "DDDD DDSS DDSS DDSS DDSS",
       "LLRR BBLR BBLR BBLL BBLL"},
      {"quadrics-qsnet", "DDDD DDSS DDSS DDSS DDSS",
       "LLRR BBLR BBLR BBLL BBLL"},
      {"infiniband-4x", "DDDD DDSS DDSS DDSS DDSS",
       "LLRR BBLR BBLR BBLL BBBL"},
      {"optical-ocs", "DDDD DDSS DDSS DDSS DDSS",
       "LLRR BBLR BBLR BBLL BBBL"},
  };
  const auto presets = fabric::fabrics::all();
  ASSERT_EQ(presets.size(), std::size(rows));
  for (std::size_t i = 0; i < presets.size(); ++i) {
    EXPECT_EQ(presets[i].name, rows[i].fabric);
    EXPECT_EQ(selections(Collective::kAllreduce, presets[i]),
              rows[i].allreduce)
        << presets[i].name;
    EXPECT_EQ(selections(Collective::kBroadcast, presets[i]),
              rows[i].broadcast)
        << presets[i].name;
  }
}

}  // namespace
}  // namespace polaris::coll
