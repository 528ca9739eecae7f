// Regression suite for the scenario engine (tentpole) and its determinism
// contract: same spec + seed => identical verdict, trace hash, and event
// counts; a mutated spec moves the fingerprint; monitors catch violations;
// and every library scenario passes.
#include "polaris/scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "polaris/scenario/library.hpp"
#include "polaris/support/check.hpp"

namespace polaris::scenario {
namespace {

// A small serve campaign used by the determinism tests: drain under load,
// restore, check conservation throughout.  Fast (~20 ms simulated).
constexpr std::string_view kSmallServeSpec = R"({
  "name": "drain-under-load",
  "seed": 42,
  "tick_s": 0.0005,
  "harness": {"kind": "serve", "frontends": 2, "shards": 2,
              "rate": 20000, "service_mean_s": 20e-6,
              "duration_s": 0.02, "warmup_s": 0.0},
  "monitors": [{"name": "conservation", "expect": "conservation == 0"}],
  "tree": {"seq": [
    {"wait": 0.005},
    {"drain": {"shard": 0}},
    {"await": "shard_drained:0", "timeout": 0.01},
    {"undrain": {"shard": 0}},
    {"assert": "dropped == 0"}
  ]}
})";

TEST(Scenario, EveryLibraryScenarioPasses) {
  for (const std::string& name : library_names()) {
    const Verdict v = run_scenario(library_spec(name));
    EXPECT_TRUE(v.passed) << name << ": " << v.to_json();
    EXPECT_GT(v.ticks, 0u) << name;
    EXPECT_GT(v.trace_events, 0u) << name;
  }
}

TEST(Scenario, SameSpecAndSeedReplaysBitIdentically) {
  const Verdict a = run_scenario(kSmallServeSpec);
  const Verdict b = run_scenario(kSmallServeSpec);
  ASSERT_TRUE(a.passed) << a.to_json();
  // The whole machine-readable verdict — counters, tick counts, end time,
  // trace hash — must replay byte-for-byte.
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.ticks, b.ticks);
}

TEST(Scenario, LibraryScenariosReplayBitIdentically) {
  // The cross-subsystem ones: serve, cluster+rm, simrt, pdes.
  for (const char* name :
       {"flash-crowd-on-serve", "detector-tuning-sweep", "crash-mid-ring",
        "crash-during-collective"}) {
    const Verdict a = run_scenario(library_spec(name));
    const Verdict b = run_scenario(library_spec(name));
    EXPECT_EQ(a.to_json(), b.to_json()) << name;
  }
}

// Same-seed replay alone cannot catch a change that moves a campaign, so
// the library's trace hashes are pinned: at each built-in seed, and for
// detector-tuning-sweep (the phi detector's heaviest campaign) at two
// more spec seeds.
TEST(Scenario, LibraryTraceHashesArePinned) {
  const std::pair<const char*, std::uint64_t> pinned[] = {
      {"rolling-upgrade-drain", 0xbd6f9dbaa17658bfULL},
      {"cascading-link-failures", 0x8ad439390bdf4c5aULL},
      {"rack-power-loss", 0x77319a9d99662395ULL},
      {"flash-crowd-on-serve", 0xe6450c6105a24b48ULL},
      {"detector-tuning-sweep", 0x76544d9be8709f0eULL},
      {"crash-during-collective", 0xbe135f8ffc06d5b7ULL},
      {"crash-mid-ring", 0x1283880efdd8156dULL},
  };
  for (const auto& [name, hash] : pinned) {
    EXPECT_EQ(run_scenario(library_spec(name)).trace_hash, hash) << name;
  }
  for (const auto& [seed, hash] :
       {std::pair{1.0, 0x4e20b8353ecff3ddULL},
        std::pair{1000.0, 0x361b8a23e7be1fc5ULL}}) {
    Json spec = Json::parse(library_spec("detector-tuning-sweep"));
    spec.set("seed", Json::number(seed));
    EXPECT_EQ(run_scenario(spec.dump()).trace_hash, hash) << "seed " << seed;
  }
}

TEST(Scenario, MutatedSpecMovesTheFingerprint) {
  std::string mutated(kSmallServeSpec);
  const std::size_t pos = mutated.find("\"wait\": 0.005");
  ASSERT_NE(pos, std::string::npos);
  mutated.replace(pos, 13, "\"wait\": 0.007");

  const Verdict a = run_scenario(kSmallServeSpec);
  const Verdict b = run_scenario(mutated);
  ASSERT_TRUE(b.passed) << b.to_json();
  // The drain happens two ticks later, so every subsequent trace event
  // carries a different timestamp: the fingerprint must move.
  EXPECT_NE(a.trace_hash, b.trace_hash);
}

TEST(Scenario, PdesGoldenHashIsShardAndWorkerInvariant) {
  // Explicit worker counts pin the worker-invariance contract directly:
  // the same faulted workload must fold to one golden hash at every
  // execution shape, and the scenario itself must replay identically.
  constexpr std::string_view spec = R"({
    "name": "pdes-shape-sweep",
    "seed": 5,
    "tick_s": 0.001,
    "harness": {"kind": "pdes", "app": "halo", "grid_w": 8, "grid_h": 8,
                "iters": 4, "faults": [{"rank": 9, "time_s": 0.0005}]},
    "tree": {"seq": [
      {"run": {"shards": 1, "workers": 1}},
      {"run": {"shards": 2, "workers": 2}},
      {"run": {"shards": 4, "workers": 4}},
      {"run": {"shards": 4, "workers": 1}},
      {"assert": "pdes.runs == 4"},
      {"assert": "pdes.hashes_equal == 1"},
      {"assert": "pdes.ranks_failed >= 1"}
    ]}
  })";
  const Verdict a = run_scenario(spec);
  EXPECT_TRUE(a.passed) << a.to_json();
  const Verdict b = run_scenario(spec);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Scenario, MonitorCatchesARealViolation) {
  // Kill every shard permanently: arrivals have nowhere to go and are
  // dropped, so the "no lost requests" monitor must trip — and the verdict
  // must fail even though the tree itself runs to success.
  constexpr std::string_view spec = R"({
    "name": "total-loss",
    "seed": 9,
    "tick_s": 0.0005,
    "harness": {"kind": "serve", "frontends": 2, "shards": 2,
                "rate": 20000, "service_mean_s": 20e-6,
                "duration_s": 0.02, "warmup_s": 0.0},
    "monitors": [{"name": "no-drops", "expect": "dropped == 0"}],
    "tree": {"seq": [
      {"inject": {"kind": "rack", "first": 0, "count": 2, "after": 0.002}},
      {"await": "dropped > 0", "timeout": 0.02},
      {"assert": "offered > 0"}
    ]}
  })";
  const Verdict v = run_scenario(spec);
  EXPECT_FALSE(v.passed) << v.to_json();
  EXPECT_EQ(v.root, Status::kSuccess);  // the tree succeeded...
  EXPECT_FALSE(v.monitors_clean);       // ...the invariant did not
  ASSERT_EQ(v.monitors.size(), 1u);
  EXPECT_GT(v.monitors[0].violations, 0u);
  EXPECT_GE(v.monitors[0].first_violation_s, 0.0);
}

TEST(Scenario, EvaluatedAssertsRecordTheirSimTime) {
  const Verdict v = run_scenario(kSmallServeSpec);
  ASSERT_EQ(v.asserts.size(), 1u);
  EXPECT_TRUE(v.asserts[0].passed);
  EXPECT_GT(v.asserts[0].time_s, 0.0);
}

TEST(Scenario, WedgedTreeFailsTheVerdictWithUnreachedAsserts) {
  // An await that can never hold, with no timeout: the tick chain stops at
  // max_ticks, the root stays Running, and the un-evaluated assert reports
  // failed with time -1.
  constexpr std::string_view spec = R"({
    "name": "wedged",
    "seed": 1,
    "tick_s": 0.001,
    "max_ticks": 50,
    "harness": {"kind": "serve", "frontends": 1, "shards": 1,
                "rate": 1000, "duration_s": 0.01, "warmup_s": 0.0},
    "tree": {"seq": [
      {"await": "offered > 1000000"},
      {"assert": "dropped == 0"}
    ]}
  })";
  const Verdict v = run_scenario(spec);
  EXPECT_FALSE(v.passed);
  EXPECT_EQ(v.root, Status::kRunning);
  EXPECT_EQ(v.ticks, 50u);
  ASSERT_EQ(v.asserts.size(), 1u);
  EXPECT_FALSE(v.asserts[0].passed);
  EXPECT_DOUBLE_EQ(v.asserts[0].time_s, -1.0);
}

TEST(Scenario, BadSpecsFailLoudly) {
  EXPECT_THROW(run_scenario("[]"), support::ContractViolation);
  EXPECT_THROW(run_scenario(R"({"tree": {"seq": []}})"),
               support::ContractViolation);  // no harness
  EXPECT_THROW(run_scenario(R"({"harness": {"kind": "serve"}})"),
               support::ContractViolation);  // no tree
  EXPECT_THROW(run_scenario(R"({
    "harness": {"kind": "starship"},
    "tree": {"seq": []}
  })"),
               support::ContractViolation);  // unknown harness kind
  EXPECT_THROW(run_scenario(R"({
    "harness": {"kind": "serve", "duration_s": 0.001},
    "tree": {"seq": [{"warp": {}}, {"extra": 1}]}
  })"),
               support::ContractViolation);  // two-member mystery node
}

TEST(Scenario, UnknownProbeNamesThrowInsteadOfComparingZero) {
  constexpr std::string_view spec = R"({
    "name": "typo",
    "seed": 1,
    "harness": {"kind": "serve", "frontends": 1, "shards": 1,
                "rate": 1000, "duration_s": 0.005, "warmup_s": 0.0},
    "tree": {"seq": [{"assert": "droped == 0"}]}
  })";
  EXPECT_THROW(run_scenario(spec), support::ContractViolation);
}

TEST(Scenario, LibraryNamesAndSpecsAgree) {
  const auto names = library_names();
  EXPECT_GE(names.size(), 6u);
  for (const std::string& name : names) {
    const Json spec = Json::parse(library_spec(name));
    EXPECT_EQ(spec.at("name").str(), name);
  }
  EXPECT_THROW(library_spec("no-such-scenario"), support::ContractViolation);
}

}  // namespace
}  // namespace polaris::scenario
