// polaris_perfbench: runs one workload for a fixed host time and prints its
// raw per-pass measurements as one JSON object on stdout.  run.py builds
// this binary, invokes it and turns the output into the benchmark result.
//
//   polaris_perfbench --workload pdes_cg --seed 1 --seconds 10 --trace 0
//                     [--scale tiny] [--spans out.json]
//
// An untimed warm-up pass runs first.  With --trace 0 every pass is
// untraced.  With --trace 1 untraced and traced passes alternate (the
// difference is the tracing overhead), traced passes record bench-side
// spans, and the workload's traced-only extras run at the end.  Every pass
// also carries the host speed measured around it (reference.cpp).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "polaris/scenario/json.hpp"

namespace perfbench {

// ---------------------------------------------------------------- Spans

int Spans::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now_us(), 0.0, {}});
  return id;
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

void Spans::arg(int id, std::string key, double value) {
  spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                         value);
}

void Spans::write_chrome(std::ostream& os) const {
  using polaris::scenario::Json;
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json e = Json::object();
    e.set("name", Json::string(s.name));
    e.set("ph", Json::string("X"));
    e.set("ts", Json::number(s.start_us));
    e.set("dur", Json::number(s.end_us - s.start_us));
    e.set("pid", Json::number(1));
    e.set("tid", Json::number(1));
    Json args = Json::object();
    for (const auto& [k, v] : s.args) args.set(k, Json::number(v));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  os << doc.dump() << '\n';
}

}  // namespace perfbench

namespace {

using namespace perfbench;
using polaris::scenario::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "polaris_perfbench: " << why
            << "\nusage: polaris_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale tiny|full] [--spans PATH]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--scale") {
      if (val != "tiny" && val != "full") usage("bad --scale " + val);
      a.tiny = val == "tiny";
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

Json metrics_json(const Metrics& m) {
  Json o = Json::object();
  for (const Metric& x : m) o.set(x.name, Json::number(x.value));
  return o;
}

/// A timed pass and the host speed measured around it.
struct TimedPass {
  PassResult result;
  bool traced = false;
  double ref_rate = 0.0;  ///< reference events/s bracketing the pass's block
};

// The reference is timed before and after each block of passes that spans
// at least kBlockS; 250k reference events take roughly 50 ms, long enough
// that one scheduler hiccup does not move the sample.
constexpr double kBlockS = 1.0;
constexpr std::uint64_t kReferenceEvents = 250'000;

Json pass_json(const TimedPass& t) {
  const PassResult& p = t.result;
  Json o = Json::object();
  o.set("traced", Json::boolean(t.traced));
  o.set("ref_rate", Json::number(t.ref_rate));
  o.set("setup_s", Json::number(p.setup_s));
  o.set("run_s", Json::number(p.run_s));
  o.set("units", Json::number(p.units));
  o.set("attempted", Json::number(static_cast<double>(p.attempted)));
  o.set("failed", Json::number(static_cast<double>(p.failed)));
  if (t.traced) o.set("layers", metrics_json(p.layers));
  return o;
}

int run(const Args& args) {
  std::unique_ptr<Workload> wl =
      make_workload(args.workload, args.seed, args.tiny);
  std::vector<std::string> violations;

  // Untimed warm-up: fills caches and pools, finishes lazy set-up, and
  // fixes the fingerprint every later pass must reproduce.
  const PassResult warm = wl->pass(nullptr);
  const std::string fingerprint = warm.fingerprint;
  violations.insert(violations.end(), warm.violations.begin(),
                    warm.violations.end());

  Spans spans;
  std::vector<TimedPass> timed;
  std::vector<PassResult> traced;
  std::size_t untraced = 0;
  const std::size_t min_each = 3;
  double ref_before = reference_rate(kReferenceEvents);
  std::size_t block_first = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point block_start = start;
  for (std::size_t i = 0;; ++i) {
    const bool traced_pass = args.trace && i % 2 == 1;
    PassResult p;
    if (traced_pass) {
      Scope s(&spans, "pass");
      p = wl->pass(&spans);
    } else {
      p = wl->pass(nullptr);
    }
    if (p.fingerprint != fingerprint) {
      violations.push_back("pass " + std::to_string(i) +
                           " fingerprint differs from warm-up: " +
                           p.fingerprint);
      ++p.failed;
    }
    violations.insert(violations.end(), p.violations.begin(),
                      p.violations.end());
    if (traced_pass) {
      traced.push_back(p);
    } else {
      ++untraced;
    }
    timed.push_back({std::move(p), traced_pass, 0.0});

    const bool enough = untraced >= min_each &&
                        (!args.trace || traced.size() >= min_each);
    const Clock::time_point now = Clock::now();
    const bool done = enough && seconds_between(start, now) >= args.seconds;
    if (done || seconds_between(block_start, now) >= kBlockS) {
      const double ref_after = reference_rate(kReferenceEvents);
      const double rate = std::sqrt(ref_before * ref_after);
      for (std::size_t k = block_first; k < timed.size(); ++k) {
        timed[k].ref_rate = rate;
      }
      ref_before = ref_after;
      block_first = timed.size();
      block_start = Clock::now();
    }
    if (done) break;
  }
  Json passes = Json::array();
  for (const TimedPass& t : timed) passes.push(pass_json(t));

  Metrics extras;
  if (args.trace) {
    Scope s(&spans, "extras");
    wl->traced_extras(traced, extras, violations);
  }
  if (!args.spans_path.empty()) {
    std::ofstream out(args.spans_path);
    spans.write_chrome(out);
    if (!out) violations.push_back("could not write " + args.spans_path);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  Json doc = Json::object();
  doc.set("workload", Json::string(args.workload));
  doc.set("unit", Json::string(wl->unit()));
  doc.set("seed", Json::number(static_cast<double>(args.seed)));
  doc.set("scale", Json::string(args.tiny ? "tiny" : "full"));
  doc.set("workers", Json::number(static_cast<double>(wl->workers())));
  doc.set("compiler", Json::string(__VERSION__));
  doc.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  doc.set("fingerprint", Json::string(fingerprint));
  Json viol = Json::array();
  for (const std::string& v : violations) viol.push(Json::string(v));
  doc.set("violations", std::move(viol));
  doc.set("peak_rss_kb", Json::number(static_cast<double>(ru.ru_maxrss)));
  doc.set("passes", std::move(passes));
  doc.set("extras", metrics_json(extras));
  std::cout << doc.dump() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "polaris_perfbench: " << e.what() << '\n';
    return 1;
  }
}
