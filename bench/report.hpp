// Machine-readable benchmark reports.
//
// Every perf-sensitive bench writes a BENCH_*.json next to its stdout
// tables so successive PRs have a numeric trajectory to compare against
// (and CI can smoke-check that the file parses).  The schema is flat on
// purpose: a tool name, free-form string notes, and a list of named
// (value, unit) measurements — nothing a `jq '.results[]'` can't read.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace polaris::bench {

class Report {
 public:
  Report(std::string tool, std::string description)
      : tool_(std::move(tool)), description_(std::move(description)) {}

  /// Appends one measurement.  Names are dotted paths
  /// ("engine.schedule_fire.events_per_sec"); units are plain strings
  /// ("events/s", "x", "s").
  void add(std::string name, double value, std::string unit) {
    results_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Attaches free-form context (thread counts, budget, workload shape).
  void note(std::string key, std::string value) {
    notes_.emplace_back(std::move(key), std::move(value));
  }

  /// Notes where the numbers were measured: nproc, cpu, compiler,
  /// build_type and commit (`git describe --always --dirty` of the source
  /// tree, "unknown" outside a checkout).
  void note_provenance();

  void write(std::ostream& os) const;

  /// Writes the JSON file; returns false when the file can't be opened.
  bool write_file(const std::string& path) const;

 private:
  struct Measurement {
    std::string name;
    double value;
    std::string unit;
  };

  std::string tool_;
  std::string description_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<Measurement> results_;
};

}  // namespace polaris::bench
