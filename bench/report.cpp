#include "report.hpp"

#include <cstdio>
#include <fstream>
#include <thread>

#include "polaris/support/json.hpp"

namespace polaris::bench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string git_commit() {
  const std::string cmd = "git -C '" POLARIS_SOURCE_DIR
                          "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
    pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

void write_escaped(std::ostream& os, const std::string& s) {
  std::string out = "\"";
  support::append_json_escaped(out, s);
  out += '"';
  os << out;
}

void write_number(std::ostream& os, double v) {
  std::string out;
  support::append_json_number(out, v);
  os << out;
}

}  // namespace

void Report::note_provenance() {
  note("nproc", std::to_string(std::thread::hardware_concurrency()));
  note("cpu", cpu_model());
  note("compiler", compiler());
  note("build_type", POLARIS_BUILD_TYPE);
  note("commit", git_commit());
}

void Report::write(std::ostream& os) const {
  os << "{\n";
  os << "  \"tool\": ";
  write_escaped(os, tool_);
  os << ",\n  \"description\": ";
  write_escaped(os, description_);
  os << ",\n  \"schema_version\": 1";
  os << ",\n  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    os << (i ? ", " : "");
    write_escaped(os, notes_[i].first);
    os << ": ";
    write_escaped(os, notes_[i].second);
  }
  os << "},\n  \"results\": [";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    os << "{\"name\": ";
    write_escaped(os, results_[i].name);
    os << ", \"value\": ";
    write_number(os, results_[i].value);
    os << ", \"unit\": ";
    write_escaped(os, results_[i].unit);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

bool Report::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  return static_cast<bool>(out);
}

}  // namespace polaris::bench
