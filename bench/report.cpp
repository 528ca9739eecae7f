#include "report.hpp"

#include <fstream>

#include "polaris/support/json.hpp"

namespace polaris::bench {

namespace {

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
