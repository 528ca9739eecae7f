// Runs a chaos scenario and prints its machine-readable verdict.
//
//   run_scenario                      # list built-in scenarios
//   run_scenario rolling-upgrade-drain
//   run_scenario path/to/spec.json    # any file with a '/' or '.json'
//   run_scenario crash-mid-ring trace.json   # also dump the obs trace
//
// Exit status: 0 the verdict passed, 1 it failed, 2 usage error, unknown
// scenario name, or a spec that cannot be read, parsed or built.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "polaris/scenario/library.hpp"
#include "polaris/scenario/scenario.hpp"
#include "polaris/support/check.hpp"

namespace {

bool looks_like_path(const std::string& arg) {
  return arg.find('/') != std::string::npos ||
         (arg.size() > 5 && arg.compare(arg.size() - 5, 5, ".json") == 0);
}

void print_builtin(std::FILE* out) {
  std::fprintf(out, "built-in scenarios:\n");
  for (const std::string& name : polaris::scenario::library_names()) {
    std::fprintf(out, "  %s\n", name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace polaris;

  if (argc < 2) {
    std::printf("usage: %s <scenario-name | spec.json> [trace-out.json]\n",
                argv[0]);
    print_builtin(stdout);
    return 2;
  }

  const std::string arg = argv[1];
  std::string spec;
  if (looks_like_path(arg)) {
    std::ifstream in(arg);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", arg.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    spec = buf.str();
  } else {
    const std::vector<std::string> names = scenario::library_names();
    if (std::find(names.begin(), names.end(), arg) == names.end()) {
      std::fprintf(stderr, "unknown scenario: %s\n", arg.c_str());
      print_builtin(stderr);
      return 2;
    }
    spec = std::string(scenario::library_spec(arg));
  }

  // A spec is outside input: one that fails to parse, to build, or to
  // name real probes and actions is reported, not a crash.
  try {
    scenario::Runner runner = scenario::Runner::from_text(spec);
    const scenario::Verdict v = runner.run();
    std::printf("%s\n", v.to_json().c_str());

    if (argc > 2) {
      std::ofstream out(argv[2]);
      runner.tracer().write_json(out);
      std::fprintf(stderr, "trace written to %s\n", argv[2]);
    }
    return v.passed ? 0 : 1;
  } catch (const support::ContractViolation& e) {
    std::fprintf(stderr, "invalid scenario spec %s: %s\n", arg.c_str(),
                 e.what());
    return 2;
  }
}
