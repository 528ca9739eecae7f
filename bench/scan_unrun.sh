#!/bin/sh
# Lists the src/ lines and functions that are linked into a bench, example
# or perfbench binary but that no experiment runs.
#
#   bench/scan_unrun.sh [build-dir]    # from the repository root;
#                                      # build-dir defaults to build-cov
#
# Every bench and example (tests off) and polaris_perfbench are built at
# -O0 --coverage.  Then every bench runs at POLARIS_BENCH_BUDGET_MS=50, the
# other examples at their defaults, run_scenario on each built-in campaign,
# and polaris_perfbench on each workload at --scale tiny with --trace 0 and
# --trace 1.  Each binary runs in its own directory under build-dir/run,
# because the benches write BENCH_*.json into the working directory.
# bench/unrun_report.py then merges gcov's line and function counts of both
# build trees by source path and prints the report, also kept in
# build-dir/unrun.txt.
#
# A binary that exits non-zero is named but does not fail the scan (some
# benches' verdicts include timing ceilings, which an -O0 coverage build can
# miss); a build error, a signal or the per-binary timeout does.
set -eu

out=${1:-build-cov}
flags="-O0 --coverage"

cmake -S . -B "$out/main" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DPOLARIS_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$out/main"
cmake -S perfbench -B "$out/perf" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$out/perf" --target polaris_perfbench

root=$(pwd)
bin=$(cd "$out" && pwd)
find "$bin" -name '*.gcda' -delete
rm -rf "$bin/run"
nonzero=""
broken=""

# run <label> <command...>: runs the command in build-dir/run/<label>.
run() {
  label=$1
  shift
  mkdir -p "$bin/run/$label"
  status=0
  (cd "$bin/run/$label" && timeout 900 "$@" > stdout.txt 2> stderr.txt) ||
    status=$?
  if [ "$status" -eq 124 ] || [ "$status" -gt 128 ]; then
    broken="$broken $label($status)"
  elif [ "$status" -ne 0 ]; then
    nonzero="$nonzero $label($status)"
  fi
  echo "ran $label: exit $status"
}

for b in "$bin"/main/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  POLARIS_BENCH_BUDGET_MS=50 run "$(basename "$b")" "$b"
done
for e in quickstart halo_exchange trace_halo cluster_operations \
         petaflops_roadmap; do
  run "$e" "$bin/main/examples/$e"
done
for s in $("$bin/main/examples/run_scenario" | sed -n 's/^  //p'); do
  run "run_scenario.$s" "$bin/main/examples/run_scenario" "$s"
done
for w in pdes_cg simrt_cg serve_fattree chaos_library; do
  for t in 0 1; do
    run "perfbench.$w.trace$t" "$bin/perf/polaris_perfbench" --workload "$w" \
      --seed 7 --seconds 0.2 --scale tiny --trace "$t"
  done
done

python3 "$root/bench/unrun_report.py" --src "$root/src" "$bin/main" \
  "$bin/perf" | tee "$bin/unrun.txt"

if [ -n "$nonzero" ]; then
  echo "exited non-zero (not a scan failure):$nonzero" | tee -a "$bin/unrun.txt"
fi
if [ -n "$broken" ]; then
  echo "killed by a signal or the timeout:$broken" | tee -a "$bin/unrun.txt"
  exit 1
fi
