#!/bin/sh
# Lists the polaris:: functions the libraries define that no bench, example
# or perfbench binary contains, and fails on any that bench/unreached_keep.txt
# does not name.
#
#   bench/scan_unreached.sh [build-dir]    # from the repository root;
#                                          # build-dir defaults to build-scan
#
# Every bench and example (tests off) and polaris_perfbench are built at -O0
# with one section per function, and the linker drops every section nothing
# references, so a library function is in a binary only if something there
# can reach it.  Coroutine clones, lambdas and std:: instantiations are
# ignored.  Keep-list entries the scan does not find are not an error:
# another compiler emits other template instances.
set -eu

out=${1:-build-scan}
keep=bench/unreached_keep.txt
flags="-O0 -ffunction-sections -fdata-sections"
ldflags="-Wl,--gc-sections"

cmake -S . -B "$out/main" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DPOLARIS_BUILD_TESTS=OFF -DCMAKE_CXX_FLAGS="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS="$ldflags" > /dev/null
cmake --build "$out/main"
cmake -S perfbench -B "$out/perf" -G Ninja -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$ldflags" > /dev/null
cmake --build "$out/perf" --target polaris_perfbench

# Functions whose own name is in namespace polaris (mangled _ZN7polaris or
# _ZNK7polaris...), so std:: instances that return a polaris type are out.
syms() {
  nm --defined-only "$@" |
    sed -nE 's/^[0-9a-f]+ [TWt] (_ZN[KVRO]*7polaris.*)$/\1/p' | c++filt |
    grep -v -e '\[clone ' -e '{lambda(' | sort -u
}

syms $(find "$out/main/src" -name 'libpolaris_*.a') > "$out/lib.txt"
syms $(find "$out/main/bench" "$out/main/examples" -maxdepth 1 -type f \
         -perm -u+x) "$out/perf/polaris_perfbench" > "$out/bin.txt"
comm -23 "$out/lib.txt" "$out/bin.txt" > "$out/unreached.txt"
grep -v -e '^#' -e '^$' "$keep" > "$out/keep.txt" || true
grep -vxF -f "$out/keep.txt" "$out/unreached.txt" > "$out/new.txt" || true

echo "unreached polaris:: functions: $(wc -l < "$out/unreached.txt")" \
     "($(wc -l < "$out/keep.txt") on the keep list)"
if [ -s "$out/new.txt" ]; then
  echo "not on $keep:"
  sed 's/^/  /' "$out/new.txt"
  exit 1
fi
