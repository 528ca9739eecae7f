#!/usr/bin/env python3
"""Report the src/ lines and functions that compiled code never ran.

    python3 bench/unrun_report.py --src SRC_DIR BUILD_DIR [BUILD_DIR...]

Runs `gcov --json-format --stdout` on every .gcno under the build
directories (gcov finds each .gcda beside its .gcno; an object with no
.gcda counts as never run) and merges the line and function counts of
every source file under SRC_DIR by path, so a header compiled into many
objects, or a file compiled into several build trees, is one entry.
Prints executable and never-run lines per module (the first directory
under SRC_DIR) and per file, then the never-run functions per module.
bench/scan_unrun.sh builds the trees and runs the binaries first.  Uses
only the standard library.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path


def gcov_documents(gcno):
    """Yields gcov's JSON document(s) for one .gcno file."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcno.name],
        cwd=gcno.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit("gcov failed on %s:\n%s" % (gcno, proc.stderr))
    for line in proc.stdout.splitlines():
        if line.strip():
            yield json.loads(line)


def merge(build_dirs, src):
    lines = defaultdict(lambda: defaultdict(int))  # file -> line -> count
    funcs = defaultdict(int)  # (file, start line, name) -> count
    for build in build_dirs:
        for gcno in sorted(Path(build).rglob("*.gcno")):
            for doc in gcov_documents(gcno):
                cwd = Path(doc.get("current_working_directory", gcno.parent))
                for f in doc["files"]:
                    path = Path(os.path.normpath(cwd / f["file"]))
                    if src not in path.parents:
                        continue
                    rel = path.relative_to(src).as_posix()
                    for ln in f["lines"]:
                        lines[rel][ln["line_number"]] += ln["count"]
                    for fn in f["functions"]:
                        key = (rel, fn["start_line"], fn["demangled_name"])
                        funcs[key] += fn["execution_count"]
    return lines, funcs


def module_of(rel):
    return rel.split("/", 1)[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src/ directory")
    ap.add_argument("build_dirs", nargs="+")
    args = ap.parse_args()
    src = Path(args.src).resolve()

    lines, funcs = merge(args.build_dirs, src)
    if not lines:
        sys.exit("no coverage data for files under %s" % src)

    per_module = defaultdict(lambda: [0, 0])
    rows = []
    for rel in sorted(lines):
        counts = lines[rel]
        unrun = sum(1 for c in counts.values() if c == 0)
        rows.append((rel, len(counts), unrun))
        per_module[module_of(rel)][0] += len(counts)
        per_module[module_of(rel)][1] += unrun

    total = sum(m[0] for m in per_module.values())
    total_unrun = sum(m[1] for m in per_module.values())
    print("never-run lines: %d of %d executable src/ lines"
          % (total_unrun, total))
    print()
    print("%-12s %10s %10s" % ("module", "executable", "never-run"))
    for mod in sorted(per_module):
        print("%-12s %10d %10d" % (mod, *per_module[mod]))
    print()
    print("%-52s %10s %10s" % ("file", "executable", "never-run"))
    for rel, n, unrun in rows:
        print("%-52s %10d %10d" % (rel, n, unrun))
    print()

    unrun_funcs = defaultdict(list)
    for (rel, start, name), count in sorted(funcs.items()):
        if count == 0:
            unrun_funcs[module_of(rel)].append("%s:%d %s" % (rel, start, name))
    print("never-run functions: %d"
          % sum(len(v) for v in unrun_funcs.values()))
    for mod in sorted(unrun_funcs):
        print("%s (%d)" % (mod, len(unrun_funcs[mod])))
        for entry in unrun_funcs[mod]:
            print("  " + entry)


if __name__ == "__main__":
    main()
