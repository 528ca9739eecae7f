#!/usr/bin/env python3
"""Check BENCH_*.json files against the thresholds in bench/gates.json.

Run from the directory that holds the BENCH files (CI: the checkout root):

    python3 bench/check_gates.py --stage before   # committed baselines
    python3 bench/check_gates.py --stage after    # after the benches ran

A BENCH file is {"results": [{"name": ..., "value": ...}], "notes": {...}}.
Each gate names a file and either a "key" or a "glob" over keys with a
"min_matches" count.  Every matched value must satisfy "op" against the
constant "value", or against "factor" (default 1) times the value of the
key "ref" in the same file.  A gate without "op" only requires its key.
A gate with "when_note" applies only when that provenance note (a number)
passes the note's own comparison; otherwise it is reported as skipped.
Gates without a "stage" run at stage "after", which also parses every
file listed under "files".  Prints one line per gate and exits 1 if any
gate or file fails.  Uses only the standard library.
"""

import argparse
import fnmatch
import json
import operator
import sys
from pathlib import Path

OPS = {
    "==": operator.eq,
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
    "abs<=": lambda a, b: abs(a) <= b,
}


def load(path):
    doc = json.loads(path.read_text())
    results = {r["name"]: r["value"] for r in doc["results"]}
    return results, doc.get("notes", {})


def check(gate, results, notes):
    """Returns (status, detail): status is "ok", "FAIL" or "skip"."""
    cond = gate.get("when_note")
    if cond is not None:
        note = float(notes.get(cond["name"], 0))
        if not OPS[cond["op"]](note, cond["value"]):
            return "skip", f"note {cond['name']}={note:g} fails " \
                           f"{cond['op']} {cond['value']}"
    if "glob" in gate:
        keys = sorted(k for k in results
                      if fnmatch.fnmatchcase(k, gate["glob"]))
        if len(keys) < gate["min_matches"]:
            return "FAIL", f"{len(keys)} keys match, expected >= " \
                           f"{gate['min_matches']}"
    else:
        keys = [gate["key"]]
    missing = [k for k in keys if k not in results]
    if missing:
        return "FAIL", f"missing {', '.join(missing)}"
    if "op" not in gate:
        return "ok", "present"
    if "ref" in gate:
        if gate["ref"] not in results:
            return "FAIL", f"missing {gate['ref']}"
        bound = gate.get("factor", 1.0) * results[gate["ref"]]
    else:
        bound = gate["value"]
    bad = [k for k in keys if not OPS[gate["op"]](results[k], bound)]
    if bad:
        return "FAIL", "; ".join(f"{k} = {results[k]:.10g}, expected "
                                 f"{gate['op']} {bound:.10g}" for k in bad)
    return "ok", f"{len(keys)} value(s) {gate['op']} {bound:.10g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--stage", choices=("before", "after"),
                        required=True)
    parser.add_argument("--dir", type=Path, default=Path("."),
                        help="directory holding the BENCH_*.json files")
    args = parser.parse_args()

    spec = json.loads(Path(__file__).with_name("gates.json").read_text())
    gates = [g for g in spec["gates"] if g.get("stage", "after") == args.stage]
    names = {g["file"] for g in gates}
    if args.stage == "after":
        names.update(spec["files"])

    failed = 0
    files = {}
    for name in sorted(names):
        try:
            files[name] = load(args.dir / name)
        except (OSError, ValueError, KeyError, TypeError) as err:
            print(f"FAIL {name}: cannot read results ({err})")
            failed += 1
    for gate in gates:
        what = f"{gate['file']} {gate.get('key') or gate['glob']}"
        if gate["file"] not in files:
            continue  # already reported
        status, detail = check(gate, *files[gate["file"]])
        line = f"{status:4} {what}: {detail}"
        if status == "FAIL":
            failed += 1
            line += f" ({gate.get('why', 'gate')})"
        print(line)
    print(f"{args.stage}: {len(gates)} gates over {len(files)} files, "
          f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
