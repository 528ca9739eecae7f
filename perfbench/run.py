#!/usr/bin/env python3
"""polaris end-to-end benchmark: host cost per unit of simulated work.

Run from the root of a polaris checkout:

    python3 perfbench/run.py --workload pdes_cg --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (a standalone CMake project
over ../src) into .bench_build/, or $CARGO_TARGET_DIR when that names a
directory inside the checkout.  Each run executes one workload for
--seconds of host time after an untimed warm-up pass, checks the
simulated outputs, prints provenance, the simulation fingerprint and every
metric with its median and spread, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end times are in reference seconds (see REFERENCE_RATE below).
--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from traced passes and writes the bench-side spans as a Chrome
trace under the build directory, next to a full record of each run.
--smoke runs every workload at a tiny scale and checks the result schema
and fingerprint stability.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# Workload -> its own name for work per raw host second.
WORKLOADS = {
    "pdes_cg": "rank_iters_per_host_s",
    "simrt_cg": "rank_iters_per_host_s",
    "serve_fattree": "requests_per_host_s",
    "chaos_library": "campaigns_per_host_s",
}

END_TO_END = [
    ("sim_work_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Host times are expressed in reference seconds: one reference second is
# the host time of REFERENCE_RATE events of the fixed reference simulation
# (reference.cpp), timed around every block of passes.  On a shared host
# this cancels most of the drift other tenants cause; a change to the code
# under test still moves the result in full.
REFERENCE_RATE = 5e6

CAMPAIGNS = [
    "rolling-upgrade-drain",
    "cascading-link-failures",
    "rack-power-loss",
    "flash-crowd-on-serve",
    "detector-tuning-sweep",
    "crash-during-collective",
    "crash-mid-ring",
]

PER_LAYER = [
    ("des.events", "count"),
    ("des.events_per_host_s", "1/s"),
    ("des.max_queue_depth", "count"),
    ("des.pool_capacity", "count"),
    ("des.cancelled_skipped", "count"),
    ("fabric.messages", "count"),
    ("fabric.packets", "count"),
    ("fabric.bypass_rate", "frac"),
    ("fabric.messages_bypassed", "count"),
    ("fabric.walker_hop_events", "count"),
    ("fabric.flights_materialized", "count"),
    ("msg.posted", "count"),
    ("msg.unexpected_frac", "frac"),
    ("msg.pool_capacity", "count"),
    ("simrt.eager_msgs", "count"),
    ("simrt.rendezvous_msgs", "count"),
    ("simrt.inflight_peak", "count"),
    ("simrt.max_held_depth", "count"),
    ("pdes.windows", "count"),
    ("pdes.msgs_cross", "count"),
    ("pdes.msgs_intra", "count"),
    ("pdes.sum_busy_s", "s"),
    ("pdes.max_shard_busy_s", "s"),
    ("pdes.barrier_wait_s", "s"),
    ("pdes.parallel_efficiency", "frac"),
    ("pdes.parks", "count"),
    ("pdes.window_ns_p50", "ns"),
    ("pdes.window_ns_p99", "ns"),
    ("pdes.drain_batch_p99", "count"),
    ("pdes.serial_run_s", "s"),
    ("pdes.wall_speedup", "x"),
    ("pdes.locality_gain", "x"),
    ("serve.offered", "count"),
    ("serve.completed", "count"),
    ("serve.max_queue_depth", "count"),
    ("obs.latency_records", "count"),
    *[("scenario.%s.host_ms" % c, "ms") for c in CAMPAIGNS],
    ("scenario.parse_ms", "ms"),
    ("scenario.ticks", "count"),
    ("scenario.trace_events", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("ledger.des_event_ns", "ns"),
    ("ledger.fabric_idle_msg_ns", "ns"),
    ("ledger.fabric_hop_ns", "ns"),
    ("ledger.msg_pair_ns", "ns"),
    ("des.est_host_s", "s"),
    ("fabric.est_host_s", "s"),
    ("msg.est_host_s", "s"),
    ("ledger.residual_frac", "frac"),
    ("host.reference_rate", "1/s"),
]

RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir(root):
    name = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = (root / name).resolve()
    if root.resolve() not in (path, *path.parents):
        path = (root / ".bench_build").resolve()
    return path


def build(root):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no polaris sources under %s/src" % root)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out = build_dir(root)
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "polaris_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return out / "polaris_perfbench"


# ------------------------------------------------------------- provenance

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha(root):
    if not (root / ".git").exists():
        return "none"
    try:
        res = subprocess.run(["git", "--git-dir", str(root / ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return res.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_digest(root):
    """sha256 over src/ and perfbench/ contents: identifies the code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((root / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(root)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(root, raw):
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "workers": int(raw["workers"]),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("POLARIS_")},
    }


# ---------------------------------------------------------------- measure

def run_binary(binary, workload, seed, seconds, trace, scale, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--scale", scale]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    if res.returncode != 0:
        raise BenchError("benchmark binary exited with %d" % res.returncode)
    return json.loads(res.stdout)


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summarize(raw):
    """Turns the binary's raw passes into (metrics, spreads, counts).  The
    end-to-end times are in reference seconds; the same medians in raw host
    seconds are kept beside them for the report."""
    untraced = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    attempted = sum(int(p["attempted"]) for p in raw["passes"])
    failed = sum(int(p["failed"]) for p in raw["passes"])

    def host_s_per_ref_s(p):
        return REFERENCE_RATE / p["ref_rate"]

    samples = {
        "sim_work_per_ref_s": [p["units"] / p["run_s"] * host_s_per_ref_s(p)
                               for p in untraced],
        "setup_s": [p["setup_s"] / host_s_per_ref_s(p) for p in untraced],
        "work_per_host_s": [p["units"] / p["run_s"] for p in untraced],
        "setup_host_s": [p["setup_s"] for p in untraced],
    }
    e2e = {k: statistics.median(v) for k, v in samples.items()}
    e2e["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
    spreads = {k: spread(v) for k, v in samples.items()}

    layers = {}
    if traced:
        known = {name for name, _ in PER_LAYER}
        emitted = set(raw["extras"])
        for p in traced:
            emitted |= set(p["layers"])
        unknown = emitted - known
        if unknown:
            raise BenchError("undeclared per-layer metrics: %s"
                             % sorted(unknown))
        for name, _ in PER_LAYER:
            if name in raw["extras"]:
                layers[name] = raw["extras"][name]
            else:
                layers[name] = statistics.median(
                    p["layers"].get(name, 0.0) for p in traced)
        layers["obs.trace_overhead_frac"] = (
            statistics.median(p["run_s"] for p in traced)
            / statistics.median(p["run_s"] for p in untraced) - 1.0)
        layers["host.reference_rate"] = statistics.median(
            p["ref_rate"] for p in raw["passes"])
    return e2e, spreads, layers, attempted, failed


def result_line(raw, trace):
    e2e, _, layers, attempted, failed = summarize(raw)
    correct = failed == 0 and not raw["violations"]
    if trace:
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(root, raw, trace):
    """Prints the human-readable lines before the result: provenance,
    fingerprint and every metric with median and spread.  Returns them as
    a record."""
    prov = provenance(root, raw)
    e2e, spreads, layers, attempted, failed = summarize(raw)
    untraced = [p for p in raw["passes"] if not p["traced"]]
    print("# perfbench %s seed=%d trace=%d scale=%s"
          % (raw["workload"], raw["seed"], trace, raw["scale"]))
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print("# sim_fingerprint %s" % raw["fingerprint"])
    for v in raw["violations"]:
        print("# violation: %s" % v)
    print("# sim_work_per_ref_s = %.6g 1/s  (%s per reference second; "
          "median of %d passes, IQR/median %.4f)"
          % (e2e["sim_work_per_ref_s"], raw["unit"], len(untraced),
             spreads["sim_work_per_ref_s"]))
    print("# %s = %.6g 1/s  (per raw host second, IQR/median %.4f)"
          % (WORKLOADS[raw["workload"]], e2e["work_per_host_s"],
             spreads["work_per_host_s"]))
    print("# setup_s = %.6g s  (reference seconds, median of %d set-ups, "
          "IQR/median %.4f; raw host %.6g s)"
          % (e2e["setup_s"], len(untraced), spreads["setup_s"],
             e2e["setup_host_s"]))
    print("# host.reference_rate = %.6g 1/s  (reference second = %g events)"
          % (statistics.median(p["ref_rate"] for p in raw["passes"]),
             REFERENCE_RATE))
    print("# peak_rss_mb = %.6g MB" % e2e["peak_rss_mb"])
    print("# failed_frac = %.6g  (%d failed of %d attempted)"
          % (failed / attempted if attempted else 0.0, failed, attempted))
    for name, u in PER_LAYER if trace else []:
        print("# %s = %.6g %s" % (name, layers[name], u))
    return {"provenance": prov, "fingerprint": raw["fingerprint"],
            "violations": raw["violations"], "passes": len(untraced),
            "end_to_end": e2e, "spread": spreads, "per_layer": layers}


def measure(root, args):
    """Builds, runs one workload, prints the report and the result line,
    and keeps the full record beside the build."""
    binary = build(root)
    out = build_dir(root)
    stem = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    spans = out / ("spans_%s.json" % stem) if args.trace else None
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace, "full", spans)
    result = result_line(raw, args.trace)
    record = report(root, raw, args.trace)
    record["result"] = result
    (out / ("result_%s.json" % stem)).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)


# ------------------------------------------------------------------ smoke

def check_schema(res, names):
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError("result keys %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise BenchError("attempted %r" % res["attempted"])
    if not isinstance(res["failed"], int) or res["failed"] != 0:
        raise BenchError("failed %r" % res["failed"])
    if res["correct"] is not True:
        raise BenchError("result not correct")
    if set(res["metrics"]) != {n for n, _ in names}:
        raise BenchError("metric names differ from the declared list")
    for name, unit in names:
        m = res["metrics"][name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise BenchError("metric %s malformed: %r" % (name, m))
        if not isinstance(m["value"], (int, float)):
            raise BenchError("metric %s value %r" % (name, m["value"]))


def check_declared(root):
    """BENCHMARK.json, when present, declares exactly what run.py emits."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from run.py")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(names):
            raise BenchError("BENCHMARK.json %s differs from run.py" % key)


def smoke(root):
    check_declared(root)
    binary = build(root)
    seed = 7
    for workload in WORKLOADS:
        runs = [run_binary(binary, workload, seed, 0.2, trace, "tiny")
                for trace in (0, 0, 1)]
        prints = {r["fingerprint"] for r in runs}
        if len(prints) != 1:
            raise BenchError("%s fingerprint unstable for seed %d: %s"
                             % (workload, seed, sorted(prints)))
        for trace, raw in zip((0, 0, 1), runs):
            check_schema(result_line(raw, trace),
                         PER_LAYER if trace else END_TO_END)
        e2e = summarize(runs[0])[0]
        if min(e2e.values()) <= 0:
            raise BenchError("%s end-to-end metric not positive: %r"
                             % (workload, e2e))
        log("smoke %-14s ok  %s" % (workload, runs[0]["fingerprint"][:72]))
    print("smoke ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    try:
        if args.smoke:
            smoke(root)
        elif args.workload:
            measure(root, args)
        else:
            ap.error("--workload or --smoke is required")
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
