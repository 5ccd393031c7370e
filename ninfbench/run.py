#!/usr/bin/env python3
"""Repository benchmark: four closed-loop Ninf workloads over loopback TCP.

Builds the load generator (ninfbench.cpp) from this checkout's sources,
runs one workload and prints, as the last stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 ninfbench/run.py --workload rpc-small --seed 1 --seconds 10 --trace 0
    python3 ninfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 ninfbench/run.py --workload W ... --save runs.jsonl
    python3 ninfbench/run.py --compare OLD.jsonl NEW.jsonl

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--save appends each run's record, host fingerprint included, to a JSON
lines file; --compare reads two such files.  See ninfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ninfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ninfbench")
BINARY = os.path.join(BUILD_DIR, "ninfbench")
WORKLOADS = ["rpc-small", "linpack-multi", "dmmul-cached", "meta-dispatch"]
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("ninfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the binary up to date (build output
    goes to stderr so stdout stays the result stream)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to ninfbench/: not a repository checkout", 3)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ninfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace):
    """Runs the load generator once; returns its report (a dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    report = json.loads(lines[-1])
    report["fingerprint"] = dict(
        report.pop("host"),
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        git_sha=git_sha(),
        seed=seed,
        callers=report["callers"],
        connections=report["connections"],
        traffic="loopback TCP (127.0.0.1) only",
    )
    return report


def describe(report):
    """Human-readable lines printed before the result line."""
    out = ["# ninfbench %s seed=%s trace=%s: %d callers, %d connections, "
           "%d set-ups, %d phases, cache hit ratio %.4g over %d lookups"
           % (report["workload"], report["seed"], report["trace"],
              report["callers"], report["connections"], report["setups"],
              report["phases"], report["cache_hit_ratio"],
              report["cache_lookups"]),
           "# latency tail, median over phases (%d untraced calls): "
           "p%.4g = %.6g ms"
           % (report["latency_samples"], report["latency_tail_pct"],
              report["latency_tail_ms"]),
           "# fingerprint " + json.dumps(report["fingerprint"], sort_keys=True),
           "# calls/s per phase: " + " ".join(
               "%.4g" % v for v in report["phase_calls_per_s"])]
    for name, m in report["metrics"].items():
        out.append("#   %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    return out


def result_line(report):
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"],
                       "metrics": report["metrics"]})


def save(path, report):
    record = {k: report[k] for k in ("workload", "seed", "trace", "seconds",
                                     "correct", "attempted", "failed",
                                     "latency_samples", "latency_tail_pct",
                                     "latency_tail_ms", "fingerprint",
                                     "metrics")}
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


# ---- compare mode -----------------------------------------------------------

def load_runs(path):
    """{(workload, metric): [values]} and units, from a --save file."""
    runs, units = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
                units[name] = m["unit"]
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(old, new, better, bound):
    """One of: within bound, regressed, improved, unresolved."""
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "higher" else -1.0

    def gain(a, b):  # positive when b is better than a
        return sign * (b - a) / abs(a) if a else 0.0

    if all(gain(o, n) > 0 for o in old for n in new):
        return "improved"
    if bound is None:
        return "no bound"
    spread = max((o3 - o1) / abs(om) if om else 0.0,
                 (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        return "unresolved"
    if gain(om, nm) < -bound:
        return "regressed"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if gain(o, n) > 0)
    if gain(om, nm) * abs(om) > (o3 - o1) and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better, bounds = {}, {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        better[m["name"]] = m["better"]
        if "bound" in m:
            bounds[m["name"]] = m["bound"]
    old, units = load_runs(old_path)
    new, new_units = load_runs(new_path)
    units.update(new_units)
    status = 0
    metrics = sorted({k[1] for k in old} & {k[1] for k in new},
                     key=lambda n: (bounds.get(n) is None, n))
    for name in metrics:
        print("%s [%s, %s is better, bound %s]"
              % (name, units[name], better.get(name, "?"),
                 bounds.get(name, "none")))
        print("  %-14s %32s %32s %9s  %s" % ("workload", "old median [q1, q3]",
                                             "new median [q1, q3]",
                                             "new/old", "verdict"))
        for workload in WORKLOADS:
            o, n = old.get((workload, name)), new.get((workload, name))
            if not o or not n:
                continue
            oq, nq = quartiles(o), quartiles(n)
            v = verdict(o, n, better.get(name, "lower"), bounds.get(name))
            status |= v == "regressed"
            print("  %-14s %32s %32s %9s  %s (base: old median, %d vs %d runs)"
                  % (workload,
                     "%.5g [%.5g, %.5g]" % (oq[1], oq[0], oq[2]),
                     "%.5g [%.5g, %.5g]" % (nq[1], nq[0], nq[2]),
                     "%.4f" % (nq[1] / oq[1]) if oq[1] else "n/a",
                     v, len(o), len(n)))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print all its metrics")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--save", metavar="PATH",
                    help="append each run's record to this JSON lines file")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()

    if args.compare:
        sys.exit(compare(*args.compare))
    if not args.all and not args.workload:
        ap.error("give --workload, --all or --compare")
    build()
    reports = []
    for workload in (WORKLOADS if args.all else [args.workload]):
        report = run_one(workload, args.seed, args.seconds, args.trace)
        if args.save:
            save(args.save, report)
        print("\n".join(describe(report)), flush=True)
        reports.append(report)
    if args.all:
        sys.exit(0 if all(r["correct"] for r in reports) else 1)
    print(result_line(reports[0]))


if __name__ == "__main__":
    main()
