#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 20 --trace 0

builds perfbench/bench.exe from source with dune (into .bench_build/),
runs one workload, and prints the program's JSON result as the last line
of standard output. Build output and progress go to standard error.

    python3 perfbench/run.py --self-test [--seed N]

runs every workload twice per mode (untraced, traced) with the same seed
and checks that every deterministic value of the two runs is exactly
equal.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["ingest", "query", "churn", "ingest-sharded"]
RUN_TIMEOUT_S = 170

# Deterministic per seed: bytes, counts and modeled latency. The heap peak
# and the gc.* counts are exact only on one domain with no crash inside the
# run: a restart ticks the wall-clock crash.recovery_ms counter, whose
# allocations vary by a few words.
DETERMINISTIC_E2E = [
    "prov_bytes_per_event",
    "durable_bytes_per_event",
    "wire_bytes_per_event",
    "query_model_p99_ms",
]
DETERMINISTIC_LAYER_PREFIXES = [
    "engine.fired_per_event",
    "engine.dead_ends",
    "reliable.",
    "store.equi_hit_ratio",
    "store.bytes",
    "query.cache.",
    "query.entries_per_query",
    "query.rederives_per_query",
    "query.bytes_per_query",
    "query.degraded",
    "query.empty",
    "durable.wal_bytes",
    "durable.checkpoints",
    "durable.delta_cuts",
    "durable.checkpoint_bytes",
    "net.sends",
    "net.broadcasts",
    "net.bytes",
]
ALLOCATION_COUNTS = ["heap_peak_mb", "gc.minor_words_per_event", "gc.promoted_words_per_event",
                     "gc.major_collections"]
ALLOCATION_EXACT_ON = ["ingest", "query"]


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.path.exists(candidate):
            dune = candidate
    return dune


def build():
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("no %s at %s: the benchmark builds the program from source" % (needed, ROOT))
            return False
    dune = find_dune()
    if dune is None:
        log("dune not found on PATH")
        return False
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return False
    if proc.returncode != 0 or not os.path.exists(EXE):
        log("build failed")
        return False
    return True


def run_once(workload, seed, seconds, trace):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("%s timed out" % workload)
        return None
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        log("%s exited with %d" % (workload, proc.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("%s printed no result" % workload)
        return None
    return lines[-1], result


def deterministic(name, workload):
    if name in DETERMINISTIC_E2E:
        return True
    if name in ALLOCATION_COUNTS:
        return workload in ALLOCATION_EXACT_ON
    return any(name.startswith(p) for p in DETERMINISTIC_LAYER_PREFIXES)


def self_test(seed):
    ok = True
    for workload in WORKLOADS:
        same = True
        for trace in (0, 1):
            runs = [run_once(workload, seed, 1, trace) for _ in range(2)]
            if None in runs:
                return False
            (_, a), (_, b) = runs
            if not (a["correct"] and b["correct"]):
                log("%s: a self-test run was not correct" % workload)
                same = False
            for name, m in a["metrics"].items():
                if deterministic(name, workload) and m["value"] != b["metrics"][name]["value"]:
                    log("%s: %s differs between same-seed runs: %r vs %r"
                        % (workload, name, m["value"], b["metrics"][name]["value"]))
                    same = False
        log("%s: deterministic counts %s" % (workload, "equal" if same else "DIFFER"))
        ok = ok and same
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test(args.seed) else 1
    out = run_once(args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    print(out[0], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
