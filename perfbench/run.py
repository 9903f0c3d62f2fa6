#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run workloads,
check their outputs and print every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, then a table

With --workload, the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Without --workload, each workload of BENCHMARK.json runs as
its own process and a table of all metrics follows.

The build goes to perfbench-<checkout key> under $CARGO_TARGET_DIR
(default .bench_build, under the root of the checkout), so checkouts
that share a target directory never build each other's sources; traced
runs write their spans there too.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DEFAULT_SEED = 7
# Kept out of tuning; later performance claims must also hold on it.
HELD_OUT_SEED = 20261017

RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir(root=ROOT):
    """The build tree of the checkout at `root`."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    key = hashlib.sha1(str(root).encode()).hexdigest()[:12]
    return target / f"perfbench-{key}"


def build():
    """Configure and build the measuring program; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap once cached, and it fails when
        # the cache belongs to another source tree.
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """Schema check of the program's result line; returns problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append("metrics missing %s, unexpected %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("%s unit %r != %r" % (name, m.get("unit"),
                                                   want[name]))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s value %r is not a finite number" % (name,
                                                                    value))
    return problems


def run_workload(binary, name, seed, seconds, trace):
    """Run one workload in its own process. Returns (ok, result, lines)."""
    cmd = [str(binary), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans" / f"{name}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{name}: timed out after {RUN_TIMEOUT_S} s")
        return False, None, []
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"{name}: no output (exit {proc.returncode})")
        return False, None, []
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{name}: last line is not JSON: {lines[-1]!r}")
        return False, None, lines
    problems = check_result(result, trace)
    for p in problems:
        log(f"{name}: bad result: {p}")
    ok = (proc.returncode == 0 and not problems and result["correct"] is True
          and result["failed"] == 0)
    if not ok and not problems:
        result["correct"] = False
    return ok, (None if problems else result), lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = [w["name"] for w in SPEC["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.workload is not None:
        ok, result, lines = run_workload(binary, args.workload, args.seed,
                                         args.seconds, args.trace)
        if result is None:
            return 1
        print("\n".join(lines))
        print(json.dumps(result))
        return 0 if ok else 1

    results = {}
    all_ok = True
    for name in names:
        log(f"== {name} (seed {args.seed})")
        ok, result, lines = run_workload(binary, name, args.seed,
                                         args.seconds, args.trace)
        all_ok &= ok
        print("\n".join(f"[{name}] {line}" for line in lines))
        results[name] = result
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    print("\n%-28s %-8s" % ("metric", "unit")
          + "".join(" %14s" % n for n in names))
    for m in metrics:
        row = "%-28s %-8s" % (m["name"], m["unit"])
        for name in names:
            r = results[name]
            row += " %14.6g" % r["metrics"][m["name"]]["value"] if r else \
                " %14s" % "-"
        print(row)
    print("%-37s" % "correct" + "".join(
        " %14s" % (results[n]["correct"] if results[n] else "error")
        for n in names))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
