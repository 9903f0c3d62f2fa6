#!/usr/bin/env python3
"""The benchmark's own tests (about a minute):

    python3 perfbench/test_perfbench.py

- every workload passes its correctness checks on the default seed and
  on the held-out seed, and two processes with one seed agree exactly
  on the trajectory digest and on every simulated metric;
- the traced run reports every per-layer metric and agrees with the
  untraced digest (the program checks the latter itself);
- in a directory holding only BENCHMARK.json and the benchmark, the
  command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# Simulated metrics: a pure function of (workload, seed, --seconds).
DETERMINISTIC = ["events_per_pair", "sim_pairs_per_s", "sim_latency_p50_s",
                 "sim_latency_p90_s", "sim_fidelity_mean", "request_ok_ratio"]
WORKLOADS = [w["name"] for w in run.SPEC["workloads"]]


def bench(*args, cwd=ROOT, env=None):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc


def result_of(proc):
    lines = proc.stdout.splitlines()
    digest = [l.split()[-1] for l in lines
              if l.startswith("trajectory_digest:")]
    return json.loads(lines[-1]), digest


class Determinism(unittest.TestCase):
    def test_seeds_pass_and_repeat_exactly(self):
        for name in WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                with self.subTest(workload=name, seed=seed):
                    outs = []
                    for _ in range(2):
                        proc = bench("--workload", name, "--seed", str(seed),
                                     "--seconds", "1", "--trace", "0")
                        self.assertEqual(proc.returncode, 0, proc.stderr)
                        outs.append(result_of(proc))
                    (a, da), (b, db) = outs
                    self.assertTrue(a["correct"] and b["correct"])
                    self.assertEqual(a["failed"], 0)
                    self.assertEqual(len(da), 1)
                    self.assertEqual(da, db)
                    for m in DETERMINISTIC:
                        self.assertEqual(a["metrics"][m], b["metrics"][m], m)


class Traced(unittest.TestCase):
    def test_every_per_layer_metric(self):
        want = {m["name"] for m in run.SPEC["per_layer"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed",
                             str(run.DEFAULT_SEED), "--seconds", "1",
                             "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, _ = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), want)
                self.assertGreater(
                    result["metrics"]["trace.overhead"]["value"], 0.0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        # The bare checkout shares this checkout's target directory, by
        # absolute path, after this checkout has built there: it must
        # not build and measure this checkout's sources.
        bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
              "--trace", "0")
        target = run.build_dir().parent
        bare = target / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=str(target))
        try:
            proc = bench("--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare,
                         env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            shutil.rmtree(target / run.build_dir(bare).name,
                          ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
