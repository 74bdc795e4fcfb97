#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They build perfbench through run.py (into $CARGO_TARGET_DIR or
.bench_build) and check that
  - BENCHMARK.json declares exactly the metrics the driver prints, with
    the same units, well-formed names and a known layer;
  - the fleet request generator is a pure function of the seed;
  - a minimum-length run of every workload run.py offers, declared in
    BENCHMARK.json or not, untraced and traced, ends correct with
    error_rate 0 and prints every declared metric.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own build/run entry point)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Per-layer metric prefix -> the simulator module it measures; names
# without a prefix describe the run as a whole.
LAYERS = {"fleet", "session_pool", "runtime", "cpu", "gpu", "shader_cache",
          "gmmu", "sched", "snapshot", "replay", "kclc", "bench", "trace"}


def perfbench(*args):
    binary = run.ensure_built(run.build_dir())
    return subprocess.run([str(binary), *args], capture_output=True, text=True,
                          check=True, timeout=60).stdout


def run_workload(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError("%s --trace %d failed:\n%s%s"
                             % (workload, trace, out.stdout, out.stderr))
    return out.stdout


class DeclaredMetrics(unittest.TestCase):
    def test_benchmark_json_matches_the_driver(self):
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
        printed = json.loads(perfbench("--list-metrics"))
        for kind in ("end_to_end", "per_layer"):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in declared[kind]],
                [(m["name"], m["unit"]) for m in printed[kind]], kind)
        names = [m["name"] for k in ("end_to_end", "per_layer")
                 for m in declared[k]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in declared["per_layer"]:
            if "." in m["name"]:
                self.assertIn(m["name"].split(".")[0], LAYERS, m["name"])
        # Declared workloads are those steady enough to gate on; every
        # workload run.py offers is still smoke-tested below.
        for w in declared["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class RequestGenerator(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(perfbench("--dump-requests", "7", "40"),
                         perfbench("--dump-requests", "7", "40"))

    def test_other_seed_other_bytes(self):
        a = perfbench("--dump-requests", "7", "40").split()
        b = perfbench("--dump-requests", "8", "40").split()
        self.assertEqual(len(a), len(b))
        self.assertFalse(set(a) & set(b))


class SmokeRuns(unittest.TestCase):
    def check(self, workload, trace):
        declared = json.loads((REPO / "BENCHMARK.json").read_text())
        kind = "per_layer" if trace else "end_to_end"
        lines = run_workload(workload, trace).splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertIn("error_rate 0.000000", "\n".join(lines))
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared[kind]})
        if trace:
            self.assertEqual(result["metrics"]["error_rate"]["value"], 0)
        else:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_workloads(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()
