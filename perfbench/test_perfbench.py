#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny size.

Run from the repository root:

    python3 perfbench/test_perfbench.py

They build and run the benchmark through `perfbench/run.py` exactly as a
benchmark run does, with `--size tiny`, and check the result records
against BENCHMARK.json. The Rust unit tests of the benchmark crate run
with `cargo test --release --manifest-path perfbench/Cargo.toml`.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def tiny(workload, *args):
    return run("--workload", workload, "--size", "tiny", "--seconds", "1", *args)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Records(unittest.TestCase):
    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = tiny(workload, "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    r = result(proc)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"], proc.stdout)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {name: m["unit"] for name, m in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in r["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                        if kind == "end_to_end":
                            self.assertGreater(m["value"], 0, name)

    def test_one_nan_cell_fails_steps(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result(tiny(workload, "--trace", "1", "--inject-nan", "1"))
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertGreater(r["metrics"]["failed_step_frac"]["value"], 0)

    def test_distributed_state_equals_serial_replay_bitwise(self):
        proc = tiny("dist2_tracking", "--trace", "0")
        self.assertIn("bitwise equal to the serial Stepper", proc.stdout)
        self.assertTrue(result(proc)["correct"])

    def test_same_seed_same_final_state(self):
        def digest(seed):
            lines = tiny("comet_subcycled", "--seed", seed).stdout.splitlines()
            return [l for l in lines if "final-state digest" in l][0].split()[-1]
        self.assertEqual(digest("3"), digest("3"))
        self.assertNotEqual(digest("3"), digest("4"))

    def test_fails_without_the_library_sources(self):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("--workload", "mhd3d_m16", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


def log(workload, seed, value):
    prov = {"workload": workload, "seed": seed, "traced": False}
    res = {"correct": True, "attempted": 1, "failed": 0,
           "metrics": {"time_to_solution_s": {"value": value, "unit": "s"}}}
    return json.dumps({"provenance": prov}) + "\n" + json.dumps(res) + "\n"


class Compare(unittest.TestCase):
    def verdict(self, base, change):
        scratch = ROOT / ".bench_out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for side, values in (("base", base), ("change", change)):
                (Path(tmp) / side).mkdir()
                for seed, v in enumerate(values):
                    (Path(tmp) / side / f"{seed}.log").write_text(log("w", seed, v))
            out = subprocess.run(
                [sys.executable, str(HERE / "compare.py"), f"{tmp}/base", f"{tmp}/change"],
                capture_output=True, text=True, check=True).stdout
        row = [l for l in out.splitlines() if "time_to_solution_s" in l][0]
        return row.split()[-1]

    def test_verdicts(self):
        base = [100 + (i % 3) for i in range(10)]
        self.assertEqual(self.verdict(base, [v * 0.8 for v in base]), "better")
        self.assertEqual(self.verdict(base, [v * 1.3 for v in base]), "worse")
        self.assertEqual(self.verdict(base, [v * 1.01 for v in base]), "unchanged")
        noisy = [50, 150, 60, 140, 100, 55, 145, 65, 135, 100]
        self.assertEqual(self.verdict(noisy, noisy), "unresolved")
        self.assertEqual(self.verdict(noisy, [10] * 10), "better")

    def test_quartiles_match_the_statistics_module(self):
        self.assertEqual(compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5))


if __name__ == "__main__":
    unittest.main(verbosity=2)
