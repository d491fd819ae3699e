"""Quick self-test of the benchmark, at tiny sizes (about 20 seconds).

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that fault injection and the negative controls drive ``failed``
above zero, that a layer left out of the trace fails the coverage check,
that the benchmark refuses to run without ``src/gwlambda``, and that the
benchmark's own output checks reject corrupted results.
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "3", "--seconds", "0", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )
    return proc


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricNames(unittest.TestCase):
    def test_end_to_end_every_workload(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--trace", "0", "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in out["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_per_layer_every_workload(self):
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--trace", "1", "--tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertTrue(out["correct"])
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                self.assertEqual(got, want)
                coverage = out["metrics"]["trace.coverage"]["value"]
                self.assertTrue(0.9 <= coverage <= 1.1, coverage)

    def test_benchmark_json_matches_code(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in SPEC["per_layer"]],
            [(m, u) for m, u, _, _ in run.PER_LAYER],
        )


class NegativeControls(unittest.TestCase):
    def test_broken_equality_reads_as_failures(self):
        for name in ("sweep-rc-r2", "forms-batch"):
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--trace", "0", "--tiny", "--inject", "broken-eq")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                out = last_json(proc)
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"] / out["attempted"], 0)
                self.assertIn("negative control failed", proc.stderr)

    def test_unwrapped_layer_fails_coverage(self):
        proc = bench("--workload", "forms-batch", "--trace", "1", "--tiny", "--inject", "unwrap-exterior")
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("trace coverage", proc.stderr)
        self.assertEqual(proc.stdout.strip(), "")

    def test_refuses_without_sources(self):
        bare = run.WORK / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        try:
            proc = bench("--workload", "sweep-rc-r2", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class OutputChecks(unittest.TestCase):
    def test_witness_check(self):
        form = {"field": "fq:5", "gram": [["2"]]}
        # B = [[1, 1/(2g)], [1, -1/(2g)]] with g = 2: 1/4 = 4 mod 5.
        good = [["1", "4"], ["1", "1"]]
        self.assertTrue(run.witness_ok(form, good))
        self.assertFalse(run.witness_ok(form, [["1", "4"], ["1", "2"]]))
        self.assertFalse(run.witness_ok(form, [["1"]]))

    def test_sweep_counts(self):
        self.assertEqual(run.Sweep.expected({"r": 2, "bound": 2, "kmax": 4}), 532)
        self.assertEqual(run.Sweep.expected({"r": 1, "bound": 2, "kmax": 5}), 90)

    def test_sweep_record_count_must_match(self):
        record = json.dumps({"check": "product", "k": 1, "lhs": [], "rhs": [], "pass": True})

        class Child:
            code = 0

            def __init__(self, lines):
                self.text = "\n".join([record] * lines) + "\n"

            def stdout_text(self):
                return self.text

        sweep = run.WORKLOADS["sweep-rc-r2"]
        self.assertEqual(sweep.verify(Child(3), 3), 3)
        self.assertEqual(sweep.verify(Child(4), 3), 0)
        self.assertEqual(sweep.verify(Child(2), 3), 0)

    def test_weyl_inputs(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            _, count = run.WORKLOADS["weyl-b4d4"].prepare(1, False, Path(tmp))
        self.assertEqual(count, 18)


if __name__ == "__main__":
    unittest.main(verbosity=2)
