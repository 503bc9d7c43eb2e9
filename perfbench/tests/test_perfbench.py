"""Self-tests for the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. They build perfbench (as run.py does)
and drive tiny-size runs of every workload, so they take about a
minute on a warm build.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload perfbench runs. bulk_tcp is not listed in
# BENCHMARK.json (see README.md) but stays runnable and tested.
WORKLOADS = ("fleet_storm", "bulk_tcp", "web_conns")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
VIRTUAL = ("virt_p50_ms", "virt_p99_ms", "virt_goodput_mbps",
           "virt_conns_per_s")


def tiny_run(workload, seed, trace, context=None):
    """One tiny run through run.py; returns (exit code, result). The
    '#' lines' key=value pairs go into @p context when it is given."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if context is not None:
        for line in lines[:-1]:
            if line.startswith("#"):
                context.update(kv.split("=", 1) for kv in line.split()
                               if "=" in kv)
    return proc.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_tiny_runs_complete_without_failures(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    rc, result = tiny_run(workload, 7, trace)
                    self.assertEqual(rc, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

    def test_emitted_metrics_are_declared_and_valid(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, result = tiny_run(workload, 3, trace)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(result["metrics"]), set(declared))
                    for name, m in result["metrics"].items():
                        self.assertRegex(name, NAME_RE)
                        self.assertEqual(m["unit"], declared[name])

    def test_same_seed_gives_identical_virtual_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a = tiny_run(workload, 11, 0)
                _, b = tiny_run(workload, 11, 0)
                for name in VIRTUAL:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_host_time_is_fastest_slices_at_reference_speed(self):
        for workload in ("fleet_storm", "web_conns"):
            with self.subTest(workload=workload):
                context = {}
                _, result = tiny_run(workload, 5, 0, context)
                self.assertGreater(int(context["slices"]), 2)
                scale = float(context["scale"])
                self.assertGreater(scale, 0)
                self.assertAlmostEqual(
                    result["metrics"]["host_s"]["value"],
                    float(context["fastest_slices_s"]) * scale,
                    delta=1e-3 * result["metrics"]["host_s"]["value"])
                self.assertAlmostEqual(
                    result["metrics"]["setup_s"]["value"],
                    float(context["median_setup_cpu_s"]) * scale,
                    delta=1e-3 * result["metrics"]["setup_s"]["value"])

    def test_result_shape_check_rejects_undeclared_metrics(self):
        bad = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {"not_declared": {"value": 1, "unit": "s"}}}
        problems = run.check_result(bad, 0)
        self.assertIn("emitted metric not_declared not declared", problems)


if __name__ == "__main__":
    unittest.main()
