"""The benchmark's own tests.

  python3 perfbench/selftest.py            # all tests, about 5 minutes
  python3 perfbench/selftest.py -k Quick   # the fast ones only

Run from the root of a checkout.  The determinism test makes two traced
runs per workload with one seed and requires every counter (calls,
parent -> child edges, field operations, flats found) to be identical.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


class QuickTests(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _ in run.PER_LAYER] + [("trace.overhead_s", "s")])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_tail_takes_the_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail(range(1, 1049))[1:], ("p99", 10))
        self.assertEqual(run.tail(range(1, 1049))[0], 1038)
        self.assertEqual(run.tail([3, 1, 2, 4]), (4, "max", 0))

    def test_cofactor_det(self):
        import discarr as D
        import sweep

        q = D.Rational()
        rows = [[q.from_int(v) for v in r] for r in ((2, 0, 1), (1, 3, 2), (1, 1, 2))]
        self.assertEqual(sweep.cofactor_det(rows), q.from_int(6))
        rows[2] = [rows[0][i] + rows[1][i] for i in range(3)]
        self.assertTrue(sweep.cofactor_det(rows).is_zero())

    def test_sweep_generation_is_seeded(self):
        import discarr as D
        import sweep

        def digest(seed):
            return [(j.label, json.dumps(D.arrangement_to_json(j.arrangement)))
                    for j in sweep.generate(seed)]

        first = digest(5)
        self.assertEqual(first, digest(5))
        self.assertNotEqual(first, digest(6))
        self.assertEqual(len(first), 13 * sweep.JOBS_PER_STRATUM + 8)

    def test_probe_scales_by_its_own_speed(self):
        import calib

        ref = calib.REFERENCE_CHUNK_S
        self.assertAlmostEqual(calib.scale(3.0, 1.0, 2 * ref), 1.0)
        # the slowest tenth of the chunks is dropped before the mean
        self.assertAlmostEqual(calib.chunk_mean([1.0] * 9 + [100.0]), 1.0)
        probe = calib.Probe()
        probe.start()
        try:
            deadline = time.process_time() + 0.2
            while time.process_time() < deadline:
                pass
        finally:
            probe.stop()
        self.assertGreaterEqual(len(probe.chunks), 5)
        self.assertAlmostEqual(probe.spent, sum(probe.chunks))

    def test_probe_keeps_large_writes_to_a_pipe_whole(self):
        # a signal in a blocked pipe write must not cut a CLI report short
        child = ("import sys; sys.path.insert(0, sys.argv[1]); import calib, time\n"
                 "p = calib.Probe(); p.start(); t = time.process_time() + 0.3\n"
                 "while time.process_time() < t: pass\n"
                 "print('x' * 3_000_000); p.stop()")
        for _ in range(5):
            out = subprocess.run([sys.executable, "-c", child, str(HERE)],
                                 capture_output=True, text=True, timeout=60).stdout
            self.assertEqual(len(out), 3_000_001)

    def test_cli_job_order_is_seeded(self):
        self.assertEqual(workloads.cli_jobs("detect-polygon", 3),
                         workloads.cli_jobs("detect-polygon", 3))


def _counters(workload: str, seed: int) -> dict:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    if p.returncode != 0:
        raise AssertionError(f"traced run failed: {p.stderr[-2000:]}")
    record = json.loads((ROOT / ".bench_build" / "perfbench"
                         / f"{workload}-seed{seed}-trace1.json").read_text(encoding="utf-8"))
    trace = record["result"]["trace"]
    return {
        "calls": {n: v["calls"] for n, v in trace["spans"].items()},
        "edges": trace["edges"],
        "ops_by_span": trace["ops_by_span"],
        "results": trace["results"],
        "metrics": {n: m["value"] for n, m in record["metrics"].items()
                    if m["unit"] in ("count", "ratio")},
    }


class DeterminismTests(unittest.TestCase):
    def test_traced_counters_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(_counters(workload, 7), _counters(workload, 7))


if __name__ == "__main__":
    unittest.main()
