"""discarr benchmark.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program under test is the
checkout's src/discarr, imported by child processes with PYTHONPATH set
to src and PYTHONHASHSEED fixed.  Workloads (see workloads.py and
sweep.py for why each was chosen):

  lattice-gallery  `discarr lattice gallery:<g> --json`, four jobs, each
                   in a fresh interpreter
  detect-polygon   `discarr detect gallery:polygon-<n> --json`, n = 7..10
  classify-sweep   one library process classifying a seeded sweep of
                   generic six-element arrangements

A pass runs the workload's fixed job list once.  Passes repeat while
one more still fits in --seconds (there is always at least one), so a
faster program gets more passes but each pass does the same work;
wall_s is the median pass.

Every time metric is reported at a reference speed (calib.py): a probe
inside each measuring process times a fixed chunk of pure-Python work
every 20 ms of CPU time, and a time is scaled by the probe's speed over
the same interval, with the probe's own time taken out.  This removes
the host's speed drift, which is larger than the program's run-to-run
variation.  The raw times, as read off the clock, are printed and kept
in the run's record.  Every job's answer
is checked; a wrong answer, a raise or a nonzero exit fails the job and
the benchmark exits 1.

With --trace 0 the result holds the end-to-end metrics.  With --trace 1
the same untraced passes run, then one traced pass (tracer.py), and the
result holds the per-layer metrics; trace.overhead_s is the traced pass
minus the median untraced pass.  The program is single-process and
single-threaded and nothing in it waits on a queue or lock, so no wait
metric exists.  Details of each run go to
.bench_build/perfbench/<workload>-seed<n>-trace<t>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # every child must end within this many seconds of start
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
KINDS = ("rational", "quadratic", "cyclotomic", "prime", "galois")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _span(name, field):
    return lambda s: s["spans"].get(name, {}).get(field, 0)


def _op(op):
    return lambda s: s["ops"].get(op, 0)


def _closure_yield(s):
    calls = _span("discriminantal.Lattice.closure", "calls")(s)
    return s["results"].get("discriminantal.intersection_lattice.flats", 0) / calls if calls else 0


def _draws(s):
    return sum(n for p, c, n in s["edges"]
               if (p, c) == ("discriminantal.reference_very_generic", "arrangement.is_generic"))


def _span_metrics(name, *fields):
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    return [(f"{name}.{f}", units[f], _span(name, f)) for f in fields]


# (name, unit, value from the merged trace summary); trace.overhead_s is
# added from the pass walls
PER_LAYER = (
    _span_metrics("discriminantal.Lattice.closure", "calls", "total_s")
    + _span_metrics("discriminantal.intersection_lattice", "self_s")
    + [("discriminantal.closure_yield", "ratio", _closure_yield)]
    + _span_metrics("discriminantal.reference_very_generic", "total_s")
    + [("discriminantal.reference_very_generic.draws", "count", _draws)]
    + _span_metrics("discriminantal.nvg_flats", "total_s")
    + _span_metrics("discriminantal.build_discriminantal", "total_s")
    + _span_metrics("detectors.quintuple_points", "calls", "total_s")
    + _span_metrics("detectors.quint_closure_checks", "self_s")
    + _span_metrics("detectors.quadral_points", "total_s")
    + _span_metrics("detectors.find_involutions", "total_s")
    + _span_metrics("detectors.good6_points", "calls", "total_s")
    + _span_metrics("detectors.pappus_closure_check", "self_s")
    + _span_metrics("arrangement.translate_solver", "calls", "total_s", "self_s")
    + _span_metrics("arrangement.projective_map_through", "calls")
    + _span_metrics("arrangement.is_generic", "calls", "total_s")
    + _span_metrics("linalg.det", "calls", "total_s")
    + _span_metrics("linalg.kernel", "total_s")
    + _span_metrics("linalg.solve", "total_s")
    + _span_metrics("permtype.arrangement_type", "self_s")
    + [(f"exactfield.{op}.{kind}", "count", _op(f"{op}.{kind}"))
       for op in ("mul", "inv") for kind in KINDS]
    + [("exactfield.eq.calls", "count", _op("eq")),
       ("exactfield.descriptor_eq.calls", "count", _op("descriptor_eq"))]
    + _span_metrics("gallery.build_gallery", "total_s")
    + _span_metrics("cli.main", "self_s")
)


class BenchError(Exception):
    """The benchmark could not run to the end."""


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.out_dir = ROOT / ".bench_build" / "perfbench"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def child(self, argv) -> subprocess.CompletedProcess:
        """Run one child to completion; it is killed and reaped if it
        would outlast the run's budget."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        try:
            return subprocess.run([sys.executable, *argv], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {argv[:3]} outlasted the run budget") from exc

    def worker(self, *args) -> dict:
        p = self.child([str(HERE / "worker.py"), *map(str, args)])
        if p.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {p.returncode}: {p.stderr.strip()[-2000:]}")
        return json.loads(p.stdout)

    def setup(self):
        """Median time from process start until discarr is imported and
        the inputs of a pass exist, over several fresh interpreters, at
        the reference speed; and the raw samples."""
        samples, raw, inputs = [], [], None
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            got = self.worker("setup", self.workload, self.seed)
            raw.append(time.perf_counter() - t0)
            probe = got["probe"]
            samples.append(calib.scale(raw[-1], probe["spent"], probe["chunk_mean"]))
            if inputs is not None and got["inputs"] != inputs:
                raise BenchError("setup produced different inputs for one seed")
            inputs = got["inputs"]
        return statistics.median(samples), raw, inputs

    # -- CLI workloads --------------------------------------------------------
    def cli_pass(self, inputs, trace_dir=None):
        """Run every CLI job once, each in a fresh interpreter; returns
        (per-job seconds at the reference speed, raw per-job seconds,
        problems per job, trace summaries)."""
        times, raw, problems, summaries = [], [], [], []
        probe_file = self.out_dir / f"{self.workload}-seed{self.seed}-probe.json"
        for i, job in enumerate(inputs["jobs"]):
            if trace_dir is None:
                argv = [str(HERE / "worker.py"), "job", str(probe_file), *job["argv"]]
            else:
                trace_file = trace_dir / f"job{i}.json"
                argv = [str(HERE / "worker.py"), "cli", str(trace_file), str(probe_file),
                        *job["argv"]]
            probe_file.unlink(missing_ok=True)
            t0 = time.perf_counter()
            p = self.child(argv)
            raw.append(time.perf_counter() - t0)
            try:
                probe = json.loads(probe_file.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise BenchError(f"job {job['name']} wrote no probe summary: "
                                 f"{p.stderr.strip()[-2000:]}") from exc
            times.append(calib.scale(raw[-1], probe["spent"], probe["chunk_mean"]))
            found = workloads.check_cli(self.workload, job, p.returncode, p.stdout,
                                        inputs.get("predicted"))
            if found and p.stderr.strip():
                found.append(p.stderr.strip()[-500:])
            problems.append(found)
            if trace_dir is not None:
                try:
                    with open(trace_file, encoding="utf-8") as fh:
                        summaries.append(json.load(fh))
                except OSError as exc:
                    raise BenchError(f"traced job {job['name']} wrote no trace: "
                                     f"{p.stderr.strip()[-2000:]}") from exc
        return times, raw, problems, summaries

    def run_cli(self, inputs) -> dict:
        walls, raw_walls, job_times, failures = [], [], [], []
        attempted = failed = 0

        def tally(problems):
            nonlocal attempted, failed
            for job, found in zip(inputs["jobs"], problems):
                attempted += 1
                if found:
                    failed += 1
                    failures.append(f"{job['name']}: {'; '.join(found)}")

        started = time.perf_counter()
        while workloads.another_pass(time.perf_counter() - started, len(walls), self.seconds):
            times, raw, problems, _ = self.cli_pass(inputs)
            walls.append(sum(times))
            raw_walls.append(sum(raw))
            job_times.append(times)
            tally(problems)
        result = {"walls": walls, "raw_walls": raw_walls, "job_times": job_times,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        if self.trace:
            trace_dir = self.out_dir / f"{self.workload}-seed{self.seed}-jobs"
            trace_dir.mkdir(parents=True, exist_ok=True)
            times, raw, problems, summaries = self.cli_pass(inputs, trace_dir)
            tally(problems)
            result["traced_wall"] = sum(times)
            result["raw_traced_wall"] = sum(raw)
            result["trace"] = tracer.merge(summaries)
        result.update(attempted=attempted, failed=failed, failures=failures)
        return result

    def run_sweep(self) -> dict:
        trace_file = self.out_dir / f"{self.workload}-seed{self.seed}-trace.json"
        result = self.worker("sweep", self.seed, self.seconds,
                             trace_file if self.trace else "-")
        if self.trace:
            with open(trace_file, encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        return result

    def run(self) -> dict:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        setup_s, raw_setup, inputs = self.setup()
        if self.workload == "classify-sweep":
            result = self.run_sweep()
        else:
            result = self.run_cli(inputs)
        result["setup_s"] = setup_s
        result["raw_setup"] = raw_setup
        return result


def tail(samples):
    """(value, percentile label, samples beyond it): the highest ladder
    percentile with at least ten samples beyond it, else the maximum."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return s[rank - 1], f"p{p:g}", n - rank
    return s[-1], "max", 0


def end_to_end(result) -> tuple[dict, list[str]]:
    """Metric values and notes on how each was taken."""
    walls = result["walls"]
    per_job = [statistics.median(ts) for ts in zip(*result["job_times"])]
    tail_v, tail_p, beyond = tail(per_job)
    values = {
        "setup_s": result["setup_s"],
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail_v,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters; raw "
                   f"{statistics.median(result['raw_setup']):.6g} s",
        "wall_s": f"median of {len(walls)} passes; raw "
                  f"{statistics.median(result['raw_walls']):.6g} s",
        "job_p50_ms": f"median over {len(per_job)} jobs of each job's median",
        "job_tail_ms": f"{tail_p} over {len(per_job)} jobs, {beyond} beyond it",
        "peak_rss_mb": "ru_maxrss of the process that ran the jobs (largest child for CLI jobs)",
    }
    lines = [f"{name} = {values[name]:.6g} {unit}  ({notes[name]})" for name, unit in END_TO_END]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lines


def per_layer(result) -> tuple[dict, list[str]]:
    summary = result["trace"]
    metrics = {name: {"value": get(summary), "unit": unit} for name, unit, get in PER_LAYER}
    overhead = result["traced_wall"] - statistics.median(result["walls"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines = [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return metrics, lines


def expected_spans_missing(workload, summary) -> list[str]:
    return [name for name in workloads.EXPECTED_SPANS[workload]
            if name in summary["installed"]
            and summary["spans"].get(name, {}).get("calls", 0) == 0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "discarr" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'discarr'} is missing", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = result["failed"] == 0
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"python {platform.python_version()}  nproc {os.cpu_count()}",
             f"failed_frac = {result['failed'] / result['attempted']:.6g} ratio  "
             f"({result['failed']} of {result['attempted']} jobs)"]
    lines += [f"FAILED {f}" for f in result["failures"]]
    if args.trace:
        metrics, more = per_layer(result)
        missing = expected_spans_missing(args.workload, result["trace"])
        if missing:
            correct = False
            more.append(f"FAILED expected spans recorded no calls: {', '.join(missing)}")
    else:
        metrics, more = end_to_end(result)
    lines += more

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "python": platform.python_version(),
              "nproc": os.cpu_count(), "correct": correct, "metrics": metrics,
              "result": result}
    out = runner.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
