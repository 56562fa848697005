"""Child process of the benchmark; run.py starts it with PYTHONPATH set
to the checkout's src directory and PYTHONHASHSEED fixed.

  worker.py setup <workload> <seed>
      import discarr, build the inputs of one pass, print a summary
  worker.py sweep <seed> <seconds> <trace-out or ->
      classify-sweep: untraced passes until <seconds> have passed, then,
      when a trace file is named, one traced pass
  worker.py job <probe-out> <discarr argument>...
      one CLI job: discarr's main, as `python -m discarr` runs it
  worker.py cli <trace-out> <probe-out> <discarr argument>...
      one traced CLI job: discarr's main with the tracer installed

The reference-speed probe (calib.py) runs from before discarr is
imported until the work ends.  job imports nothing of the benchmark but
the probe, so it pays what `python -m discarr` pays.  setup and sweep
print one JSON object on stdout that holds the probe's share; job and
cli leave stdout to the CLI and write the probe summary to <probe-out>.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import calib

PROBE = calib.Probe()
PROBE.start()

import discarr  # noqa: E402
import discarr.cli  # noqa: E402


def _setup(workload: str, seed: int) -> dict:
    import workloads

    if workload == "classify-sweep":
        import sweep
        return {"jobs": len(sweep.generate(seed))}
    jobs = workloads.cli_jobs(workload, seed)
    out = {"jobs": jobs}
    if workload == "detect-polygon":
        out["predicted"] = {}
        for job in jobs:
            fours, quints = discarr.predicted_polygon_sets(job["n"])
            out["predicted"][str(job["n"])] = {
                "quadral": [[list(s) for s in f.sets] for f in fours],
                "quints": [[q.center, list(q.ta), list(q.tb)] for q in quints],
            }
    return out


def _sweep(seed: int, seconds: float, trace_out: str) -> dict:
    import sweep
    import tracer
    import workloads

    jobs = sweep.generate(seed)
    walls, raw_walls, chunk_means, job_times, failures = [], [], [], [], []
    attempted = failed = 0

    def one_pass():
        """Run and check every job once; returns (wall, per-job seconds)
        at the reference speed, the raw wall and the pass's chunk mean."""
        nonlocal attempted, failed
        mark = PROBE.mark()
        wall, times, outputs = sweep.run_pass(jobs, PROBE)
        spent, chunks = PROBE.since(mark)
        mean = calib.chunk_mean(chunks)
        for job, out in zip(jobs, outputs):
            attempted += 1
            problems = sweep.check(job, out)
            if problems:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{job.label}: {'; '.join(problems)}")
        return (calib.scale(wall, spent, mean), [calib.scale(t, 0, mean) for t in times],
                wall, mean)

    started = time.perf_counter()
    while workloads.another_pass(time.perf_counter() - started, len(walls), seconds):
        wall, times, raw, mean = one_pass()
        walls.append(wall)
        raw_walls.append(raw)
        chunk_means.append(mean)
        job_times.append(times)
        if len(walls) == 1:
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"walls": walls, "raw_walls": raw_walls, "chunk_means": chunk_means,
              "job_times": job_times, "maxrss_kb": maxrss_kb}
    if trace_out != "-":
        t = tracer.Tracer()
        t.install(discarr)
        try:
            wall, _, raw, _ = one_pass()
        finally:
            t.uninstall()
        result["traced_wall"] = wall
        result["raw_traced_wall"] = raw
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(t.summary(), fh)
    result.update(attempted=attempted, failed=failed, failures=failures)
    return result


def _write(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cli(probe_out: str, argv: list[str]) -> int:
    try:
        return discarr.cli.main(argv)
    finally:
        PROBE.stop()
        _write(probe_out, PROBE.summary())


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        out = _setup(argv[1], int(argv[2]))
        PROBE.stop()
        print(json.dumps({"inputs": out, "probe": PROBE.summary()}))
        return 0
    if mode == "sweep":
        out = _sweep(int(argv[1]), float(argv[2]), argv[3])
        PROBE.stop()
        print(json.dumps(out))
        return 0
    if mode == "job":
        return _cli(argv[1], argv[2:])
    if mode == "cli":
        import tracer

        t = tracer.Tracer()
        t.install(discarr)
        try:
            return _cli(argv[2], argv[3:])
        finally:
            t.uninstall()
            _write(argv[1], t.summary())
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
