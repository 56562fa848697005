"""The benchmark's traced runs, checked before the benchmark runs them.

A traced benchmark run fails when a job's answer is wrong or raises, or
when a span its workload expects is installed but never called.  This
runs one traced classify-sweep pass and, in process, one traced CLI job
of each CLI workload, with the benchmark's own tracer, job list and
checks from perfbench/, which it only imports.
"""

import sys
import types
from pathlib import Path

import discarr
import discarr.cli
from discarr import predicted_polygon_sets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _traced(fn):
    """fn() under the benchmark's tracer; its result and the trace summary."""
    t = tracer.Tracer()
    t.install(discarr)
    try:
        out = fn()
    finally:
        t.uninstall()
    return out, t.summary()


def test_traced_classify_sweep_pass_is_correct_and_complete():
    jobs = sweep.generate(4242)
    probe = types.SimpleNamespace(spent=0.0)  # run_pass reads only this
    (_, _, outputs), summary = _traced(lambda: sweep.run_pass(jobs, probe))
    problems = {job.label: sweep.check(job, out) for job, out in zip(jobs, outputs)}
    assert {label: p for label, p in problems.items() if p} == {}
    assert run.expected_spans_missing("classify-sweep", summary) == []


def test_traced_cli_jobs_are_correct_and_complete(capsys):
    # the reflection-predicted families, as the benchmark's setup builds them
    fours, quints = predicted_polygon_sets(7)
    predicted = {"7": {"quadral": [[list(s) for s in f.sets] for f in fours],
                       "quints": [[q.center, list(q.ta), list(q.tb)] for q in quints]}}
    for workload, name in (("detect-polygon", "polygon-7"), ("lattice-gallery", "crapo")):
        job = next(j for j in workloads.cli_jobs(workload, 0) if j["name"] == name)
        code, summary = _traced(lambda: discarr.cli.main(job["argv"]))
        stdout = capsys.readouterr().out
        assert workloads.check_cli(workload, job, code, stdout, predicted) == []
        assert run.expected_spans_missing(workload, summary) == []


def test_expected_spans_the_tracer_installs_nothing_for():
    # the traced runs skip an expected span with no installed function,
    # so deleting a function the benchmark names shows here and nowhere
    # else: these three name code the library no longer has
    _, summary = _traced(lambda: None)
    expected = {name for spans in workloads.EXPECTED_SPANS.values() for name in spans}
    assert expected - set(summary["installed"]) == {
        "discriminantal.Lattice.closure",
        "linalg.det",
        "discriminantal.build_discriminantal",
    }
