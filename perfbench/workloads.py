"""Workload definitions: the fixed job lists, why each was chosen, the
expected answers, and the checks the parent process applies to CLI
reports.  Nothing here imports discarr.

Answer checks read only ranks[].count, nvg_count, quadral_count,
quint_count and the quadral/quints lists of a report (the lists to check
coverage of the reflection-predicted families), and no job passes
--seed, so a report schema bump elsewhere or the removal of --seed
needs no change here.
"""

from __future__ import annotations

import json
import random

# lattice-gallery: `discarr lattice gallery:<g> --json` in a fresh
# interpreter per job.  99% of the time is in Lattice.closure (89% in its
# span-membership test).  crapo and f5 rebuild the same (6,2) reference
# lattice and dodecahedral and f4 the same (6,3) one, so work shared
# across inputs shows here.  octahedral is left out: its 11 s alone
# would dominate the pass.  Expected: flats per rank, and nvg_count equal
# to the arrangement's m(A) (the paper's identity).
LATTICE_JOBS = {
    "crapo": ([1, 20, 115, 180, 1], 2),
    "f5": ([1, 20, 115, 126, 1], 20),
    "dodecahedral": ([1, 15, 31, 1], 10),
    "f4": ([1, 15, 21, 1], 15),
}

# detect-polygon: `discarr detect gallery:polygon-<n> --json`, cyclotomic
# Q(zeta_4n), the only cyclotomic load.  94% of the time is in
# quintuple_points, run twice per job (directly and inside
# quint_closure_checks).  The discriminantal layer does no work here, so
# this is the no-change side for lattice work, and lattice-gallery is
# the no-change side for detector work.  Expected: (quadral, quint).
POLYGON_JOBS = {7: (14, 28), 8: (80, 104), 9: (72, 306), 10: (240, 900)}

WORKLOADS = ("lattice-gallery", "detect-polygon", "classify-sweep")

# Spans each workload must record; a traced run in which one of these is
# installed but was never called fails, so a wrapper that was never
# reached cannot read as free.
EXPECTED_SPANS = {
    "lattice-gallery": ("cli.main", "gallery.build_gallery",
                        "discriminantal.build_discriminantal",
                        "discriminantal.intersection_lattice",
                        "discriminantal.Lattice.closure"),
    "detect-polygon": ("cli.main", "gallery.build_gallery",
                       "detectors.quadral_points", "detectors.quintuple_points",
                       "detectors.quint_closure_checks"),
    "classify-sweep": ("permtype.arrangement_type", "detectors.find_involutions",
                       "detectors.quadral_points", "detectors.good6_points",
                       "detectors.pappus_closure_check",
                       "arrangement.translate_solver",
                       "arrangement.projective_map_through",
                       "arrangement.is_generic", "linalg.det"),
}


def another_pass(elapsed: float, passes: int, seconds: float) -> bool:
    """True when no pass has run yet, or when one more pass of the
    average length so far still ends within the measuring time."""
    return passes == 0 or elapsed + elapsed / passes <= seconds


def cli_jobs(workload: str, seed: int) -> list[dict]:
    """The CLI job list of one pass, in a seeded order."""
    if workload == "lattice-gallery":
        jobs = [{"name": g, "argv": ["lattice", f"gallery:{g}", "--json"]}
                for g in LATTICE_JOBS]
    elif workload == "detect-polygon":
        jobs = [{"name": f"polygon-{n}", "n": n,
                 "argv": ["detect", f"gallery:polygon-{n}", "--json"]}
                for n in POLYGON_JOBS]
    else:
        raise ValueError(f"{workload} has no CLI jobs")
    random.Random(f"{workload}-{seed}").shuffle(jobs)
    return jobs


def check_cli(workload: str, job: dict, returncode: int, stdout: str,
              predicted: dict | None = None) -> list[str]:
    """Problems with one CLI job's result; empty when the answer is right.
    predicted maps polygon n to its reflection-predicted families."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        results = json.loads(stdout)["results"]
        if workload == "lattice-gallery":
            return _lattice_problems(LATTICE_JOBS[job["name"]], results)
        return _polygon_problems(job["n"], results, predicted[str(job["n"])])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def _lattice_problems(expected, results) -> list[str]:
    counts, m_a = expected
    problems = []
    got = [level["count"] for level in results["ranks"]]
    if got != counts:
        problems.append(f"flats per rank {got}, expected {counts}")
    if results["nvg_count"] != m_a:
        problems.append(f"nvg_count {results['nvg_count']}, expected m(A) = {m_a}")
    return problems


def _polygon_problems(n, results, predicted) -> list[str]:
    problems = []
    got = (results["quadral_count"], results["quint_count"])
    if got != POLYGON_JOBS[n]:
        problems.append(f"(quadral, quint) {got}, expected {POLYGON_JOBS[n]}")
    quads = {json.dumps(s) for s in results["quadral"]}
    quints = {json.dumps([q["center"], q["ta"], q["tb"]]) for q in results["quints"]}
    if not {json.dumps(s) for s in predicted["quadral"]} <= quads:
        problems.append("detected 4-sets miss a reflection-predicted one")
    if not {json.dumps(q) for q in predicted["quints"]} <= quints:
        problems.append("detected quint families miss a reflection-predicted one")
    return problems
