"""The classify-sweep workload: a seeded sweep over generic six-element
arrangements, run as one long library process.

Why this mix: thousands of tiny calls load the per-call overhead of the
library (descriptor checks, int lifting, 3x3 det, projective maps,
translate_solver), which the two CLI workloads barely touch.  A change
that speeds up long echelons but slows small-element arithmetic shows
here and nowhere else.

The sweep is stratified: every (k, field) stratum gets the same number
of arrangements, so a seed changes the parameters but never the mix,
and the cost of a pass moves little from seed to seed.  The fields are
Q (rational payloads of growing size), the prime fields F_7, F_11, F_13
(where small parameter sets make special types common) and the Galois
fields GF(4), GF(8), GF(9) (polynomial payloads).  GF(4) has only five
projective points, too few for six generic lines, so it appears for
k = 3 only.  The eight frozen witness-* arrangements are added to every
pass; two of them live over Q(sqrt 5) and Q(sqrt -3).

Each job calls arrangement_type, then quadral_points (k = 2) or
good6_points plus pappus_closure_check (k = 3), then translate_solver on
the sets of the first detected pattern.  Outputs are kept and checked
after the pass, outside the timed region.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import discarr as D

JOBS_PER_STRATUM = 80

K2_FIELDS = ("Q", "F7", "F11", "F13", "GF8", "GF9")
K3_FIELDS = ("Q", "F7", "F11", "F13", "GF4", "GF8", "GF9")


def make_fields() -> dict:
    return {
        "Q": D.Rational(),
        "F7": D.Prime(7),
        "F11": D.Prime(11),
        "F13": D.Prime(13),
        "GF4": D.Galois(2, (1, 1, 1)),
        "GF8": D.Galois(2, (1, 1, 0, 1)),
        "GF9": D.Galois(3, (1, 0, 1)),
    }


class Job:
    __slots__ = ("label", "arrangement", "expected_type")

    def __init__(self, label, arrangement, expected_type=None):
        self.label = label
        self.arrangement = arrangement
        self.expected_type = expected_type


def _sampler(field):
    """A function drawing one field element from an rng."""
    if field.characteristic() == 0:
        return lambda rng: field.from_fraction(
            Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
    elements = list(field.iter_elements())
    return lambda rng: rng.choice(elements)


def _generic_k3(rng, field, draw):
    while True:
        w, x, y, z = (draw(rng) for _ in range(4))
        if D.is_parameter_generic(field, w, x, y, z):
            return D.parametrized(field, w, x, y, z)


def _generic_k2(rng, field, draw):
    """Lines (1,0), (0,1), (1,1), (l_i, 1) for three distinct l_i != 0, 1."""
    zero, one = field.zero(), field.one()
    while True:
        lams = [draw(rng) for _ in range(3)]
        if len(set(lams)) < 3 or any(l == zero or l == one for l in lams):
            continue
        a = D.Arrangement(field, 2, [(1, 0), (0, 1), (1, 1)]
                          + [(l, one) for l in lams])
        if D.is_generic(a):
            return a


def generate(seed: int) -> list[Job]:
    """The job list of one pass; the same seed gives the same jobs."""
    rng = random.Random(f"classify-sweep-{seed}")
    fields = make_fields()
    jobs = []
    for k, names in ((2, K2_FIELDS), (3, K3_FIELDS)):
        build = _generic_k2 if k == 2 else _generic_k3
        for name in names:
            field = fields[name]
            draw = _sampler(field)
            for i in range(JOBS_PER_STRATUM):
                jobs.append(Job(f"k{k}-{name}-{i}", build(rng, field, draw)))
    for name in D.gallery_names():
        if name.startswith("witness-"):
            token = name[len("witness-"):]
            jobs.append(Job(name, D.build_gallery(name),
                            D.PartitionType.from_string(token).label()))
    rng.shuffle(jobs)
    return jobs


def run_job(a):
    """The timed library calls of one job; returns their outputs."""
    rep = D.arrangement_type(a)
    if a.k == 2:
        patterns = D.quadral_points(a)
        violations = []
    else:
        patterns = D.good6_points(a)
        violations = D.pappus_closure_check(a)
    t = D.translate_solver(a, patterns[0].sets) if patterns else None
    return rep, patterns, violations, t


def run_pass(jobs, probe):
    """Run every job once.  Returns (wall seconds, per-job seconds,
    per-job outputs or the exception raised); the per-job seconds exclude
    the time the calib.Probe spent in its chunks during the job."""
    clock = time.perf_counter
    times, outputs = [], []
    start = clock()
    for job in jobs:
        t0, s0 = clock(), probe.spent
        try:
            out = run_job(job.arrangement)
        except Exception as exc:  # a raising job is a failed job, not a crash
            out = exc
        times.append(clock() - t0 - (probe.spent - s0))
        outputs.append(out)
    return clock() - start, times, outputs


# ---------------------------------------------------------------------------
# answer checks, written against the benchmark's own arithmetic

def cofactor_det(rows):
    """Determinant by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, x in enumerate(rows[0]):
        term = x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _translate_problems(a, family, t) -> list[str]:
    """t must make each family set concurrent and keep every other
    hyperplane off that common point."""
    if t is None:
        return ["translate_solver found no translation for a detected pattern"]
    k = a.k

    def row(p):
        return list(a.normal(p)) + [t[p - 1]]

    problems = []
    for L in family:
        if not cofactor_det([row(p) for p in L]).is_zero():
            problems.append(f"translation does not make {L} concurrent")
        for q in a.indices:
            if q not in L and cofactor_det([row(p) for p in L[:k]] + [row(q)]).is_zero():
                problems.append(f"hyperplane {q} also passes through the point of {L}")
    return problems


def check(job: Job, out) -> list[str]:
    """Problems with one job's outputs; empty when the answer is right."""
    if isinstance(out, Exception):
        return [f"raised {type(out).__name__}: {out}"]
    a = job.arrangement
    rep, patterns, violations, t = out
    problems = []
    if job.expected_type is not None and rep.type.label() != job.expected_type:
        problems.append(f"type {rep.type.label()}, expected {job.expected_type}")
    if not rep.m_formula_consistent:
        problems.append("m(A) disagrees with the edge-count formula")
    if a.k == 2 and {f.matching() for f in patterns} != set(rep.matchings):
        problems.append("involution matchings differ from the 4-set matchings")
    if violations:
        problems.append(f"closure violations: {violations}")
    if patterns:
        problems += _translate_problems(a, patterns[0].sets, t)
    return problems
