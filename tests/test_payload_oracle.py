"""Involutions, the echelon routine and the translate solver against the
FieldElement paths they replaced.

The oracles below are the original routines: find_involutions building
one projective map per matching of the six lines and keeping those that
swap every pair, each map composed of FieldElement frames
(oracle_projective_map_through), reduced row echelon form on
FieldElement rows (with rank, kernel, a solution of M x = b and the
inverse built on it), and translate_solver on FieldElement
discriminantal rows, kernel and head inverses, which tests an extra
incidence of q with a family set L through the common point x_L(t) =
head^-1 t.  The library tests the 2 x 2 pairing condition before
building any map, reduces raw payloads (the span's rank, kernel and
null vectors), and searches translations on
payloads, testing the same incidence as t on the discriminantal normal
of L's head and q, so its kernel is its only span; it builds each map in
closed form on payloads.  Maps, involutions and the echelon must agree
exactly.  The solver searches on coordinates k+1..n, modulo the rigid
translations, where the oracle searches on all n: it must reach the
oracle's outcome, and a translation it finds must vanish on coordinates
1..k, pass a cofactor incidence check, and, on a kernel of k rigid
translations plus one direction, be proportional to the oracle's with
its rigid part removed.  The payload work of one map and one
translation is pinned.  The solver's index plan is memoised per family:
it must match the oracle on a cold and a warm memo and under any
spelling of the family, never cache a refusal, and hold one plan per
family the census detects.
"""

import random
from collections import Counter
from functools import cache
from itertools import chain, combinations, product

import pytest

from discarr import (
    Arrangement,
    IndexFamily,
    NotGeneric,
    Prime,
    build_gallery,
    discriminantal_normal,
    find_involutions,
    format_element,
    good6_points,
    is_generic,
    projective_map_through,
    quadral_points,
    translate_solver,
)
from discarr import arrangement, detectors, linalg
from discarr.arrangement import DegeneratePoints, NoGenericWitness, _payload_rows, _projected
from discarr.exactfield import FieldElement, FieldMismatch
from discarr.linalg import DimensionMismatch

from _helpers import (
    count_payload_calls,
    fourset_candidates,
    imposed_k2,
    oracle_maps_to,
    oracle_projective_map_through,
    oracle_proportional,
    payload_span,
    perfect_matchings,
    span_kernel,
    span_solution,
    translation_problems,
)
from test_census import FIELDS as CENSUS_FIELDS, LINE_FIELDS, line_classes, plane_classes
from test_classify_oracle import FIELDS, _sampler, seeded_planes


# ---------------------------------------------------------------------------
# oracles

def oracle_rref(rows, field):
    """In-place reduced row echelon form on FieldElement rows."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def oracle_rank(m):
    return len(oracle_rref([list(r) for r in m], m[0][0].fd))


def oracle_kernel(m):
    field, ncols = m[0][0].fd, len(m[0])
    rows = [list(r) for r in m]
    pivots = oracle_rref(rows, field)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def oracle_inverse(m):
    n, field = len(m), m[0][0].fd
    aug = [list(r) + [field.one() if i == j else field.zero() for j in range(n)]
           for i, r in enumerate(m)]
    pivots = oracle_rref(aug, field)
    if pivots and pivots[-1] >= n:
        raise ZeroDivisionError(f"singular {n}x{n} matrix")
    return [row[n:] for row in aug]


def oracle_solve(m, b):
    field, ncols = m[0][0].fd, len(m[0])
    aug = [list(r) + [e] for r, e in zip(m, b)]
    pivots = oracle_rref(aug, field)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][ncols]
    return tuple(x)


def oracle_find_involutions(a):
    """One projective map per matching, kept when it swaps every pair."""
    if not is_generic(a):
        raise NotGeneric("parallel or repeated lines")
    out = []
    for pairs in perfect_matchings(a.indices):
        src = tuple(a.normal(x) for x, _ in pairs)
        dst = tuple(a.normal(y) for _, y in pairs)
        f = oracle_projective_map_through(src, dst)
        if all(oracle_maps_to(f, dst[i], src[i]) for i in range(3)):
            out.append((frozenset(frozenset(p) for p in pairs), f))
    return out


def oracle_translate_solver(a, family):
    """translate_solver on FieldElements, with the oracle kernel and
    inverse; the same search order as the library.  Each extra incidence
    is alpha_q . x_L(t) - t_q with x_L(t) = head^-1 t, which the library
    tests, up to a nonzero scalar, as the discriminantal normal of L's
    head and q."""
    family = IndexFamily(family)
    f = a.field
    k, n = a.k, a.n
    rows = [list(discriminantal_normal(a, sub))
            for L in family for sub in combinations(L, k + 1)]
    basis = oracle_kernel(rows)
    if not basis:
        return None
    functionals = []
    for L in family:
        head = L[:k]
        minv = oracle_inverse([a.normal(p) for p in head])
        for q in a.indices:
            if q in L:
                continue
            lam = [f.zero()] * n
            aq = a.normal(q)
            for j, p in enumerate(head):
                coef = f.zero()
                for i in range(k):
                    coef = coef + aq[i] * minv[i][j]
                lam[p - 1] = coef
            lam[q - 1] = lam[q - 1] - f.one()
            functionals.append(lam)
    evaluated = []
    for lam in functionals:
        vals = tuple(sum((x * y for x, y in zip(lam, b)), f.zero()) for b in basis)
        if all(v.is_zero() for v in vals):
            return None
        evaluated.append(vals)

    def admissible(coeffs):
        for vals in evaluated:
            acc = f.zero()
            for c, v in zip(coeffs, vals):
                if c is not None:
                    acc = acc + c * v
            if acc.is_zero():
                return None
        t = [f.zero()] * n
        for c, b in zip(coeffs, basis):
            if c is not None:
                t = [x + c * y for x, y in zip(t, b)]
        return tuple(t)

    def candidates(dim):
        # the walk t(c) = sum c^i b_i, c = 0..F(dim - 1), when those c are
        # distinct in the field; otherwise every nonzero kernel vector
        bound = len(evaluated) * (dim - 1)
        char = f.characteristic()
        if char == 0 or char > bound:
            for c in range(bound + 1):
                yield [f.from_int(c) ** i for i in range(dim)]
            return
        elems = list(f.iter_elements())
        if len(elems) ** dim > 10 ** 6:
            raise NoGenericWitness("kernel too large to enumerate")
        for c in product(elems, repeat=dim):
            if not all(x.is_zero() for x in c):
                yield list(c)

    for coeffs in candidates(len(basis)):
        t = admissible(coeffs)
        if t is not None:
            return t
    raise NoGenericWitness("no candidate avoids the extra incidences")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotGeneric, NoGenericWitness, DegeneratePoints,
            FieldMismatch, DimensionMismatch) as exc:
        return type(exc)


def _fmt(v):
    return None if v is None else tuple(format_element(x) for x in v)


def _fmt_map(f):
    return tuple(_fmt(r) for r in f)


# ---------------------------------------------------------------------------
# seeded inputs

K2_FIELDS = ("Q", "F7", "F11", "F13", "GF8", "GF9")


def seeded_lines(name, count=12):
    """Six lines with random normals over the named field, generic ones
    and a few with a repeated line; over Q, lines built around one exact
    pairing condition, since random rational lines have no involution."""
    fd = FIELDS[name]
    rng = random.Random(f"payload-oracle-lines-{name}")
    if name == "Q":
        out = [imposed_k2(rng) for _ in range(count)]
    else:
        draw = _sampler(fd)
        out = []
        while len(out) < count:
            a = Arrangement(fd, 2, [(draw(rng), draw(rng)) for _ in range(6)])
            if is_generic(a):
                out.append(a)
    base = out[0]
    out.append(Arrangement(fd, 2, base.normals[:5] + (base.normal(2),)))
    return out


def gallery_witnesses():
    return [build_gallery(g) for g in ("witness-1^6", "witness-1^4,2^1", "witness-1^3,3^1",
                                       "witness-1^2,2^2", "witness-1^2,4^1",
                                       "witness-1^1,2^1,3^1", "witness-1^1,5^1",
                                       "witness-3^2")]


# ---------------------------------------------------------------------------
# involutions

@pytest.mark.parametrize("name", K2_FIELDS)
def test_involutions_match_map_per_matching_oracle(name):
    tally = Counter()
    for a in seeded_lines(name):
        expected = _outcome(oracle_find_involutions, a)
        if expected is NotGeneric:
            with pytest.raises(NotGeneric, match="parallel or repeated lines"):
                find_involutions(a)
            tally["not generic"] += 1
            continue
        found = find_involutions(a)
        assert [m for m, _ in found] == [m for m, _ in expected]
        for (_, f), (_, g) in zip(found, expected):
            assert _fmt_map(f) == _fmt_map(g)
        tally["involutions"] += len(found)
    assert tally["not generic"] and tally["involutions"]


def test_involutions_match_oracle_on_gallery():
    for g in ("crapo", "octahedral", "f5", "polygon-6"):
        a = build_gallery(g)
        found, expected = find_involutions(a), oracle_find_involutions(a)
        assert [m for m, _ in found] == [m for m, _ in expected]
        for (_, f), (_, h) in zip(found, expected):
            assert _fmt_map(f) == _fmt_map(h)


def test_one_map_per_involution(monkeypatch):
    # the pairing test runs on the 2 x 2 minors; a map is built only for
    # the matchings that pass (the map-per-matching path builds 15)
    calls = Counter()

    def counting(src, dst):
        calls["maps"] += 1
        return projective_map_through(src, dst)

    monkeypatch.setattr(detectors, "projective_map_through", counting)
    for g in ("crapo", "octahedral", "f5", "polygon-6"):
        calls.clear()
        found = find_involutions(build_gallery(g))
        assert found
        assert calls["maps"] == len(found)


# ---------------------------------------------------------------------------
# projective maps

MAP_FIELDS = ("Q", "sqrt5", "F7", "F11", "GF8", "GF9")


@pytest.mark.parametrize("name", MAP_FIELDS)
def test_projective_maps_match_fieldelement_oracle(name):
    # every matching of the seeded lines, the last of which repeats a
    # line, so some frames have coincident points: the same entries, byte
    # for byte, or the same exception
    tally = Counter()
    for a in seeded_lines(name, count=6):
        for pairs in perfect_matchings(a.indices):
            src = [a.normal(x) for x, _ in pairs]
            dst = [a.normal(y) for _, y in pairs]
            want = _outcome(oracle_projective_map_through, src, dst)
            got = _outcome(projective_map_through, src, dst)
            if isinstance(want, type):
                assert got is want
                tally[want.__name__] += 1
                continue
            assert _fmt_map(got) == _fmt_map(want)
            if name == "Q":
                assert all(_canonical_q(a.field, e.payload) for r in got for e in r)
            tally["maps"] += 1
    assert tally == Counter(maps=tally["maps"], DegeneratePoints=tally["DegeneratePoints"])
    assert tally["maps"] and tally["DegeneratePoints"]


def test_projective_map_refusals_match_oracle():
    q, f7, f11 = FIELDS["Q"], FIELDS["F7"], FIELDS["F11"]

    def points(fd, *coords):
        return [tuple(fd.from_int(x) for x in p) for p in coords]

    frame = ((1, 0), (0, 1), (1, 1))
    other = ((1, 2), (2, 1), (1, 3))
    cases = {
        "coincident sources": (points(q, (1, 2), (2, 4), (1, 1)), points(q, *other)),
        "coincident targets": (points(q, *frame), points(q, *other[:2], (2, 4))),
        "targets over another field": (points(f7, *frame), points(f11, *other)),
        "mixed source fields": (points(f7, *frame[:2]) + points(f11, frame[2]),
                                points(f7, *other)),
        "degenerate targets over another field": (points(f7, *frame),
                                                  points(f11, (1, 1), (2, 2), (1, 0))),
        "a 3-vector": (points(q, *frame), points(q, *other[:2], (1, 2, 3))),
    }
    outcomes = {}
    for label, (src, dst) in cases.items():
        want = _outcome(oracle_projective_map_through, src, dst)
        assert _outcome(projective_map_through, src, dst) is want
        outcomes[label] = want.__name__
    assert outcomes == {
        "coincident sources": "DegeneratePoints",
        "coincident targets": "DegeneratePoints",
        "targets over another field": "FieldMismatch",
        "mixed source fields": "FieldMismatch",
        "degenerate targets over another field": "DegeneratePoints",
        "a 3-vector": "DimensionMismatch",
    }


def test_one_projective_map_is_32_products_and_2_inverses(monkeypatch):
    # two frames of 12 products and one inverse each (three 2 x 2 minors,
    # l1 and l2, the four columns) and 8 for the product with the
    # adjugate, with no determinant check (the frames' distinct points
    # make the map invertible); the FieldElement path took 40 and 4,
    # with four determinant checks and an inverse per division
    a = build_gallery("crapo")
    src = [a.normal(p) for p in (1, 2, 3)]
    dst = [a.normal(p) for p in (4, 5, 6)]
    calls = count_payload_calls(monkeypatch, a.field)
    projective_map_through(src, dst)
    assert calls == Counter(_mul=32, _inv=2)


# ---------------------------------------------------------------------------
# echelon: the span's rank and kernel, and M x = b read off it

def _sparse_matrices(fd, draw, rng):
    """A zero row, a zero matrix, rows with a single nonzero entry, and
    the discriminantal rows translate_solver reduces for the first
    detected good partition of the seeded planes over fd."""
    zero = fd.zero()
    x = draw(rng)
    while x.is_zero():
        x = draw(rng)
    out = [[[draw(rng) for _ in range(4)], [zero] * 4, [draw(rng) for _ in range(4)]],
           [[zero] * 3, [zero] * 3],
           [[zero, zero, x, zero]],
           [[zero, x, zero], [x, zero, zero], [x, x, zero]]]
    a = next(a for a in seeded_planes(fd, 0) if is_generic(a) and good6_points(a))
    family = good6_points(a)[0].sets
    out.append([list(discriminantal_normal(a, sub))
                for L in family for sub in combinations(L, a.k + 1)])
    return out


def _payloads(results):
    """Payloads of the vectors returned."""
    return [e.payload for r in results if r is not None for e in r]


def _canonical_q(fd, payload) -> bool:
    """payload is Q's ((n,), d): integers, d > 0, gcd(n, d) = 1 and zero
    as ((0,), 1), which is what _norm returns."""
    vec, den = payload
    return (type(vec) is tuple and len(vec) == 1 and type(vec[0]) is int
            and type(den) is int and den > 0 and fd._norm(list(vec), den) == payload)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_matches_fieldelement_oracle(name):
    fd = FIELDS[name]
    draw = _sampler(fd)
    rng = random.Random(f"payload-oracle-echelon-{name}")
    singular = 0
    returned = []

    def check(m, b):
        nonlocal singular
        assert payload_span(m, fd).rank == oracle_rank(m)
        null = span_kernel(m, fd, len(m[0]))
        assert [_fmt(v) for v in null] == [_fmt(v) for v in oracle_kernel(m)]
        x = span_solution(m, b)
        assert _fmt(x) == _fmt(oracle_solve(m, b))
        returned.extend([x, *null])
        if len(m) == len(m[0]) and len(null):
            singular += 1

    for rows, cols in ((1, 1), (2, 2), (3, 3), (3, 3), (4, 4), (4, 4), (5, 5),
                       (2, 4), (3, 5), (4, 2), (5, 3), (4, 6)):
        for trial in range(4):
            entries = [[draw(rng) for _ in range(cols)] for _ in range(rows)]
            if trial == 0 and rows > 1:
                entries[-1] = entries[0]  # a repeated row
            check(entries, tuple(draw(rng) for _ in range(rows)))
    assert singular  # singular inputs are covered too
    for m in _sparse_matrices(fd, draw, rng):
        check(m, tuple(draw(rng) for _ in range(len(m))))
        check(m, tuple(fd.zero() for _ in range(len(m))))
    if name == "Q":
        payloads = _payloads(returned)
        assert payloads and all(_canonical_q(fd, p) for p in payloads)


# ---------------------------------------------------------------------------
# translate_solver

def _rigid_part_removed(a, t):
    """t minus the rigid translation t_p = alpha_p . x that agrees with t
    on coordinates 1..k (x solves the first k rows, by the oracle
    inverse), so the result vanishes there."""
    k = a.k
    minv = oracle_inverse([a.normal(p) for p in range(1, k + 1)])
    x = [sum((minv[i][j] * t[j] for j in range(k)), a.field.zero()) for i in range(k)]
    return tuple(tp - sum((ai * xi for ai, xi in zip(a.normal(p), x)), a.field.zero())
                 for p, tp in zip(a.indices, t))


def _compare_translations(a, families):
    """translate_solver has the oracle's outcome on every family: None,
    the same exception class, or a translation.  A translation found has
    t_1..t_k = 0 and passes the cofactor incidence check; when the
    family's kernel is the k rigid translations plus one direction, it
    is that direction, so proportional to the oracle's t with its rigid
    part removed.  Returns the number of translations found."""
    found = 0
    k = a.k
    for fam in families:
        got = _outcome(translate_solver, a, fam)
        want = _outcome(oracle_translate_solver, a, fam)
        if want is None or isinstance(want, type):
            assert got is want
            continue
        assert isinstance(got, tuple) and len(got) == a.n
        assert all(x.is_zero() for x in got[:k])
        assert translation_problems(a, IndexFamily(fam), got) == []
        rows = [list(discriminantal_normal(a, sub))
                for L in IndexFamily(fam) for sub in combinations(L, k + 1)]
        if a.n - oracle_rank(rows) == k + 1:
            assert oracle_proportional(got, _rigid_part_removed(a, want))
        found += 1
    return found


@pytest.mark.parametrize("name", K2_FIELDS)
def test_translate_solver_matches_oracle_on_lines(name):
    found = 0
    for a in seeded_lines(name, count=6):
        if not is_generic(a):
            continue
        patterns = [q.sets for q in quadral_points(a)]
        # every detected pattern, plus two candidate 4-sets, single triples
        # and two disjoint triples, where over Q no single kernel basis
        # vector is admissible and the walk goes past c = 0
        others = [q.sets for q in fourset_candidates(a.indices)[:2]]
        others += [[(1, 2, 3)], [(2, 4, 6)], [(1, 2, 3), (4, 5, 6)]]
        found += _compare_translations(a, patterns + others)
    assert found


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_translate_solver_matches_oracle_on_planes(name):
    fd = FIELDS[name]
    found = 0
    for a in seeded_planes(fd, 0):
        if not is_generic(a):
            continue
        patterns = [g.sets for g in good6_points(a)]
        found += _compare_translations(a, patterns + [[(1, 2, 3, 4)]])
    assert found


def test_translate_solver_matches_oracle_on_witnesses():
    for a in gallery_witnesses():
        patterns = [g.sets for g in good6_points(a)]
        assert _compare_translations(a, patterns + [[(1, 2, 3, 4)]]) == len(patterns) + 1


@pytest.mark.parametrize("p, normals, family, bound", [
    (7, [[1], [2], [3], [4], [5], [6]], [(1, 2), (3, 4, 5)], 7),
    (11, [[p] for p in range(1, 11)], [(1, 2, 3, 4), (5, 6, 7, 8, 9)], 11),
    (11, [[1], [2], [3], [4], [5], [6]], [(1, 2), (3, 4, 5)], 7),
], ids=["F7-bound7", "F11-bound11", "F11-bound7"])
def test_translate_solver_matches_oracle_at_the_walk_bound(monkeypatch, p, normals, family,
                                                           bound):
    # on coordinates 2..n each kernel has dimension 2, so F (dim - 1) = F;
    # it equals the characteristic for the first two, where the walk's c
    # would repeat and the kernel is enumerated, and over F_11 the first
    # family is walked; the solver sizes its candidates on that dimension
    a = Arrangement(Prime(p), 1, normals)
    rows = _payload_rows(a, [_projected(sub, 1) for L in IndexFamily(family)
                             for sub in combinations(L, 2)])
    dim = len(linalg._Span.over(a.field, rows).kernel(a.n - 1))
    incidences = sum(a.n - len(L) for L in family)
    assert incidences * (dim - 1) == bound
    sized = []
    candidates = arrangement._candidates

    def recording(fd, f, d):
        sized.append((f, d))
        return candidates(fd, f, d)

    monkeypatch.setattr(arrangement, "_candidates", recording)
    assert _compare_translations(a, [family]) == 1
    assert sized == [(incidences, 2)]


def test_translate_solver_makes_no_element_arithmetic(monkeypatch):
    # nor does find_involutions: each map is built on payloads
    a = build_gallery("witness-1^1,5^1")
    family = good6_points(a)[0].sets
    lines = [build_gallery(g) for g in ("crapo", "octahedral", "f5", "polygon-6")]
    calls = Counter()

    def counting(op):
        fn = getattr(FieldElement, op)

        def wrapper(self, other):
            calls[op] += 1
            return fn(self, other)
        return wrapper

    for op in ("__mul__", "__add__", "__sub__", "__truediv__"):
        monkeypatch.setattr(FieldElement, op, counting(op))
    assert translate_solver(a, family) is not None
    assert all(find_involutions(b) for b in lines)
    assert sum(calls.values()) == 0


def test_translate_solver_payload_work_is_pinned(monkeypatch):
    # three 4-sets on six planes, on coordinates 4..6: rows of rank 2 in
    # 3 columns, 3 products and the one inverse for the 1-dimensional
    # kernel; six extra incidences on five distinct keys, all avoided by
    # the first candidate t = 1 * b_1, which is b_1 itself (no product),
    # each tested at t on its entries past k (8 products); on all six
    # coordinates this took 38 products (12 + 6 + 20)
    a = build_gallery("witness-1^1,5^1")
    family = good6_points(a)[0].sets  # the minors are kept, not counted
    calls = count_payload_calls(monkeypatch, a.field)
    assert translate_solver(a, family) is not None
    assert calls == Counter(_mul=11, _inv=1)


def test_translate_solver_reads_no_minor_at_the_first_k_coordinates(monkeypatch):
    # the same input: 9 negated minors, one per odd entry past k (4 in
    # the rows, 5 in the five distinct incidences), and 3 negations in
    # the reduction; reading every coordinate took 19, one more per odd
    # entry at coordinates 1..3
    a = build_gallery("witness-1^1,5^1")
    family = good6_points(a)[0].sets
    calls = count_payload_calls(monkeypatch, a.field, hooks=("_neg",))
    assert translate_solver(a, family) is not None
    assert calls == Counter(_neg=12)


def _detected(a):
    return good6_points(a) if a.k == 3 else quadral_points(a)


def _payloads_of(outcome):
    return tuple(x.payload for x in outcome) if isinstance(outcome, tuple) else outcome


@cache
def census_plan_pass():
    """Clear the plan memo, then translate the first detected pattern of
    every six-plane and six-line census class.  Returns the memo's
    cache_info after the pass, the number of translations, and the first
    class of each distinct family as {(k, family): arrangement}."""
    arrangement._translate_plan.cache_clear()
    first, translated = {}, 0
    classes = chain((a for name in sorted(CENSUS_FIELDS) for _, a in plane_classes(name)),
                    (a for name in LINE_FIELDS for _, a in line_classes(name)))
    for a in classes:
        patterns = _detected(a)
        if patterns:
            translate_solver(a, patterns[0].sets)
            first.setdefault((a.k, patterns[0].sets), a)
            translated += 1
    return arrangement._translate_plan.cache_info(), translated, first


@cache
def census_and_gallery_families():
    """(arrangement, family) for every detected pattern of the first
    census class of each family and of every gallery arrangement."""
    gallery = [build_gallery(g) for g in ("crapo", "octahedral", "dodecahedral", "f4", "f5",
                                          "polygon-6")] + gallery_witnesses()
    pairs = []
    for a in list(census_plan_pass()[2].values()) + gallery:
        pairs += [(a, p.sets) for p in _detected(a)]
    return pairs


def test_plan_memo_is_bounded():
    assert arrangement._translate_plan.cache_info().maxsize is not None


def test_census_needs_one_plan_per_family():
    # 15 good-6 families on six planes and 15 quadrilateral families on
    # six lines; every other class reuses a plan
    info, translated, first = census_plan_pass()
    assert info.currsize == info.misses == len(first) <= 45
    assert info.hits + info.misses == translated > 13000


def test_translate_solver_matches_oracle_cold_and_warm():
    pairs = census_and_gallery_families()
    arrangement._translate_plan.cache_clear()
    cold = [_payloads_of(_outcome(translate_solver, a, fam)) for a, fam in pairs]
    warm = [_payloads_of(_outcome(translate_solver, a, fam)) for a, fam in pairs]
    assert cold == warm
    found = sum(_compare_translations(a, [fam]) for a, fam in pairs)
    assert found == len(pairs) > 200


def test_translate_solver_ignores_how_the_family_is_spelled():
    for a, fam in census_and_gallery_families():
        want = _payloads_of(translate_solver(a, fam))
        spellings = [list(fam), tuple(tuple(reversed(L)) for L in reversed(fam)),
                     fam + fam[:1], IndexFamily(fam)]
        assert [_payloads_of(translate_solver(a, s)) for s in spellings] == [want] * 4


@pytest.mark.parametrize("family, message", [
    ([], "family must contain at least one index set"),
    ([(1, 2, 3, 4), (1, 2, 3, 4, 5)], "(1, 2, 3, 4) and (1, 2, 3, 4, 5) are nested"),
    ([(1, 2, 3)], "family set (1, 2, 3) smaller than k+1 = 4"),
    ([(0, 1, 2, 3)], "family set (0, 1, 2, 3) has out-of-range indices"),
    ([(1, 2, 3, 7)], "family set (1, 2, 3, 7) has out-of-range indices"),
    ([()], "family set () smaller than k+1 = 4"),
], ids=["empty", "nested", "short", "index-0", "index-n+1", "empty-member"])
def test_refused_families_are_never_cached(family, message):
    a = build_gallery("witness-1^1,5^1")
    before = arrangement._translate_plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            translate_solver(a, family)
        assert type(err.value) is ValueError and str(err.value) == message
    assert arrangement._translate_plan.cache_info().currsize == before


def _points_over_f7(n):
    return Arrangement(Prime(7), 1, [[p % 6 + 1] for p in range(n)])


@pytest.mark.parametrize("family, expected", [
    ([(1, 2), (2, 3)], None),
    ([(1, 2), (3, 4)], NoGenericWitness),
], ids=["incidence-on-kernel", "no-such-incidence"])
def test_kernel_wide_incidence_comes_before_the_enumeration_refusal(family, expected):
    # eleven points over F_7: a 9-dimensional kernel, 8-dimensional on
    # coordinates 2..11, so 7^8 > 10^6 candidates, and F (dim - 1) =
    # 126 >= 7, so the kernel cannot be enumerated; when the family
    # forces hyperplane 3 through the point of (1, 2) there is no
    # translation, which the solver says before refusing
    a = _points_over_f7(11)
    assert _outcome(translate_solver, a, family) is expected
    assert _compare_translations(a, [family]) == 0
    if expected is NoGenericWitness:
        with pytest.raises(NoGenericWitness, match="kernel too large to enumerate"):
            translate_solver(a, family)


@pytest.mark.parametrize("n, dim", [(10, 7), (11, 8)])
def test_projected_kernel_dimension_of_the_refusal_inputs(n, dim):
    # ten points give 7^7 < 10^6 candidates on coordinates 2..10, which
    # the solver enumerates (and finds a witness in seconds), so the
    # refusal needs eleven; the dimension is pinned without the search
    a = _points_over_f7(n)
    for family in ([(1, 2), (2, 3)], [(1, 2), (3, 4)]):
        rows = _payload_rows(a, [_projected(L, 1) for L in family])
        assert len(linalg._Span.over(a.field, rows).kernel(n - 1)) == dim
    assert (7 ** dim > 10 ** 6) == (n == 11)


def test_translate_solver_builds_one_span(monkeypatch):
    # the kernel is the only span: each extra incidence is tested on a
    # discriminantal normal, so no family set needs a head inverse
    spans = Counter()
    init = linalg._Span.__init__

    def counting(self, *args, **kwargs):
        spans["built"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg._Span, "__init__", counting)
    planes = gallery_witnesses() + [a for name in sorted(FIELDS)
                                    for a in seeded_planes(FIELDS[name], 0) if is_generic(a)]
    calls = 0
    for a in planes:
        for fam in [g.sets for g in good6_points(a)] + [[(1, 2, 3, 4)]]:
            spans.clear()
            _outcome(translate_solver, a, fam)
            assert spans["built"] == 1
            calls += 1
    assert calls > len(planes)
