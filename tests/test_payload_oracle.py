"""Involutions, the echelon routine and the translate solver against the
FieldElement paths they replaced.

The oracles below are the original routines: find_involutions building
one projective map per matching of the six lines and keeping those that
swap every pair, reduced row echelon form on FieldElement rows (with
rank, kernel, solve and inverse built on it), and translate_solver on
FieldElement discriminantal rows, kernel and head inverses, which tests
an extra incidence of q with a family set L through the common point
x_L(t) = head^-1 t.  The library tests the det2 pairing condition before
building any map, reduces raw payloads, and searches translations on
payloads, testing the same incidence as t on the discriminantal normal
of L's head and q, so its kernel is its only span; all must agree
exactly.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from discarr import (
    Arrangement,
    IndexFamily,
    Matrix,
    NotGeneric,
    build_gallery,
    discriminantal_normal,
    find_involutions,
    format_element,
    good6_points,
    is_generic,
    kernel,
    perfect_matchings,
    projective_map_through,
    quadral_points,
    rank,
    rank_of_rows,
    solve,
    translate_solver,
)
from discarr import detectors, linalg
from discarr.arrangement import NoGenericWitness
from discarr.exactfield import FieldElement
from discarr.linalg import SingularMatrix, inverse

from _helpers import fourset_candidates, imposed_k2
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
    return len(oracle_rref(m.row_list(), m.field))


def oracle_kernel(m):
    field = m.field
    rows = m.row_list()
    pivots = oracle_rref(rows, field) if rows else []
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [field.zero()] * m.cols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def oracle_inverse(m):
    n, field = m.rows, m.field
    aug = [list(m.row(i)) + [field.one() if i == j else field.zero() for j in range(n)]
           for i in range(n)]
    pivots = oracle_rref(aug, field)
    if pivots and pivots[-1] >= n:
        raise SingularMatrix(f"singular {n}x{n} matrix")
    return Matrix.from_rows([row[n:] for row in aug], field)


def oracle_solve(m, b):
    aug = [list(m.row(i)) + [b[i]] for i in range(m.rows)]
    pivots = oracle_rref(aug, m.field)
    if m.cols in pivots:
        return None, oracle_kernel(m)
    x = [m.field.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][m.cols]
    return tuple(x), oracle_kernel(m)


def oracle_find_involutions(a):
    """One projective map per matching, kept when it swaps every pair."""
    if not is_generic(a):
        raise NotGeneric("parallel or repeated lines")
    out = []
    for pairs in perfect_matchings(a.indices):
        src = tuple(a.normal(x) for x, _ in pairs)
        dst = tuple(a.normal(y) for _, y in pairs)
        f = projective_map_through(src, dst)
        if all(f.maps_to(dst[i], src[i]) for i in range(3)):
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
    basis = oracle_kernel(Matrix.from_rows(rows, f))
    if not basis:
        return None
    functionals = []
    for L in family:
        head = L[:k]
        minv = oracle_inverse(Matrix.from_rows([list(a.normal(p)) for p in head], f))
        for q in a.indices:
            if q in L:
                continue
            lam = [f.zero()] * n
            aq = a.normal(q)
            for j, p in enumerate(head):
                coef = f.zero()
                for i in range(k):
                    coef = coef + aq[i] * minv[i, j]
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
        if f.characteristic() == 0:
            for i in range(dim):
                coeffs = [None] * dim
                coeffs[i] = f.one()
                yield coeffs
            scalars = [f.from_int(c) for c in range(-8, 9)]
            for i, j in combinations(range(dim), 2):
                for ci, cj in product(scalars, repeat=2):
                    coeffs = [None] * dim
                    coeffs[i], coeffs[j] = ci, cj
                    yield coeffs
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
    except (NotGeneric, NoGenericWitness, SingularMatrix) as exc:
        return type(exc)


def _fmt(v):
    return None if v is None else tuple(format_element(x) for x in v)


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
            assert _fmt(f.matrix.entries) == _fmt(g.matrix.entries)
        tally["involutions"] += len(found)
    assert tally["not generic"] and tally["involutions"]


def test_involutions_match_oracle_on_gallery():
    for g in ("crapo", "octahedral", "f5", "polygon-6"):
        a = build_gallery(g)
        found, expected = find_involutions(a), oracle_find_involutions(a)
        assert [m for m, _ in found] == [m for m, _ in expected]
        for (_, f), (_, h) in zip(found, expected):
            assert _fmt(f.matrix.entries) == _fmt(h.matrix.entries)


def test_one_map_per_involution(monkeypatch):
    # the pairing test runs on the det2 table; a map is built only for
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
# echelon: rank, kernel, solve, inverse

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


def _payload_types(fd, results):
    """Payload types of vectors and matrices returned over Q."""
    types = set()
    for r in results:
        if r is not None and not isinstance(r, type):
            types.update(type(e.payload) for e in getattr(r, "entries", r))
    return types


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_echelon_matches_fieldelement_oracle(name):
    fd = FIELDS[name]
    draw = _sampler(fd)
    rng = random.Random(f"payload-oracle-echelon-{name}")
    singular = 0
    returned = []

    def check(m, b):
        nonlocal singular
        rows = m.rows
        assert rank(m) == oracle_rank(m)
        assert rank_of_rows([m.row(i) for i in range(rows)], fd) == oracle_rank(m)
        null = kernel(m)
        assert [_fmt(v) for v in null] == [_fmt(v) for v in oracle_kernel(m)]
        x, null = solve(m, b)
        ox, onull = oracle_solve(m, b)
        assert _fmt(x) == _fmt(ox)
        assert [_fmt(v) for v in null] == [_fmt(v) for v in onull]
        returned.extend([x, *null])
        if rows == m.cols:
            got, want = _outcome(inverse, m), _outcome(oracle_inverse, m)
            if want is SingularMatrix:
                assert got is SingularMatrix
                singular += 1
            else:
                assert _fmt(got.entries) == _fmt(want.entries)
            returned.append(got)

    for rows, cols in ((1, 1), (2, 2), (3, 3), (3, 3), (4, 4), (4, 4), (5, 5),
                       (2, 4), (3, 5), (4, 2), (5, 3), (4, 6)):
        for trial in range(4):
            entries = [[draw(rng) for _ in range(cols)] for _ in range(rows)]
            if trial == 0 and rows > 1:
                entries[-1] = entries[0]  # a repeated row
            m = Matrix.from_rows(entries, fd)
            check(m, tuple(draw(rng) for _ in range(rows)))
    assert singular  # singular inputs are covered too
    for entries in _sparse_matrices(fd, draw, rng):
        m = Matrix.from_rows(entries, fd)
        check(m, tuple(draw(rng) for _ in range(m.rows)))
        check(m, tuple(fd.zero() for _ in range(m.rows)))
    if name == "Q":
        assert _payload_types(fd, returned) == {Fraction}


# ---------------------------------------------------------------------------
# translate_solver

def _compare_translations(a, families):
    """translate_solver equals the oracle on every family; returns the
    number of translations found."""
    found = 0
    for fam in families:
        got = _outcome(translate_solver, a, fam)
        want = _outcome(oracle_translate_solver, a, fam)
        if isinstance(want, type):
            assert got is want
            continue
        assert _fmt(got) == _fmt(want)
        found += got is not None
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
        # vector is admissible and the search goes on to pairs
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


def test_translate_solver_makes_no_element_arithmetic(monkeypatch):
    a = build_gallery("witness-1^1,5^1")
    family = good6_points(a)[0].sets
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
    assert sum(calls.values()) == 0


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
