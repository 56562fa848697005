"""translate_solver's answers checked on their own terms, whatever order
its search meets them in, and the one table of minors it reads.

Every translation returned for the families the oracle tests run is
checked with cofactor determinants of the augmented rows (alpha_p, t_p)
(_helpers.translation_problems): each (k+1)-subset of a family set is
concurrent, and no hyperplane outside the set passes through the set's
point.  Over characteristic 0 the moment-curve walk always finds a
witness, so NoGenericWitness never comes; the small-combination search
it replaced gave up on two of the inputs below.  The candidate
sequence is pinned at both of its ends: the walk's last value
c = F(dim - 1), and the enumeration that replaces the walk once those c
would repeat.  Each k x k minor is computed once
per arrangement, which the counts of _det_payloads calls pin.
"""

import sys
from collections import Counter
from itertools import combinations

import pytest

from discarr import (
    Arrangement,
    Galois,
    Prime,
    Rational,
    build_gallery,
    good6_points,
    intersection_lattice,
    is_generic,
    quadral_points,
    translate_solver,
)
from discarr.arrangement import NoGenericWitness, _candidates

from _helpers import fourset_candidates, translation_problems
from test_classify_oracle import FIELDS, oracle_det, seeded_planes
from test_payload_oracle import K2_FIELDS, gallery_witnesses, seeded_lines

Q = Rational()


def checked(a, families) -> int:
    """Check every translation found; over characteristic 0 the solver
    must answer.  Returns the number of translations found."""
    found = 0
    for family in families:
        if a.field.characteristic() == 0:
            t = translate_solver(a, family)
        else:
            try:
                t = translate_solver(a, family)
            except NoGenericWitness:
                continue
        if t is not None:
            assert translation_problems(a, family, t) == []
            found += 1
    return found


# ---------------------------------------------------------------------------
# the oracle tests' families

@pytest.mark.parametrize("name", K2_FIELDS)
def test_translations_on_lines_are_witnesses(name):
    found = 0
    for a in seeded_lines(name, count=6):
        if not is_generic(a):
            continue
        families = [q.sets for q in quadral_points(a)]
        families += [q.sets for q in fourset_candidates(a.indices)[:2]]
        families += [[(1, 2, 3)], [(2, 4, 6)], [(1, 2, 3), (4, 5, 6)]]
        found += checked(a, families)
    assert found


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_translations_on_planes_are_witnesses(name):
    found = 0
    for a in seeded_planes(FIELDS[name], 0):
        if is_generic(a):
            found += checked(a, [g.sets for g in good6_points(a)] + [[(1, 2, 3, 4)]])
    assert found


def test_translations_on_witnesses_are_witnesses():
    for a in gallery_witnesses():
        families = [g.sets for g in good6_points(a)] + [[(1, 2, 3, 4)]]
        assert checked(a, families) == len(families)


# ---------------------------------------------------------------------------
# the walk where small combinations gave up

POINTS8 = [[p] for p in range(1, 9)]
LINES9 = [[1, 0], [0, 1], [1, 1], [1, 2], [1, 3], [2, 5], [3, 7], [5, 11], [7, 2]]


@pytest.mark.parametrize("k, normals, family", [
    (1, POINTS8, [(1, 2), (3, 4), (5, 6), (7, 8)]),
    (2, LINES9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)]),
], ids=["four-pairs-of-points", "three-triples-of-lines"])
def test_walk_finds_a_witness_beyond_two_basis_vectors(k, normals, family):
    # single kernel basis vectors and pairs with scalars in -8..8 found
    # no witness here over Q, and over F_1009, whose characteristic is
    # above the walk's bound, the kernel was too large to enumerate: both
    # raised NoGenericWitness
    for fd in (Q, Prime(1009)):
        a = Arrangement(fd, k, normals)
        t = translate_solver(a, family)
        assert t is not None
        assert translation_problems(a, family, t) == []


# ---------------------------------------------------------------------------
# the candidate sequence

def test_walk_ends_at_f_times_dim_minus_one():
    # F = 3 incidences on a 3-dimensional kernel: c = 0..6 on the moment
    # curve, the last candidate (1, 6, 36); exhausting it is a bug
    walk = _candidates(Q, 3, 3)
    got = [next(walk) for _ in range(7)]
    assert got[0] == [Q._coerce_int(x) for x in (1, 0, 0)]
    assert got[-1] == [Q._coerce_int(x) for x in (1, 6, 36)]
    with pytest.raises(AssertionError, match="moment-curve bound"):
        next(walk)
    # over F_7 the same seven c are distinct, so F_7 walks them too
    walk = _candidates(Prime(7), 3, 3)
    assert [next(walk) for _ in range(7)][-1] == [1, 6, 36 % 7]
    with pytest.raises(AssertionError, match="moment-curve bound"):
        next(walk)


@pytest.mark.parametrize("p, incidences, dim", [(5, 5, 2), (7, 7, 2), (3, 1, 4)])
def test_enumeration_once_the_walk_would_repeat(p, incidences, dim):
    # F (dim - 1) = p: c = 0..p repeats c = 0 mod p, so every nonzero
    # kernel combination is tried in product order, then the refusal
    fd = Prime(p)
    candidates = _candidates(fd, incidences, dim)
    got = [next(candidates) for _ in range(p ** dim - 1)]
    assert got[0] == [0] * (dim - 1) + [1]
    assert got[-1] == [p - 1] * dim
    assert len(set(map(tuple, got))) == p ** dim - 1
    with pytest.raises(NoGenericWitness, match="every kernel vector"):
        next(candidates)


def test_enumeration_refused_past_a_million_candidates():
    with pytest.raises(NoGenericWitness, match="kernel too large to enumerate"):
        next(_candidates(Prime(7), 2, 8))
    # at 7^7 < 10^6 the enumeration starts
    assert next(_candidates(Prime(7), 2, 7)) == [0] * 6 + [1]


GF2_20 = Galois(2, [1, 0, 0, 1] + [0] * 16 + [1])  # x^20 + x^3 + 1
GF81 = Galois(3, [2, 1, 0, 0, 1])  # x^4 + x + 2


@pytest.mark.parametrize("fd, dim", [(Prime(7), 8), (GF2_20, 2), (GF81, 4)],
                         ids=["F7^8", "GF(2^20)^2", "GF(81)^4"])
def test_enumeration_is_sized_before_any_element_is_listed(monkeypatch, fd, dim):
    # q^dim > 10^6 is read off the field's order: no element is built or
    # listed, so GF(2^20) is refused at once, not after a million-element
    # list of field elements
    def unlisted(self):
        raise AssertionError("an element was listed")
    for cls in (Prime, Galois):
        monkeypatch.setattr(cls, "iter_elements", unlisted)
        monkeypatch.setattr(cls, "_payloads", unlisted)
    with pytest.raises(NoGenericWitness, match="kernel too large to enumerate"):
        next(_candidates(fd, fd.characteristic(), dim))


# ---------------------------------------------------------------------------
# one table of minors

def test_minors_are_the_k_by_k_determinants():
    for name in ("crapo", "dodecahedral", "witness-3^2", "polygon-6"):
        a = build_gallery(name)
        table = a.minors()
        assert sorted(table) == list(combinations(a.indices, a.k))
        for sub, d in table.items():
            assert d == oracle_det([list(a.normal(p)) for p in sub]).payload
        assert a.minors() is table


def _count_dets(monkeypatch) -> Counter:
    """Count _det_payloads calls through every discarr module that holds it."""
    calls = Counter()
    for name, mod in list(sys.modules.items()):
        fn = getattr(mod, "_det_payloads", None) if name.startswith("discarr") else None
        if fn is not None:
            def counting(fd, rows, fn=fn):
                calls[len(rows)] += 1
                return fn(fd, rows)
            monkeypatch.setattr(mod, "_det_payloads", counting)
    return calls


def test_each_minor_is_computed_once_per_arrangement(monkeypatch):
    # C(6,3) = 20 and C(6,2) = 15 distinct minors, which the genericity
    # check and the discriminantal rows each computed (38, 40 and 30 calls)
    witness, crapo = build_gallery("witness-3^2"), build_gallery("crapo")
    family = good6_points(witness)[0].sets
    calls = _count_dets(monkeypatch)

    def fresh(a):
        return Arrangement(a.field, a.k, a.normals)

    a = fresh(witness)
    assert translate_solver(a, family) is not None
    assert calls == {3: 20}
    intersection_lattice(a)
    assert calls == {3: 20}  # the same arrangement reads the same table
    calls.clear()
    intersection_lattice(fresh(witness))
    assert calls == {3: 20}
    calls.clear()
    intersection_lattice(fresh(crapo))
    assert calls == {2: 15}
