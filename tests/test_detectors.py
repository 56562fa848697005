"""Coincidence detectors: 4-sets, involutions, quint families, good
partitions, and their closure laws."""

import random
from itertools import combinations

import pytest

from discarr import (
    Arrangement,
    FourSet,
    Good6Partition,
    NotGeneric,
    QuintFamily,
    Rational,
    discriminantal_normal,
    find_involutions,
    good6_condition,
    good6_points,
    pappus_closure_check,
    quadral_points,
    quint_closure_checks,
    quintuple_points,
)
from discarr.detectors import BadFourSet, TooFewHyperplanes, WrongDimension
from discarr.gallery import crapo, dodecahedral, parametrized, regular_polygon

from _helpers import (
    matching_foursets,
    oracle_ceva_value,
    oracle_matmul,
    oracle_crossratio_form,
    oracle_is_identity,
    oracle_maps_to,
    oracle_quint_value,
    oracle_rank,
    oracle_same_map,
    perfect_matchings,
    projective_map,
    random_k2,
)

Q = Rational()

CRAPO_SETS = (
    ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)),
    ((1, 2, 6), (1, 3, 5), (2, 3, 4), (4, 5, 6)),
)


def test_perfect_matchings_counts():
    # _helpers.perfect_matchings relabels detectors._matching_pattern,
    # the positions the six-element relations are read through
    assert len(perfect_matchings(range(1, 5))) == 3
    assert len(perfect_matchings(range(1, 7))) == 15
    assert len(perfect_matchings(range(1, 9))) == 105
    assert perfect_matchings([]) == [()]
    for pairs in perfect_matchings((3, 1, 4, 2)):
        assert pairs[0][0] == 1
        assert all(a < b for a, b in pairs)


def _perfect_matchings_oracle(items):
    # the recursive enumerator perfect_matchings replaced
    items = sorted(items)
    if not items:
        return [()]
    out = []
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for tail in _perfect_matchings_oracle(rest[:i] + rest[i + 1:]):
            out.append(((first, partner),) + tail)
    return out


def test_perfect_matchings_match_recursive_oracle():
    rng = random.Random(11)
    for n in range(11):
        items = rng.sample(range(100), n)
        assert perfect_matchings(items) == _perfect_matchings_oracle(items)
        assert perfect_matchings(range(1, n + 1)) == _perfect_matchings_oracle(range(1, n + 1))


def test_quint_families_come_in_lt_order():
    fams = quintuple_points(regular_polygon(8))
    assert len(fams) == 104
    shuffled = fams[:]
    random.Random(8).shuffle(shuffled)
    assert sorted(shuffled) == fams


def test_fourset_structure():
    f = FourSet(((3, 4, 5), (1, 2, 3), (1, 5, 6), (2, 4, 6)))
    assert f.sets == CRAPO_SETS[0]
    assert f.support == (1, 2, 3, 4, 5, 6)
    p = f.labels()
    l1, l2, l3, l4 = f.sets
    assert set(l1) == {p[0], p[1], p[2]}
    assert set(l2) == {p[0], p[4], p[5]}
    assert set(l3) == {p[1], p[3], p[5]}
    assert set(l4) == {p[2], p[3], p[4]}
    comp = f.complement()
    assert comp.complement() == f
    assert comp.sets == CRAPO_SETS[1]
    assert f.matching() == comp.matching()


def test_fourset_validation():
    with pytest.raises(BadFourSet):
        FourSet(((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6)))  # disjoint pair
    with pytest.raises(BadFourSet):
        FourSet(((1, 2, 3), (1, 2, 4), (3, 4, 5), (3, 4, 6)))  # bad covering
    with pytest.raises(BadFourSet):
        FourSet(((1, 2), (3, 4, 5), (1, 3, 6), (2, 4, 6)))     # wrong size
    with pytest.raises(BadFourSet, match="cover a 6-set"):
        # meets pairwise in one index, but on nine indices
        FourSet(((1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 8, 9)))


def test_matching_foursets_helper_roundtrip():
    pairs = ((1, 4), (2, 5), (3, 6))
    f, g = matching_foursets(pairs)
    want = frozenset(frozenset(p) for p in pairs)
    assert f.matching() == want and g.matching() == want
    assert g == f.complement()


def test_quadral_crapo():
    found = quadral_points(crapo())
    assert [f.sets for f in found] == list(CRAPO_SETS)
    assert found[0].complement() == found[1]
    f = found[0]
    assert oracle_ceva_value(crapo(), f) == Q.one()
    assert oracle_crossratio_form(crapo(), f) == -Q.one()
    # raw tuple-of-tuples input is accepted too
    assert oracle_ceva_value(crapo(), CRAPO_SETS[0]) == Q.one()


def test_slope_relation_gives_value_one():
    # slopes (2,3,4) satisfy (1-l5)*l4 == (1-l4)*l6, so the canonical
    # 4-set holds with value 1; this choice also carries accidental
    # extra pairings, which is why the minimal builder uses (2,5,8)
    a = Arrangement(Q, 2, ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)))
    fs = FourSet(((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)))
    assert oracle_ceva_value(a, fs) == Q.one()
    assert oracle_crossratio_form(a, fs) == -Q.one()
    assert len(quadral_points(a)) == 4


def test_quadral_rejects_bad_input():
    with pytest.raises(NotGeneric):
        quadral_points(Arrangement(Q, 2, ((1, 0), (2, 0), (0, 1),
                                          (1, 1), (2, 1), (3, 1))))
    with pytest.raises(WrongDimension):
        quadral_points(parametrized(Q, 2, 3, 4, 10))


def test_quadral_complement_pairing_random():
    rng = random.Random("pairing")
    for _ in range(10):
        a = random_k2(rng, n=6)
        found = quadral_points(a)
        assert len(found) % 2 == 0
        as_set = set(found)
        for f in found:
            assert f.complement() in as_set


def test_worked_involution_example():
    # six explicit lines admitting the involution ((3,3),(-1,-3))
    a = Arrangement(Q, 2, ((1, -1), (1, 1), (2, -1), (0, 1), (3, -2), (3, 1)))
    invs = find_involutions(a)
    assert len(invs) == 1
    matching, f = invs[0]
    assert matching == frozenset(
        {frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6})})
    assert oracle_same_map(f, projective_map([[3, 3], [-1, -3]], Q))
    assert oracle_is_identity(oracle_matmul(f, f))
    for p, q in ((1, 4), (2, 5), (3, 6)):
        assert oracle_maps_to(f, a.normal(p), a.normal(q))
        assert oracle_maps_to(f, a.normal(q), a.normal(p))


def test_involutions_match_quadral_matchings():
    rng = random.Random("inv-vs-quad")
    for _ in range(6):
        a = random_k2(rng, n=6)
        inv_matchings = {m for m, _ in find_involutions(a)}
        quad_matchings = {f.matching() for f in quadral_points(a)}
        assert inv_matchings == quad_matchings


def test_find_involutions_preconditions():
    rng = random.Random("inv-pre")
    with pytest.raises(TooFewHyperplanes):
        find_involutions(random_k2(rng, n=7))
    with pytest.raises(NotGeneric):
        find_involutions(Arrangement(Q, 2, ((1, 0), (2, 0), (0, 1),
                                            (1, 1), (2, 1), (3, 1))))


def test_quint_family_canonical_form():
    q1 = QuintFamily(1, (2, 3, 4), (5, 6, 7))
    q2 = QuintFamily(1, (5, 6, 7), (2, 3, 4))
    q3 = QuintFamily(1, (3, 2, 4), (6, 5, 7))
    assert q1 == q2 == q3
    assert q1.sets == ((1, 2, 5), (1, 3, 6), (1, 4, 7), (2, 3, 4), (5, 6, 7))
    assert q1.support == (1, 2, 3, 4, 5, 6, 7)
    with pytest.raises(ValueError):
        QuintFamily(1, (2, 3, 4), (5, 6, 4))


def test_quint_witness():
    # slopes chosen so [0,1;2,3] = [0,4;8,12] = 4/3
    slopes = [0, 1, 2, 3, 4, 8, 12]
    a = Arrangement(Q, 2, [(s, 1) for s in slopes])
    target = QuintFamily(1, (2, 3, 4), (5, 6, 7))
    v1, v2 = oracle_quint_value(a, target)
    assert v1 == v2 == Q.from_int(4) / Q.from_int(3)
    found = quintuple_points(a)
    assert target in found
    assert quint_closure_checks(found) == []
    # the five normals drop to rank 4 exactly for detected families
    rows = [discriminantal_normal(a, L) for L in target.sets]
    assert oracle_rank(rows) == 4
    for q in found:
        w1, w2 = oracle_quint_value(a, q)
        assert w1 == w2


def test_quint_rank_five_when_not_detected():
    slopes = [0, 1, 2, 3, 4, 8, 12]
    a = Arrangement(Q, 2, [(s, 1) for s in slopes])
    found = set(quintuple_points(a))
    probe = QuintFamily(1, (2, 3, 4), (5, 7, 6))
    assert probe not in found
    rows = [discriminantal_normal(a, L) for L in probe.sets]
    assert oracle_rank(rows) == 5
    w1, w2 = oracle_quint_value(a, probe)
    assert w1 != w2


def test_quintuple_points_preconditions():
    rng = random.Random("quint-pre")
    with pytest.raises(TooFewHyperplanes):
        quintuple_points(random_k2(rng, n=6))


def test_good6_structure_and_validation():
    g = Good6Partition(((3, 4), (1, 6), (2, 5)))
    assert g.matching == ((1, 6), (2, 5), (3, 4))
    assert g.sets == ((1, 2, 5, 6), (1, 3, 4, 6), (2, 3, 4, 5))
    assert g.support == (1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        Good6Partition(((1, 2), (2, 3), (4, 5)))


def test_good6_condition_matches_rank():
    q = parametrized(Q, 10, 2, 5, 10)
    detected = set(good6_points(q))
    for pairs in perfect_matchings(range(1, 7)):
        g = Good6Partition(pairs)
        cond = good6_condition(q, g)
        rows = [discriminantal_normal(q, L) for L in g.sets]
        r = oracle_rank(rows)
        assert cond.is_zero() == (g in detected) == (r == 2)
        if not cond.is_zero():
            assert r == 3


def test_good6_requires_k3():
    with pytest.raises(WrongDimension):
        good6_points(crapo())
    with pytest.raises(WrongDimension):
        good6_condition(crapo(), ((1, 2), (3, 4), (5, 6)))


@pytest.mark.parametrize("pairs", [((1, 2), (3, 4), (5, 7)), ((0, 2), (3, 4), (5, 6))],
                         ids=["past-n", "zero"])
def test_good6_condition_refuses_an_index_outside_the_arrangement(pairs):
    # the minors dict once raised a bare KeyError here; the message is
    # Arrangement.normal's, and the refusal needs no genericity gate
    a = dodecahedral()
    bad = next(p for pair in pairs for p in pair if not 1 <= p <= 6)
    with pytest.raises(IndexError) as got:
        good6_condition(a, pairs)
    with pytest.raises(IndexError) as want:
        a.normal(bad)
    assert str(got.value) == str(want.value) == f"hyperplane index {bad} out of range 1..6"


def test_pappus_triangle_closure():
    # the 1^3 3^1 witness detects three pairwise-disjoint matchings whose
    # involutions conjugate into one another
    a = parametrized(Q, 10, 2, 5, 10)
    found = good6_points(a)
    assert len(found) == 3
    m1, m2, m3 = (frozenset(map(frozenset, g.matching)) for g in found)
    assert not (m1 & m2) and not (m1 & m3) and not (m2 & m3)

    def conj(s, t):
        sd = {x: y for p in s for x, y in (tuple(p), tuple(p)[::-1])}
        td = {x: y for p in t for x, y in (tuple(p), tuple(p)[::-1])}
        return frozenset(frozenset((x, sd[td[sd[x]]])) for x in range(1, 7))

    assert conj(m1, m2) == m3
    assert conj(m2, m3) == m1
    assert pappus_closure_check(a) == []


def test_pappus_closure_on_dodecahedral():
    assert pappus_closure_check(dodecahedral()) == []


def test_relabeling_covariance_quadral():
    rng = random.Random("relabel")
    a = crapo()
    perm = list(range(1, 7))
    rng.shuffle(perm)
    b = Arrangement(Q, 2, [a.normal(perm[i]) for i in range(6)])
    # column i of b is column perm[i] of a, so detected sets pull back
    inverse = {perm[i]: i + 1 for i in range(6)}
    mapped = {
        FourSet(tuple(tuple(inverse[x] for x in L) for L in f.sets))
        for f in quadral_points(a)
    }
    assert set(quadral_points(b)) == mapped


def test_relabeling_covariance_good6():
    rng = random.Random("relabel3")
    a = parametrized(Q, 10, 2, 5, 10)
    perm = list(range(1, 7))
    rng.shuffle(perm)
    b = Arrangement(Q, 3, [a.normal(perm[i]) for i in range(6)])
    inverse = {perm[i]: i + 1 for i in range(6)}
    mapped = {
        Good6Partition(tuple(tuple(inverse[x] for x in p) for p in g.matching))
        for g in good6_points(a)
    }
    assert set(good6_points(b)) == mapped


def test_ceva_truth_is_label_independent():
    # the complement 4-set tests the same matching: truth agrees even
    # though the value may differ
    rng = random.Random("labels")
    for _ in range(8):
        a = random_k2(rng, n=6)
        for pairs in perfect_matchings(range(1, 7)):
            f, g = matching_foursets(pairs)
            assert (oracle_ceva_value(a, f) == Q.one()) == (oracle_ceva_value(a, g) == Q.one())
