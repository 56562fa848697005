"""Named arrangements, classification witnesses, and polygon families."""

from fractions import Fraction
from itertools import product
from math import comb
import random

import pytest

from discarr import (
    Cyclotomic,
    FieldElement,
    FourSet,
    Galois,
    Prime,
    Quadratic,
    QuintFamily,
    Rational,
    TYPE_ORDER,
    arrangement_type,
    find_involutions,
    good6_condition,
    good6_points,
    is_generic,
    quadral_points,
    quintuple_points,
)
from discarr.gallery import (
    BLOCKED_CORE_EDGES,
    BLOCKED_CORE_MATCHINGS,
    BLOCKED_CORE_TYPE,
    DODECAHEDRAL_DEPENDENCIES,
    UnknownGalleryName,
    _conditions,
    blocked_core_dets,
    build_gallery,
    classification_rows,
    crapo,
    dodecahedral,
    f4_arrangement,
    f5_arrangement,
    gallery_names,
    is_parameter_generic,
    octahedral,
    parametrized,
    predicted_polygon_sets,
    quadral_lower_bound,
    quint_lower_bound,
    regular_polygon,
    starred_types,
    witness_spec,
)
from discarr.permtype import matching_to_edge

from _helpers import (
    oracle_ceva_value,
    oracle_quint_value,
    oracle_same_map,
    perfect_matchings,
    projective_map,
    rand_fraction,
)

Q = Rational()


# ---------------------------------------------------------------------------
# fixed builders

def test_fixed_builders_shapes(fixed_gallery):
    expected = {
        "crapo": (2, Rational()),
        "octahedral": (2, Quadratic(-1)),
        "dodecahedral": (3, Quadratic(5)),
        "f4": (3, Galois(2, (1, 1, 1))),
        "f5": (2, Prime(5)),
    }
    for name, a in fixed_gallery.items():
        k, field = expected[name]
        assert a.n == 6
        assert a.k == k
        assert a.field == field
        assert is_generic(a)


def test_crapo_profile(fixed_gallery):
    a = fixed_gallery["crapo"]
    assert len(quadral_points(a)) == 2
    invs = find_involutions(a)
    assert len(invs) == 1
    rep = arrangement_type(a)
    assert rep.type.label() == "1^4 2^1"
    assert rep.m_a == 2
    assert rep.m_formula_consistent


def test_octahedral_profile(fixed_gallery):
    a = fixed_gallery["octahedral"]
    assert len(quadral_points(a)) == 12
    assert len(find_involutions(a)) == 6
    rep = arrangement_type(a)
    assert rep.type.label() == "1^2 4^1"
    assert rep.m_a == 12
    assert rep.m_formula_consistent
    assert sorted(len(b) for b in rep.partition.blocks) == [1, 1, 4]
    block = next(b for b in rep.partition.blocks if len(b) == 4)
    assert rep.edges == frozenset(
        (p, q) for p in block for q in block if p < q)


def test_octahedral_involution_matrices(fixed_gallery):
    # the six detected maps, written out as matrices over Q(i)
    a = fixed_gallery["octahedral"]
    f = a.field
    i, one, zero = f.generator(), f.one(), f.zero()
    matrices = [
        ((one, one), (one, -one)),
        ((-one, one), (one, one)),
        ((zero, i), (one, zero)),
        ((zero, -i), (one, zero)),
        ((i, -one), (one, -i)),
        ((i, one), (-one, -i)),
    ]
    detected = find_involutions(a)
    assert len(detected) == len(matrices) == 6
    hits = []
    for rows in matrices:
        pm = projective_map(rows, f)
        match = [idx for idx, (_, g) in enumerate(detected) if oracle_same_map(g, pm)]
        assert len(match) == 1
        hits.append(match[0])
    assert sorted(hits) == list(range(6))


def test_octahedral_first_matrix_through_three_points(fixed_gallery):
    # the (13)(24)(56) involution is pinned down by three of its
    # source/target pairs
    from discarr import projective_map_through

    a = fixed_gallery["octahedral"]
    f = a.field
    first = projective_map(((f.one(), f.one()), (f.one(), -f.one())), f)
    g = projective_map_through(
        (a.normal(1), a.normal(2), a.normal(3)),
        (a.normal(3), a.normal(4), a.normal(1)))
    assert oracle_same_map(g, first)


def test_dodecahedral_profile(fixed_gallery):
    a = fixed_gallery["dodecahedral"]
    goods = good6_points(a)
    assert len(goods) == 10
    detected = {g.matching for g in goods}
    assert detected == {m for m, _ in DODECAHEDRAL_DEPENDENCIES}
    rep = arrangement_type(a)
    assert rep.type.label() == "1^1 5^1"
    assert rep.m_a == 10
    assert rep.m_formula_consistent
    # index 4 is the isolated vertex of the 1+5 partition
    assert frozenset({4}) in rep.partition.blocks


def test_dodecahedral_dependencies_vanish(fixed_gallery):
    from discarr.gallery import dependency_residual

    a = fixed_gallery["dodecahedral"]
    zero = a.field.zero()
    for matching, terms in DODECAHEDRAL_DEPENDENCIES:
        residual = dependency_residual(a, terms)
        assert all(e == zero for e in residual), matching
        # the three subsets are exactly the unions of matching pairs
        supports = {frozenset(s) for _, s in terms}
        pairs = [frozenset(p) for p in matching]
        expected = {pairs[0] | pairs[1], pairs[0] | pairs[2], pairs[1] | pairs[2]}
        assert supports == expected


def test_dodecahedral_other_matchings_nonzero(fixed_gallery):
    a = fixed_gallery["dodecahedral"]
    detected = {g.matching for g in good6_points(a)}
    rest = [m for m in perfect_matchings(range(1, 7)) if m not in detected]
    assert len(rest) == 5
    for m in rest:
        assert not good6_condition(a, m).is_zero()


def test_f4_profile(fixed_gallery):
    a = fixed_gallery["f4"]
    goods = good6_points(a)
    assert len(goods) == 15
    rep = arrangement_type(a)
    assert rep.type.label() == "6^1"
    assert rep.m_a == 15
    assert rep.m_formula_consistent


def test_f5_profile(fixed_gallery):
    a = fixed_gallery["f5"]
    invs = find_involutions(a)
    assert len(invs) == 10
    rep = arrangement_type(a)
    assert rep.type.label() == "1^1 5^1"
    assert rep.m_a == 20
    assert rep.m_formula_consistent


# ---------------------------------------------------------------------------
# the parametrized family

def test_parameter_conditions_match_genericity():
    # every tuple over a small grid: the 14 expressions vanish exactly
    # when some normal triple is dependent
    values = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
              Fraction(1, 2), Fraction(3))
    for w, x, y, z in product(values, repeat=4):
        a = parametrized(Q, w, x, y, z)
        assert is_parameter_generic(Q, w, x, y, z) == is_generic(a)


def test_parameter_conditions_count_and_field():
    conds = [FieldElement(Q, c) for c in _conditions(Q, 2, 3, 4, 10)]
    assert len(conds) == 14
    # w - x - y + z - wz + xy at (2, 3, 4, 10): 2-3-4+10-20+12 = -3
    assert conds[-1] == Q.from_int(-3)
    assert conds[-2] == Q.from_int(2 * 10 - 3 * 4)


def test_parametrized_rejects_wrong_field_elements():
    from discarr.exactfield import FieldMismatch

    g = Quadratic(5).generator()
    with pytest.raises(FieldMismatch):
        parametrized(Q, g, 2, 3, 4)


# ---------------------------------------------------------------------------
# classification witnesses

RATIONAL_WITNESS_LABELS = ("1^6", "1^4 2^1", "1^3 3^1", "1^2 2^2",
                           "1^2 4^1", "1^1 2^1 3^1")


def test_witnesses_classify_to_their_type(witnesses):
    assert set(witnesses) == set(RATIONAL_WITNESS_LABELS) | {"1^1 5^1", "3^2"}
    for label, (spec, a) in witnesses.items():
        assert is_parameter_generic(spec.field, *spec.parameters)
        rep = arrangement_type(a)
        assert rep.type.label() == label
        assert rep.m_formula_consistent


def test_witness_fields():
    for label in RATIONAL_WITNESS_LABELS:
        assert witness_spec(label).field == Rational()
    assert witness_spec("1^1 5^1").field == Quadratic(5)
    assert witness_spec("3^2").field == Quadratic(-3)


def test_irrational_witness_parameters():
    # golden case: x solves x^2 + x - 1 = 0, w = z = x^2, y = x
    spec = witness_spec("1^1 5^1")
    w, x, y, z = spec.parameters
    one = spec.field.one()
    assert x * x + x - one == spec.field.zero()
    assert w == x * x and y == x and z == w
    # sixth-root case: x solves x^2 - x + 1 = 0, w = x^2, y = x,
    # z = 2x - x^2
    spec = witness_spec("3^2")
    w, x, y, z = spec.parameters
    one = spec.field.one()
    assert x * x - x + one == spec.field.zero()
    assert w == x * x and y == x and z == 2 * x - w


def test_starred_types_have_no_witness():
    starred = starred_types()
    assert [nu.label() for nu in starred] == ["2^3", "2^1 4^1", "6^1"]
    for nu in starred:
        assert witness_spec(nu) is None


def test_classification_rows_table():
    rows = classification_rows()
    assert [nu for nu, _, _ in rows] == list(TYPE_ORDER)
    assert [m for _, m, _ in rows] == [0, 1, 3, 2, 6, 4, 3, 10, 7, 6, 15]
    starless = {nu.label() for nu, _, field in rows if field is not None}
    assert starless == set(RATIONAL_WITNESS_LABELS) | {"1^1 5^1", "3^2"}


# ---------------------------------------------------------------------------
# the blocked core

def test_blocked_core_structure():
    assert BLOCKED_CORE_TYPE == "2^3"
    edges = {matching_to_edge(m) for m in BLOCKED_CORE_MATCHINGS}
    assert edges == set(BLOCKED_CORE_EDGES)
    for m in BLOCKED_CORE_MATCHINGS:
        flat = sorted(i for pair in m for i in pair)
        assert flat == [1, 2, 3, 4, 5, 6]


def test_blocked_core_dets_are_the_conditions():
    # polynomial identity: each callable agrees with the 3x3 condition
    # determinant of its matching on a grid exceeding the per-variable
    # degree, hence everywhere
    dets = blocked_core_dets()
    values = tuple(Q.from_int(v) for v in (0, 1, 2, 3, 5))
    for w, x, y, z in product(values, repeat=4):
        a = parametrized(Q, w, x, y, z)
        for m, d in zip(BLOCKED_CORE_MATCHINGS, dets):
            assert good6_condition(a, m) == d(w, x, y, z)


def test_blocked_core_joint_vanishing_forces_degeneracy():
    # d1 = 0 gives y = x, d2 = 0 then gives z = x^2, and substituting
    # both into d3 leaves 2x(x - 1); checked as a one-variable identity
    d1, d2, d3 = blocked_core_dets()
    for v in (0, 1, 2, 3, 5, 7):
        w, x = rand_fraction(random.Random(v)), Q.from_int(v)
        w = Q.from_fraction(w)
        y, z = x, x * x
        assert d1(w, x, y, z).is_zero()
        assert d2(w, x, y, z).is_zero()
        assert d3(w, x, y, z) == 2 * x * (x - Q.one())
    # ... and x = 0 or x = 1 violates the genericity conditions
    for x in (0, 1):
        assert not is_parameter_generic(Q, 7, x, x, x * x)


def test_f4_satisfies_blocked_core():
    # characteristic 2 kills the factor 2x(x - 1) obstruction
    a = f4_arrangement()
    for m in BLOCKED_CORE_MATCHINGS:
        assert good6_condition(a, m).is_zero()


# ---------------------------------------------------------------------------
# regular polygons

def test_regular_polygon_basic():
    a = regular_polygon(6)
    assert a.n == 6 and a.k == 2
    assert a.field == Cyclotomic(24)
    assert is_generic(a)
    # direction p = n is the negative x axis
    f = a.field
    assert a.normal(6) == (-f.one(), f.zero())
    # direction p = n/2 is the y axis
    assert a.normal(3) == (f.zero(), f.one())
    with pytest.raises(ValueError):
        regular_polygon(2)


@pytest.mark.parametrize("n", range(3, 25))
def test_regular_polygon_is_generic(n):
    # the builder does not check: the directions p*pi/n are pairwise non-parallel
    assert is_generic(regular_polygon(n))


def test_polygon_lower_bound_values():
    assert [quadral_lower_bound(n) for n in range(6, 11)] == [8, 14, 48, 72, 160]
    assert [quint_lower_bound(n) for n in range(6, 11)] == [0, 28, 32, 144, 160]
    # closed forms behind those numbers
    for n in (6, 8, 10):
        h = n // 2
        assert quadral_lower_bound(n) == (n + 2) * comb(h, 3) + n * comb(h - 1, 3)
        assert quint_lower_bound(n) == 4 * n * comb(h - 1, 3)
    for n in (7, 9):
        half = (n - 1) // 2
        assert quadral_lower_bound(n) == 2 * n * comb(half, 3)
        assert quint_lower_bound(n) == 4 * n * comb(half, 3)


def test_predictions_match_bounds_and_are_detected():
    # hexagon: predictions are exhaustive and every one is confirmed
    a = regular_polygon(6)
    pred4, pred5 = predicted_polygon_sets(6)
    assert len(pred4) == quadral_lower_bound(6) == 8
    assert pred5 == []
    detected = quadral_points(a)
    assert sorted(detected) == pred4
    for fs in pred4:
        assert oracle_ceva_value(a, fs) == a.field.one()
    with pytest.raises(ValueError):
        predicted_polygon_sets(5)


def test_heptagon_predictions_exact():
    a = regular_polygon(7)
    pred4, pred5 = predicted_polygon_sets(7)
    assert len(pred4) == quadral_lower_bound(7) == 14
    assert len(pred5) == quint_lower_bound(7) == 28
    assert sorted(quadral_points(a)) == pred4
    assert sorted(quintuple_points(a)) == pred5
    for q in pred5:
        left, right = oracle_quint_value(a, q)
        assert left == right


def test_prediction_shapes():
    pred4, pred5 = predicted_polygon_sets(8)
    assert all(isinstance(fs, FourSet) for fs in pred4)
    assert all(isinstance(q, QuintFamily) for q in pred5)
    assert len(set(pred4)) == len(pred4)
    assert len(set(pred5)) == len(pred5)
    # even n: predictions count matches the closed forms
    assert len(pred4) == quadral_lower_bound(8)
    assert len(pred5) == quint_lower_bound(8)


# ---------------------------------------------------------------------------
# registry

def test_gallery_names_and_builders():
    names = gallery_names()
    assert names[:5] == ["crapo", "octahedral", "dodecahedral", "f4", "f5"]
    assert "polygon-<n>" in names
    witness_names = [n for n in names if n.startswith("witness-")]
    assert len(witness_names) == 8
    assert witness_names == ["witness-" + nu.cli_token()
                             for nu in TYPE_ORDER if witness_spec(nu) is not None]
    for name in names:
        if name == "polygon-<n>":
            continue
        a = build_gallery(name)
        assert is_generic(a)


def test_build_gallery_polygon_and_witness_tokens():
    a = build_gallery("polygon-7")
    assert a.n == 7 and a.field == Cyclotomic(28)
    b = build_gallery("witness-1^2,4^1")
    assert arrangement_type(b).type.label() == "1^2 4^1"


def test_build_gallery_errors():
    with pytest.raises(UnknownGalleryName):
        build_gallery("heptadecagonal")
    with pytest.raises(UnknownGalleryName):
        build_gallery("polygon-x")
    with pytest.raises(UnknownGalleryName):
        build_gallery("witness-2^3")
    with pytest.raises(UnknownGalleryName):
        build_gallery("witness-1^7")
    with pytest.raises(ValueError):
        build_gallery("polygon-2")
