"""Arrangements, the projective map through three points, and the
translate solver."""

import random
from fractions import Fraction

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    Galois,
    IndexFamily,
    NotGeneric,
    Prime,
    Quadratic,
    Rational,
    arrangement_from_json,
    arrangement_to_json,
    discriminantal_normal,
    is_generic,
    projective_map_through,
    translate_solver,
)
from discarr.arrangement import DegeneratePoints
from discarr.gallery import crapo, f4_arrangement, octahedral, regular_polygon

from _helpers import (
    cofactor_det,
    oracle_apply,
    oracle_matmul,
    oracle_cross3,
    oracle_cross_ratio,
    oracle_is_identity,
    oracle_maps_to,
    oracle_same_map,
    projective_map,
)

Q = Rational()


def _lines(*slopes):
    normals = [(1, 0), (0, 1), (1, 1)] + [(s, 1) for s in slopes]
    return Arrangement(Q, 2, normals)


def test_arrangement_basics():
    a = crapo()
    assert (a.n, a.k) == (6, 2)
    assert a.field == Q
    assert list(a.indices) == [1, 2, 3, 4, 5, 6]
    assert a.normal(1) == (Q.one(), Q.zero())
    assert a.normal(6) == (Q.from_int(8), Q.one())
    with pytest.raises(IndexError):
        a.normal(7)
    with pytest.raises(IndexError):
        a.normal(0)


def test_is_generic():
    assert is_generic(_lines(2, 5, 8))
    assert not is_generic(Arrangement(Q, 2, ((1, 0), (2, 0), (0, 1))))
    assert not is_generic(Arrangement(Q, 2, ((0, 0), (1, 0), (0, 1))))
    assert is_generic(f4_arrangement())


def test_cross_ratio_frame():
    # the cross ratio the projective-map tests compare against:
    # ((1,0), (0,1), (1,1), (t,1)) has cross ratio t
    one, zero = Q.one(), Q.zero()
    for t in (2, -3, Fraction(5, 7)):
        et = Q.from_fraction(Fraction(t))
        assert oracle_cross_ratio((one, zero), (zero, one), (one, one), (et, one)) == et


def test_cross_ratio_projective_invariance():
    rng = random.Random("pgl")
    one, zero = Q.one(), Q.zero()
    pts = ((one, zero), (zero, one), (one, one), (Q.from_int(7), one))
    base = oracle_cross_ratio(*pts)
    for _ in range(20):
        while True:
            rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
                break
        g = projective_map(rows, Q)
        assert oracle_cross_ratio(*(oracle_apply(g, p) for p in pts)) == base


def test_cross_ratio_degenerate():
    one, zero = Q.one(), Q.zero()
    with pytest.raises(DegeneratePoints):
        oracle_cross_ratio((one, zero), (one, zero), (one, one), (zero, one))


def _adjugate(f):
    """The adjugate of the matrix f, the inverse map: the 2 x 2 one in
    closed form, the 3 x 3 one with the cross products of the columns as
    its rows."""
    if len(f) == 2:
        (a, b), (c, d) = f
        return ((d, -b), (-c, a))
    c1, c2, c3 = zip(*f)
    return (oracle_cross3(c2, c3), oracle_cross3(c3, c1), oracle_cross3(c1, c2))


def test_projective_map_operations():
    # the map oracles the projective_map_through tests rely on; maps are
    # compared up to scaling
    f = projective_map([[1, 2], [3, 4]], Q)
    g = projective_map([[0, 1], [1, 0]], Q)
    assert oracle_is_identity(oracle_matmul(f, _adjugate(f)))
    h = projective_map([[1, 2, 0], [0, 1, 3], [4, 0, 1]], Q)
    assert oracle_is_identity(oracle_matmul(h, _adjugate(h)))
    assert oracle_is_identity(oracle_matmul(_adjugate(h), h))
    assert oracle_is_identity(projective_map([[5, 0], [0, 5]], Q))
    assert not oracle_is_identity(g)
    assert oracle_same_map(oracle_matmul(f, g), projective_map([[2, 1], [4, 3]], Q))
    assert not oracle_same_map(f, g)
    assert not oracle_same_map(f, projective_map([[1, 2, 0], [3, 4, 0], [0, 0, 1]], Q))
    assert oracle_same_map(f, projective_map([[3, 6], [9, 12]], Q))
    assert not oracle_same_map(f, projective_map([[0, 0], [0, 0]], Q))


@pytest.mark.parametrize("fd", [Prime(7), Prime(2), Galois(2, (1, 1, 0, 1)), Galois(3, (1, 0, 1))],
                         ids=["F7", "F2", "GF8", "GF9"])
def test_2x2_projective_map_inverse_over_finite_fields(fd):
    # the inverse is the adjugate up to scaling and undoes the map on
    # every point of P^1(fd); map equality is up to scaling
    rng = random.Random(f"pgl2-{fd!r}")
    elems = list(fd.iter_elements())
    nonzero = [x for x in elems if not x.is_zero()]
    points = [(fd.one(), x) for x in elems] + [(fd.zero(), fd.one())]
    maps = 0
    while maps < 8:
        a, b, c, d = (rng.choice(elems) for _ in range(4))
        if (a * d - b * c).is_zero():
            continue
        maps += 1
        f = projective_map([[a, b], [c, d]], fd)
        inv = _adjugate(f)
        s = rng.choice(nonzero)
        assert oracle_same_map(inv, projective_map([[s * d, -s * b], [-s * c, s * a]], fd))
        assert oracle_is_identity(oracle_matmul(f, inv))
        assert oracle_is_identity(oracle_matmul(inv, f))
        assert all(oracle_maps_to(inv, oracle_apply(f, v), v) for v in points)


def test_entries_coerce_into_the_field():
    # one coercion for normals and the parametrized family: an element of
    # another field is a FieldMismatch, a Fraction over F_p is its
    # numerator over its denominator, anything else a TypeError
    from discarr.exactfield import FieldMismatch

    g = Quadratic(5).generator()
    with pytest.raises(FieldMismatch):
        Arrangement(Q, 2, ((1, 0), (0, 1), (g, 1)))
    with pytest.raises(TypeError):
        Arrangement(Q, 2, ((1, 0), (0, 1), (1.5, 1)))
    f7 = Prime(7)
    a = Arrangement(f7, 2, ((1, 0), (0, 1), (Fraction(1, 2), 1)))
    assert a.normal(3) == (f7.from_int(4), f7.one())


def test_projective_map_through():
    one, zero = Q.one(), Q.zero()
    src = ((one, zero), (zero, one), (one, one))
    dst = ((one, one), (Q.from_int(2), one), (Q.from_int(5), one))
    f = projective_map_through(src, dst)
    for s, d in zip(src, dst):
        assert oracle_maps_to(f, s, d)
    # a fourth point rides along by cross-ratio preservation
    extra = (Q.from_int(3), one)
    r = oracle_cross_ratio(*src, extra)
    img = oracle_apply(f, extra)
    assert oracle_cross_ratio(*dst, img) == r
    with pytest.raises(DegeneratePoints):
        projective_map_through((src[0], src[0], src[1]), dst)


MAP_FIELDS = {"Q": Q, "F7": Prime(7), "GF8": Galois(2, (1, 1, 0, 1)),
              "GF9": Galois(3, (1, 0, 1)), "sqrt5": Quadratic(5), "zeta12": Cyclotomic(12)}


@pytest.mark.parametrize("name", MAP_FIELDS)
def test_projective_map_through_distinct_points_is_invertible(name):
    # the library checks no determinant: _frame's distinctness test is
    # what makes every map invertible, and coincident points, among the
    # sources or the targets, still raise DegeneratePoints
    fd = MAP_FIELDS[name]
    rng = random.Random(f"map-through-{name}")
    if fd.characteristic():
        pool = list(fd.iter_elements())
    elif fd == Q:
        pool = [Q.from_fraction(Fraction(a, b)) for a in range(-4, 5) for b in (1, 2, 3)]
    else:
        g = fd.generator()
        pool = [fd.from_int(a) + fd.from_int(b) * g for a in range(-3, 4) for b in range(-1, 2)]

    def point():
        while True:
            p = (rng.choice(pool), rng.choice(pool))
            if not all(e.is_zero() for e in p):
                return p

    def distinct():
        while True:
            pts = (point(), point(), point())
            if all(not cofactor_det([u, v]).is_zero() for i, u in enumerate(pts)
                   for v in pts[i + 1:]):
                return pts

    for _ in range(40):
        src, dst = distinct(), distinct()
        f = projective_map_through(src, dst)
        assert not cofactor_det(f).is_zero()
        assert all(oracle_maps_to(f, s, d) for s, d in zip(src, dst))
        c = rng.choice([x for x in pool if not x.is_zero()])
        twin = tuple(c * e for e in src[0])
        with pytest.raises(DegeneratePoints):
            projective_map_through((src[0], twin, src[2]), dst)
        with pytest.raises(DegeneratePoints):
            projective_map_through(src, (dst[0], dst[1], dst[1]))


def test_translate_solver_single_triple():
    a = _lines(2, 5, 8)
    t = translate_solver(a, [(1, 2, 3)])
    assert t is not None
    # the three shifted lines meet: alpha_L . t = 0
    lam = discriminantal_normal(a, (1, 2, 3))
    acc = Q.zero()
    for i in range(6):
        acc = acc + lam[i] * t[i]
    assert acc.is_zero()


def test_translate_solver_respects_patterns():
    a = _lines(2, 5, 8)
    # crapo's detected 4-set admits a translate; a non-detected one does not
    good = ((1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5))
    bad = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6))
    assert translate_solver(a, IndexFamily(good)) is not None
    assert translate_solver(a, IndexFamily(bad)) is None

    t = translate_solver(a, IndexFamily(good))
    for L in good:
        lam = discriminantal_normal(a, L)
        acc = Q.zero()
        for i in range(6):
            acc = acc + lam[i] * t[i]
        assert acc.is_zero()


def test_translate_solver_input_validation():
    a = _lines(2, 5, 8)
    with pytest.raises(ValueError):
        translate_solver(a, [(1, 2)])
    with pytest.raises(ValueError):
        translate_solver(a, [(1, 2, 9)])
    degenerate = Arrangement(Q, 2, ((1, 0), (1, 0), (0, 1)))
    with pytest.raises(NotGeneric):
        translate_solver(degenerate, [(1, 2, 3)])


def test_index_family():
    fam = IndexFamily([(3, 1, 2), (1, 2, 3), (4, 5, 6)])
    assert len(fam) == 2
    assert (1, 2, 3) in list(fam)
    with pytest.raises(ValueError, match="at least one"):
        IndexFamily([])
    with pytest.raises(ValueError, match="nested"):
        IndexFamily([(1, 2, 3), (1, 2, 3, 4)])


def test_json_roundtrip_over_each_field():
    for a in (crapo(), octahedral(), f4_arrangement(), regular_polygon(6)):
        b = arrangement_from_json(arrangement_to_json(a))
        assert b == a
        assert b.field == a.field and b.k == a.k and b.normals == a.normals


def test_json_rejects_garbage():
    with pytest.raises((KeyError, ValueError, TypeError)):
        arrangement_from_json({"k": 2})
    with pytest.raises(ValueError, match="must be an object"):
        arrangement_from_json([])


def test_json_rejects_bool_k():
    obj = arrangement_to_json(crapo())
    obj["k"] = True
    with pytest.raises(ValueError, match="k must be an integer"):
        arrangement_from_json(obj)
