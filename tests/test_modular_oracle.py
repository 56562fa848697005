"""The certified-prime image against the field it stands in for.

detect and lattice decide their zero tests over Q(sqrt d) and Q(zeta_m)
on modular_image(a), an arrangement over one large prime field.  The
path in the arrangement's own field stays here as the oracle: every
detector set, lattice flat and nvg flag must come out the same, and a
non-generic arrangement must raise NotGeneric on both.  The prime's
certificate and the norm bound behind it are checked on their own.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    NotGeneric,
    Quadratic,
    build_gallery,
    good6_points,
    intersection_lattice,
    is_generic,
    nvg_flats,
    pappus_closure_check,
    quadral_points,
    quintuple_points,
)
from discarr import modular
from discarr.exactfield import _is_prime, _PRIME_LIMIT, _prime_factors
from discarr.linalg import _det_payloads
from discarr.modular import (
    _certified_prime,
    _lucas_root,
    _sqrt_mod,
    modular_image,
)

from _helpers import oracle_cross3, oracle_lucas_root, perfect_matchings


def _detect(a):
    if a.k == 2:
        return (quadral_points(a), quintuple_points(a) if a.n >= 7 else None)
    return (good6_points(a), pappus_closure_check(a))


def _lattice(a, max_rank=None):
    lat = intersection_lattice(a, max_rank=max_rank)
    return lat.flats_by_rank, nvg_flats(lat)


def _outcome(fn, a, *args):
    try:
        return fn(a, *args)
    except NotGeneric as exc:
        return ("NotGeneric", str(exc))


GALLERY = ["octahedral", "dodecahedral", "witness-1^1,5^1", "witness-3^2"]


@pytest.mark.parametrize("name", GALLERY + [f"polygon-{n}" for n in range(3, 12)])
def test_detect_on_image_matches_field(name):
    a = build_gallery(name)
    image = modular_image(a)
    assert image.field.characteristic() > 0
    assert _detect(image) == _detect(a)


@pytest.mark.parametrize("name, max_rank", [(g, None) for g in GALLERY]
                         + [("polygon-6", None), ("polygon-7", 3)])
def test_lattice_on_image_matches_field(name, max_rank):
    a = build_gallery(name)
    assert _lattice(modular_image(a, lattice=True), max_rank) == _lattice(a, max_rank)


def test_image_of_rational_and_finite_fields_is_the_arrangement():
    for name in ("crapo", "f4", "f5", "witness-1^6"):
        a = build_gallery(name)
        assert modular_image(a) is a and modular_image(a, lattice=True) is a


# ---------------------------------------------------------------------------
# seeded arrangements, generic and not

def _element(fd, rng):
    # few small terms, so that coincidences happen by chance
    phi = fd.phi
    vec = [0] * phi
    for _ in range(rng.randint(1, 2)):
        vec[rng.randrange(phi)] += rng.choice((-2, -1, 1, 1, 2))
    x = fd.zero()
    g = fd.generator()
    for i, c in enumerate(vec):
        x = x + fd.from_int(c) * g ** i
    return x / fd.from_int(rng.choice((1, 1, 2, 3)))


def _seeded(fd, k, n, rng, degenerate):
    normals = [[_element(fd, rng) for _ in range(k)] for _ in range(n)]
    if degenerate:
        # a k-subset of normals with one of them a combination of the rest
        i, j = rng.sample(range(n), 2)
        c = _element(fd, rng) or fd.one()
        if k == 2:
            normals[j] = [c * x for x in normals[i]]
        else:
            h = rng.choice([x for x in range(n) if x not in (i, j)])
            normals[j] = [c * x + y for x, y in zip(normals[i], normals[h])]
    return Arrangement(fd, k, normals)


def _with_pattern(fd, k, rng):
    """Normals that carry a pattern by construction: for k = 2 a quint
    family (a map fixing the center (1, 0) moves one triple onto the
    other, keeping its cross ratio); for k = 3 a good partition (the
    third pair's intersection line chosen in the span of the first two),
    drawn until generic."""
    while True:
        if k == 2:
            t = [[_element(fd, rng) for _ in range(2)] for _ in range(3)]
            a, b, d = (_element(fd, rng) or fd.one() for _ in range(3))
            moved = [[a * x + b * y, d * y] for x, y in t]
            normals = [[fd.one(), fd.zero()]] + t + moved
        else:
            p1, q1, p2, q2, p3 = ([_element(fd, rng) for _ in range(3)] for _ in range(5))
            w = oracle_cross3(oracle_cross3(p1, q1), oracle_cross3(p2, q2))
            r = _element(fd, rng)
            q3 = [x + r * y for x, y in zip(oracle_cross3(oracle_cross3(w, p3), p3), p3)]
            normals = [p1, q1, p2, q2, p3, q3]
        a = Arrangement(fd, k, normals)
        if is_generic(a):
            return a


FIELDS = [Quadratic(5), Quadratic(-3), Cyclotomic(5), Cyclotomic(8), Cyclotomic(12)]


@pytest.mark.parametrize("fd", FIELDS, ids=repr)
@pytest.mark.parametrize("k, n", [(2, 7), (3, 6)])
def test_seeded_detect_matches_field(fd, k, n):
    rng = random.Random(f"detect-{fd!r}-{k}")
    for trial in range(3):
        a = _seeded(fd, k, n, rng, degenerate=trial == 1)
        expected = _outcome(_detect, a)
        if trial == 1:
            assert expected[0] == "NotGeneric"
        assert _outcome(_detect, modular_image(a)) == expected
    a = _with_pattern(fd, k, rng)
    expected = _detect(a)
    assert expected[0 if k == 3 else 1]
    assert _detect(modular_image(a)) == expected


@pytest.mark.parametrize("fd", FIELDS, ids=repr)
@pytest.mark.parametrize("k", [2, 3])
def test_seeded_lattice_matches_field(fd, k):
    rng = random.Random(f"lattice-{fd!r}-{k}")
    for trial in range(2):
        a = _seeded(fd, k, 6, rng, degenerate=trial == 1)
        expected = _outcome(_lattice, a)
        if trial:
            assert expected[0] == "NotGeneric"
        assert _outcome(_lattice, modular_image(a, lattice=True)) == expected
    if k == 3:
        a = _with_pattern(fd, 3, rng)
        expected = _lattice(a)
        assert expected[1]
        assert _lattice(modular_image(a, lattice=True)) == expected


# ---------------------------------------------------------------------------
# the prime and its certificate

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745, 825265)


@pytest.mark.parametrize("n", CARMICHAEL + (3215031751, 3825123056546413051,
                                            4294967297, 1000003 * 1000033, 49, 91))
def test_lucas_rejects_composites(n):
    assert _lucas_root(n, _prime_factors(n - 1)) is None


def test_lucas_root_is_primitive():
    for p in range(3, 400):
        g = _lucas_root(p, _prime_factors(p - 1))
        if not _is_prime(p):
            assert g is None
            continue
        order = next(e for e in range(1, p) if pow(g, e, p) == 1)
        assert order == p - 1


def test_lucas_root_agrees_with_the_full_fermat_test():
    # y = g^((n-1)/2) in place of g^(n-1): the same base or None on every
    # odd n, prime or composite
    for n in list(range(3, 6000, 2)) + list(CARMICHAEL):
        factors = _prime_factors(n - 1)
        assert _lucas_root(n, factors) == oracle_lucas_root(n, factors), n


@pytest.mark.parametrize("fd", [Cyclotomic(m) for m in (3, 4, 5, 7, 8, 12, 28, 105)]
                         + [Quadratic(d) for d in (-1, -3, 2, 5, 13, -7)], ids=repr)
@pytest.mark.parametrize("bits", [1, 20, 64, 300])
def test_certified_prime_agrees_with_the_full_fermat_test(monkeypatch, fd, bits):
    bound = (1 << bits) - 1
    found = _certified_prime(fd, bound)
    monkeypatch.setattr(modular, "_lucas_root", oracle_lucas_root)
    assert _certified_prime(fd, bound) == found


def _assert_prime_shape(p, m):
    """p - 1 = c * lcm(8, m) * 3^a with c odd and a >= 1, so its 2-adic
    valuation is that of lcm(8, m)."""
    step = lcm(8, m)
    assert (p - 1) % (3 * step) == 0 and (p - 1) // step % 2 == 1


def _two_adic(n):
    return (n & -n).bit_length() - 1


def _exact_order(r, m, p):
    return pow(r, m, p) == 1 and all(pow(r, m // q, p) != 1 for q in _prime_factors(m))


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8, 12, 28, 40, 56, 105, 384, 512])
@pytest.mark.parametrize("bits", [1, 40, 300])
def test_certified_prime_has_root_of_order_m(m, bits):
    fd = Cyclotomic(m)
    bound = (1 << bits) - 1
    p, root = _certified_prime(fd, bound)
    assert p > bound and (p - 1) % m == 0
    _assert_prime_shape(p, m)
    assert _two_adic(p - 1) <= 9
    assert _exact_order(root, m, p)
    # the root is a root of Phi_m modulo p
    assert sum(c * pow(root, i, p) for i, c in enumerate(fd.poly)) % p == 0
    if p < _PRIME_LIMIT:
        assert _is_prime(p)


@pytest.mark.parametrize("d", [-1, -3, 2, 5, 13, -7])
@pytest.mark.parametrize("bits", [1, 40, 300])
def test_certified_prime_has_square_root_of_d(d, bits):
    bound = (1 << bits) - 1
    p, root = _certified_prime(Quadratic(d), bound)
    assert p > bound
    _assert_prime_shape(p, 1)
    assert _two_adic(p - 1) == 3
    assert (root * root - d) % p == 0
    if p < _PRIME_LIMIT:
        assert _is_prime(p)


# 2-adic valuations of p - 1 from 1 to 9
@pytest.mark.parametrize("p", [3, 5, 41, 17, 97, 193, 641, 257, 7681])
def test_sqrt_mod_reads_the_two_sylow_subgroup(p):
    g = _lucas_root(p, _prime_factors(p - 1))
    for x in range(1, min(p, 300)):
        r = _sqrt_mod(x * x % p, p, g)
        assert r * r % p == x * x % p


# ---------------------------------------------------------------------------
# the bound: every value tested has a norm below p

def _abs_norm(fd, payload):
    """|N(alpha)| as the product of alpha and its other conjugates."""
    vec, den = payload
    prod = payload
    for images in fd._conjugates:
        conj = [0] * fd.phi
        for i, v in enumerate(vec):
            for t, r in enumerate(images[i]):
                conj[t] += v * r
        prod = fd._mul(prod, (tuple(conj), den))
    assert not any(prod[0][1:])
    return abs(Fraction(prod[0][0], prod[1]))


def _integral_rows(a):
    fd = a.field
    return {p: [fd._norm(list(vec), 1) for vec in fd._integral([e.payload for e in v])]
            for p, v in zip(a.indices, a.normals)}


def _large_d_lines():
    # sqrt d far from 1, so that the bound must weigh g by sqrt|d|
    fd = Quadratic(1000003)
    g, one = fd.generator(), fd.one()
    return Arrangement(fd, 2, ((one, 0), (0, one), (one, g), (g, one), (one + g, one),
                               (one, g - one), (g + 2, 3 * one)))


@pytest.mark.parametrize("build", [lambda: build_gallery("polygon-7"), _large_d_lines],
                         ids=["polygon-7", "sqrt1000003"])
def test_det2_and_quadral_norms_below_p(build):
    a = build()
    fd = a.field
    p = modular_image(a).field.p
    rows = _integral_rows(a)
    dets = {}
    for x, y in combinations(a.indices, 2):
        dets[x, y] = _det_payloads(fd, [rows[x], rows[y]])
        dets[y, x] = fd._neg(dets[x, y])
    tested = list(dets.values())
    mul, add, neg = fd._mul, fd._add, fd._neg
    for subset in combinations(a.indices, 6):
        for (a1, b1), (a2, b2), (a3, b3) in perfect_matchings(subset):
            lhs = mul(mul(dets[a1, b2], dets[a2, b3]), dets[a3, b1])
            rhs = mul(mul(dets[a1, b3], dets[a2, b1]), dets[a3, b2])
            tested.append(add(lhs, neg(rhs)))
    assert max(_abs_norm(fd, x) for x in tested) < p


def test_dodecahedral_minor_and_good6_norms_below_p():
    a = build_gallery("dodecahedral")
    fd = a.field
    p = modular_image(a).field.p
    rows = _integral_rows(a)
    tested = [_det_payloads(fd, [rows[x] for x in t])
              for t in combinations(a.indices, 3)]
    mul, add, neg = fd._mul, fd._add, fd._neg
    cross = {}
    for x, y in combinations(a.indices, 2):
        (u0, u1, u2), (v0, v1, v2) = rows[x], rows[y]
        cross[x, y] = [add(mul(u1, v2), neg(mul(u2, v1))),
                       add(mul(u2, v0), neg(mul(u0, v2))),
                       add(mul(u0, v1), neg(mul(u1, v0)))]
    for pairs in perfect_matchings(a.indices):
        tested.append(_det_payloads(fd, [cross[q] for q in pairs]))
    norms = [_abs_norm(fd, x) for x in tested]
    assert max(norms) < p
    assert any(n == 0 for n in norms) and any(n > 0 for n in norms)

