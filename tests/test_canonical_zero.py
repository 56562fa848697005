"""One zero payload per field kind, which is_generic's one scan reads.

is_generic looks for fd._coerce_int(0) among the minors' values instead
of testing each with _is_zero; that is the same answer exactly when every
field kind has one zero payload and every route to zero lands on it.
Over Q, Q(sqrt d), Q(zeta_m), F_p, GF(q) below and above the table limit
and a certified prime image: is_generic equals the per-minor _is_zero
oracle on generic arrangements, parallel lines and a dependent triple;
x + (-x), x * 0 and 0 * x, and vanishing 2 x 2, 3 x 3 and 4 x 4
determinants are _coerce_int(0); and minors() lists its keys in
combinations order, the order detectors._subset_plan reads them by.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    Galois,
    ParseError,
    Prime,
    Quadratic,
    Rational,
    build_gallery,
    is_generic,
)
from discarr.exactfield import _GALOIS_TABLE_LIMIT
from discarr.linalg import _det_payloads
from discarr.modular import modular_image

# the prime of polygon-6's image: Q(zeta_24) sent into F_p for a
# certified p past _PRIME_LIMIT
CERTIFIED = modular_image(build_gallery("polygon-6")).field

FIELDS = {
    "Q": Rational(),
    "sqrt5": Quadratic(5),
    "sqrt-3": Quadratic(-3),
    "zeta12": Cyclotomic(12),
    "F7": Prime(7),
    "GF8": Galois(2, (1, 1, 0, 1)),
    "GF9": Galois(3, (1, 0, 1)),
    # above the table limit: x^13 + x^4 + x^3 + x + 1 over F_2 and
    # x^8 + x^6 + x^5 + 1 over F_3
    "GF8192": Galois(2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,)),
    "GF6561": Galois(3, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    "certified": CERTIFIED,
}


def test_the_fields_cover_each_kind_and_route():
    assert type(CERTIFIED) is Prime and CERTIFIED.p > 2 ** 100
    assert {fd.kind for fd in FIELDS.values()} == {
        "rational", "quadratic", "cyclotomic", "prime", "galois"}
    assert [FIELDS[n].q > _GALOIS_TABLE_LIMIT for n in ("GF9", "GF8192", "GF6561")] == [
        False, True, True]


def _element(fd, rng):
    """A random element: an integer, a fraction in characteristic 0, and
    a multiple of the generator where the field has one."""
    if fd.characteristic():
        x = fd.from_int(rng.randrange(fd.characteristic()))
    else:
        x = fd.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    try:
        g = fd.generator()
    except ParseError:
        return x
    return x + g * fd.from_int(rng.randint(-5, 5)) + g * g * fd.from_int(rng.randint(-5, 5))


def _nonzero(fd, rng):
    while True:
        x = _element(fd, rng)
        if not x.is_zero():
            return x


def _oracle_is_generic(a) -> bool:
    return not any(map(a.field._is_zero, a.minors().values()))


def _generic(fd, k, n, rng):
    while True:
        a = Arrangement(fd, k, [[_element(fd, rng) for _ in range(k)] for _ in range(n)])
        if _oracle_is_generic(a):
            return a


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_is_generic_equals_the_per_minor_oracle(name):
    """Generic lines and planes, then the same with two parallel lines
    (a normal times a nonzero scalar) or a dependent triple (a sum of
    two multiples of normals), inserted at several places."""
    fd = FIELDS[name]
    rng = random.Random(f"canonical-{name}")
    verdicts = []
    for k in (2, 3):
        for n in (k + 1, 6):
            a = _generic(fd, k, n, rng)
            normals = list(a.normals)
            u, v = normals[0], normals[-1]
            s, t = _nonzero(fd, rng), _nonzero(fd, rng)
            if k == 2:
                bad = [s * x for x in u]
            else:
                bad = [s * x + t * y for x, y in zip(u, v)]
            for at in (1, len(normals)):
                for b in (a, Arrangement(fd, k, normals[:at] + [bad] + normals[at:])):
                    verdicts.append(is_generic(b))
                    assert verdicts[-1] == _oracle_is_generic(b)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_every_route_to_zero_lands_on_coerce_int_zero(name):
    fd = FIELDS[name]
    zero = fd._coerce_int(0)
    assert fd.zero().payload == fd.from_int(0).payload == zero
    assert fd._is_zero(zero)
    rng = random.Random(f"zero-routes-{name}")
    for _ in range(20):
        x, y = (_element(fd, rng).payload for _ in range(2))
        assert fd._add(x, fd._neg(x)) == zero
        assert fd._add(fd._neg(x), x) == zero
        assert fd._mul(x, zero) == fd._mul(zero, x) == zero
        assert fd._neg(zero) == zero
        # vanishing determinants: a row that is a combination of the others
        rows = [[_element(fd, rng).payload for _ in range(4)] for _ in range(3)]
        for size in (2, 3, 4):
            top = [row[:size] for row in rows[:size - 1]]
            last = [fd._add(fd._mul(x, a), fd._mul(y, b))
                    for a, b in zip(top[0], top[-1])]
            for at in (0, size - 1):
                matrix = top[:at] + [last] + top[at:]
                assert _det_payloads(fd, matrix) == zero
        assert _det_payloads(fd, [[x, y], [x, y]]) == zero


@pytest.mark.parametrize("k, n", [(1, 3), (2, 7), (3, 7), (4, 6)])
def test_minors_keys_come_in_combinations_order(k, n):
    fd = Prime(101)
    a = _generic(fd, k, n, random.Random(f"order-{k}-{n}"))
    assert list(a.minors()) == list(combinations(a.indices, k))
    assert list(a.minors().values()) == [a.minors()[key] for key in combinations(a.indices, k)]
