"""Q(sqrt d) on the power basis against Fraction-pair arithmetic.

The oracle is the arithmetic Quadratic used to run on payloads
(a0, a1) = a0 + a1*g, g*g = d, with Fraction coordinates: coordinatewise
sums, (a0 b0 + d a1 b1, a0 b1 + a1 b0) for a product and the conjugate
over the norm a0^2 - d a1^2 for an inverse.  The library's shared
power-basis payloads must give the same coordinates for seeded dense
elements of every listed d, and zero must raise DivisionByZero.
"""

import random
from fractions import Fraction

import pytest

from discarr import Quadratic
from discarr.exactfield import DivisionByZero, FieldElement

DS = (-7, -3, -1, 2, 3, 5, 13)


# ---------------------------------------------------------------------------
# oracle

def oracle_add(d, a, b):
    return (a[0] + b[0], a[1] + b[1])


def oracle_mul(d, a, b):
    return (a[0] * b[0] + d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def oracle_inv(d, a):
    norm = a[0] * a[0] - d * a[1] * a[1]
    if norm == 0:
        raise DivisionByZero("1/0 in quadratic field")
    return (a[0] / norm, -a[1] / norm)


# ---------------------------------------------------------------------------
# checks

def _pair(rng):
    return tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 6, 35)))
                 for _ in range(2))


def _element(fd, pair):
    return fd.from_fraction(pair[0]) + fd.from_fraction(pair[1]) * fd.generator()


@pytest.mark.parametrize("d", DS)
def test_power_basis_matches_fraction_pairs(d):
    fd = Quadratic(d)
    rng = random.Random(f"quadratic-oracle-{d}")
    inverted = 0
    for _ in range(40):
        a, b = _pair(rng), _pair(rng)
        ea, eb = _element(fd, a), _element(fd, b)
        assert fd.coefficients(ea) == a
        assert fd.coefficients(FieldElement(fd, fd._add(ea.payload, eb.payload))) \
            == oracle_add(d, a, b)
        assert fd.coefficients(FieldElement(fd, fd._mul(ea.payload, eb.payload))) \
            == oracle_mul(d, a, b)
        if any(a):
            assert fd.coefficients(FieldElement(fd, fd._inv(ea.payload))) == oracle_inv(d, a)
            inverted += 1
    assert inverted
    with pytest.raises(DivisionByZero):
        fd._inv(fd.zero().payload)
    with pytest.raises(DivisionByZero):
        oracle_inv(d, (Fraction(0), Fraction(0)))
