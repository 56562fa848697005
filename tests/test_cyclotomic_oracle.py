"""Q(zeta_m) products and inverses against Fraction polynomial arithmetic.

The oracle is the extended Euclid over Q that Cyclotomic._inv used to
run: an inverse of f modulo the m-th cyclotomic polynomial, by long
division of Fraction coefficient lists.  The library multiplies through
a table of powers of the generator and inverts by the norm (the product
of the other conjugates over the rational norm); payloads must agree
exactly, for dense elements of every listed m (prime m, where
2 phi - 1 > m, included) and for every det2 of the polygon galleries.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from discarr import Cyclotomic, build_gallery
from discarr.exactfield import DivisionByZero, FieldElement
from discarr.linalg import _det_payloads

MODULI = (3, 5, 7, 8, 9, 12, 15, 28, 40, 56)


# ---------------------------------------------------------------------------
# oracle

def _fq_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _fq_divmod(num, den):
    """Polynomial long division over Q; returns (quotient, remainder)."""
    rem = list(num)
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return [], _fq_trim(rem)
    quot = [Fraction(0)] * (len(rem) - dd)
    lead = den[-1]
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] / lead
        quot[i - dd] = c
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] -= c * den[j]
    return quot, _fq_trim(rem[:dd])


def _fq_invert_mod(f, g):
    """Inverse of f modulo g over Q (g irreducible, f nonzero mod g)."""
    r0, r1 = list(g), _fq_trim(list(f))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, rem = _fq_divmod(r0, r1)
        new_s = list(s0)
        prod = [Fraction(0)] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    prod[i + j] += qi * sj
        n = max(len(new_s), len(prod))
        new_s += [Fraction(0)] * (n - len(new_s))
        for i, pi in enumerate(prod):
            new_s[i] -= pi
        r0, r1 = r1, rem
        s0, s1 = s1, _fq_trim(new_s)
    if len(r0) != 1:
        raise ArithmeticError("modulus not coprime to operand")
    c = r0[0]
    return [x / c for x in s0]


def _modulus(fd):
    return [Fraction(c) for c in fd.poly]


def _padded(fd, coeffs):
    return tuple(coeffs) + (Fraction(0),) * (fd.phi - len(coeffs))


def oracle_mul(fd, a, b):
    ca, cb = fd.coefficients(a), fd.coefficients(b)
    prod = [Fraction(0)] * (2 * fd.phi - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    return _padded(fd, _fq_divmod(prod, _modulus(fd))[1])


def oracle_inv(fd, a):
    return _padded(fd, _fq_invert_mod(list(fd.coefficients(a)), _modulus(fd)))


# ---------------------------------------------------------------------------
# checks

def _canonical(fd, payload):
    """Primitive integer vector over a positive denominator."""
    vec, den = payload
    return fd._norm(list(vec), den) == payload


def _check_inverse(fd, a):
    inv = FieldElement(fd, fd._inv(a.payload))
    assert _canonical(fd, inv.payload)
    assert fd.coefficients(inv) == oracle_inv(fd, a)


def _dense(fd, rng):
    den = rng.choice((1, 1, 2, 6, 35))
    vec = [rng.randint(-9, 9) for _ in range(fd.phi)]
    return FieldElement(fd, fd._norm(vec, den))


@pytest.mark.parametrize("m", MODULI)
def test_power_table_matches_oracle(m):
    fd = Cyclotomic(m)
    assert len(fd._powers) == max(m, 2 * fd.phi - 1)
    for e, row in enumerate(fd._powers):
        x_e = [Fraction(0)] * e + [Fraction(1)]
        assert _padded(fd, _fq_divmod(x_e, _modulus(fd))[1]) == row


@pytest.mark.parametrize("m", MODULI)
def test_mul_and_inv_match_oracle_on_dense_elements(m):
    fd = Cyclotomic(m)
    rng = random.Random(f"cyclotomic-oracle-{m}")
    checked = 0
    for _ in range(6):
        a, b = _dense(fd, rng), _dense(fd, rng)
        prod = FieldElement(fd, fd._mul(a.payload, b.payload))
        assert _canonical(fd, prod.payload)
        assert fd.coefficients(prod) == oracle_mul(fd, a, b)
        if not a.is_zero():
            _check_inverse(fd, a)
            checked += 1
    assert checked
    with pytest.raises(DivisionByZero):
        fd._inv(fd.zero().payload)


@pytest.mark.parametrize("n", (7, 8, 9, 10))
def test_inv_matches_oracle_on_polygon_det2s(n):
    a = build_gallery(f"polygon-{n}")
    fd = a.field
    rows = [[e.payload for e in v] for v in a.normals]
    for u, v in combinations(rows, 2):
        _check_inverse(fd, FieldElement(fd, _det_payloads(fd, [u, v])))
