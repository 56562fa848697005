"""Q on the power basis against Fraction arithmetic.

The oracle is the arithmetic Rational used to run on Fraction payloads:
a + b, -a, a * b, 1 / a, str(a) for output and Fraction(n) for an
integer.  Q is now the degree-1 power basis Q[x]/(x) with payloads
((n,), d); its shared hooks must give the same values for seeded
rationals of growing size, every payload must be canonical, zero must
raise DivisionByZero, and Q has no generator, so "g" does not parse.
"""

import random
from fractions import Fraction

import pytest

from discarr import Prime, Quadratic, Rational
from discarr.exactfield import (
    DivisionByZero,
    FieldElement,
    ParseError,
    embed,
    format_element,
    parse_element,
)


def _fraction(rng, bits):
    return Fraction(rng.randint(-(1 << bits), 1 << bits),
                    rng.choice((1, 1, 2, 6, 35, rng.randint(1, 1 << bits))))


def _value(fd, payload):
    (q,) = fd.coefficients(FieldElement(fd, payload))
    assert fd._norm(list(payload[0]), payload[1]) == payload  # canonical
    return q


@pytest.mark.parametrize("bits", (3, 20, 90))
def test_power_basis_matches_fractions(bits):
    fd = Rational()
    rng = random.Random(f"rational-oracle-{bits}")
    inverted = 0
    for _ in range(60):
        a, b = _fraction(rng, bits), _fraction(rng, bits)
        ea, eb = fd.from_fraction(a), fd.from_fraction(b)
        assert _value(fd, ea.payload) == a
        assert _value(fd, fd._add(ea.payload, eb.payload)) == a + b
        assert _value(fd, fd._neg(ea.payload)) == -a
        assert _value(fd, fd._mul(ea.payload, eb.payload)) == a * b
        assert format_element(ea) == str(a)
        if a:
            assert _value(fd, fd._inv(ea.payload)) == 1 / a
            inverted += 1
    assert inverted
    for n in (0, 1, -1, 7, -(1 << 70)):
        assert _value(fd, fd._coerce_int(n)) == Fraction(n)
        assert fd._is_zero(fd._coerce_int(n)) == (n == 0)


def test_zero_has_no_inverse():
    fd = Rational()
    with pytest.raises(DivisionByZero):
        fd._inv(fd.zero().payload)
    with pytest.raises(DivisionByZero):
        fd.one() / fd.zero()


def test_no_generator():
    for fd in (Rational(), Prime(7)):
        with pytest.raises(ParseError):
            fd.generator()
        # a term that names g needs the generator, even at exponent 0
        for text in ("g", "1 + g", "2*g^2", "g^0", "0*g^0", "1+g^0"):
            with pytest.raises(ParseError):
                parse_element(text, fd)
    fd = Rational()
    assert parse_element("-6/4", fd) == fd.from_fraction(Fraction(-3, 2))


def test_rational_elements_embed():
    q, f = Rational(), Quadratic(5)
    x = q.from_fraction(Fraction(-5, 3))
    assert embed(x, q) is x
    assert f.coefficients(embed(x, f)) == (Fraction(-5, 3), Fraction(0))
