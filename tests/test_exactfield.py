"""Field arithmetic: axioms, parsing, serialization, and known values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discarr import (
    Cyclotomic,
    DivisionByZero,
    FieldMismatch,
    Galois,
    ParseError,
    Prime,
    Quadratic,
    Rational,
    descriptor_from_json,
    descriptor_to_json,
    embed,
    format_element,
    parse_element,
)
from discarr.exactfield import cyclotomic_polynomial

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=8)


# ---------------------------------------------------------------------------
# rationals

def test_rational_basics():
    q = Rational()
    a = q.from_fraction(Fraction(3, 4))
    b = q.from_int(2)
    assert a + b == q.from_fraction(Fraction(11, 4))
    assert a * b == q.from_fraction(Fraction(3, 2))
    assert (a / b) * b == a
    assert -a + a == q.zero()
    assert b ** -2 == q.from_fraction(Fraction(1, 4))
    assert q.characteristic() == 0


def test_rational_division_by_zero():
    q = Rational()
    with pytest.raises(DivisionByZero):
        q.one() / q.zero()
    with pytest.raises(DivisionByZero):
        q.zero().inv()


@given(a=fractions_st, b=fractions_st, c=fractions_st)
def test_rational_matches_fraction_oracle(a, b, c):
    q = Rational()
    ea, eb, ec = (q.from_fraction(v) for v in (a, b, c))
    assert ea * (eb + ec) == q.from_fraction(a * (b + c))
    assert (ea - eb) * ec == q.from_fraction((a - b) * c)


# ---------------------------------------------------------------------------
# quadratic extensions

def test_quadratic_generator_squares_to_d():
    for d in (5, -3, -1, 2):
        f = Quadratic(d)
        g = f.generator()
        assert g * g == f.from_int(d)
        assert g != f.zero()


def test_quadratic_rejects_bad_d():
    for d in (0, 1, 4, 9, 12, -12):
        with pytest.raises(ValueError):
            Quadratic(d)


def test_quadratic_golden_root():
    # (g - 1)/2 solves x^2 + x - 1 = 0 when g^2 = 5
    f = Quadratic(5)
    x = (f.generator() - 1) / 2
    assert x * x + x - 1 == f.zero()


def test_quadratic_sixth_root():
    # (g + 1)/2 solves x^2 - x + 1 = 0 when g^2 = -3
    f = Quadratic(-3)
    x = (f.generator() + 1) / 2
    assert x * x - x + 1 == f.zero()


@given(a=fractions_st, b=fractions_st, c=fractions_st, d=fractions_st)
@settings(max_examples=60)
def test_quadratic_axioms(a, b, c, d):
    f = Quadratic(5)
    g = f.generator()
    x = embed(a, f) + embed(b, f) * g
    y = embed(c, f) + embed(d, f) * g
    assert x * y == y * x
    assert x * (y + g) == x * y + x * g
    if not y.is_zero():
        assert (x / y) * y == x


# ---------------------------------------------------------------------------
# prime fields

def test_prime_field_arithmetic():
    f = Prime(5)
    assert f.from_int(3) + f.from_int(4) == f.from_int(2)
    assert f.from_int(2) * f.from_int(3) == f.from_int(1)
    assert f.from_int(2).inv() == f.from_int(3)
    assert f.characteristic() == 5
    assert len(list(f.iter_elements())) == 5


def test_prime_rejects_composite():
    for p in (1, 4, 6, 9):
        with pytest.raises(ValueError):
            Prime(p)


def test_prime_inverses_all_nonzero():
    f = Prime(11)
    for x in f.iter_elements():
        if not x.is_zero():
            assert x * x.inv() == f.one()


# ---------------------------------------------------------------------------
# Galois fields

def test_f4_structure():
    f = Galois(2, (1, 1, 1))
    g = f.generator()
    assert f.characteristic() == 2
    assert g * g == g + f.one()          # modulus x^2 + x + 1
    assert g ** 3 == f.one()
    elems = list(f.iter_elements())
    assert len(elems) == 4
    assert len(set(elems)) == 4


def test_galois_rejects_reducible_modulus():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ValueError):
        Galois(2, (1, 0, 1))


def test_f8_inverses():
    f = Galois(2, (1, 1, 0, 1))
    for x in f.iter_elements():
        if not x.is_zero():
            assert x * x.inv() == f.one()


# ---------------------------------------------------------------------------
# cyclotomic fields

def test_cyclotomic_polynomial_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_root_of_unity():
    f = Cyclotomic(12)
    z = f.generator()
    assert f.phi == 4
    assert z ** 12 == f.one()
    assert z ** 6 == -f.one()
    assert (z ** 3) ** 2 == -f.one()     # z^3 is a primitive 4th root


def test_cyclotomic_mixed_denominator_addition():
    # regression: adding elements whose coefficient vectors carry
    # different denominators must combine over the lcm
    f = Cyclotomic(24)
    half = f.from_fraction(Fraction(1, 2))
    third = f.from_fraction(Fraction(1, 3))
    assert f.one() + half == f.from_fraction(Fraction(3, 2))
    assert half + third == f.from_fraction(Fraction(5, 6))
    z = f.generator()
    x = z * half + f.one()
    assert f.coefficients(x) == (Fraction(1), Fraction(1, 2)) + (Fraction(0),) * 6


def test_cyclotomic_matches_fraction_oracle():
    rng = random.Random("cyclotomic-oracle")
    f = Cyclotomic(20)
    g = f.generator()

    def element(coeffs):
        x = f.zero()
        for j, c in enumerate(coeffs):
            x = x + f.from_fraction(c) * g ** j
        return x

    for _ in range(60):
        ca = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(f.phi)]
        cb = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(f.phi)]
        a, b = element(ca), element(cb)
        assert f.coefficients(a) == tuple(ca)
        assert f.coefficients(a + b) == tuple(x + y for x, y in zip(ca, cb))
        assert f.coefficients(a - b) == tuple(x - y for x, y in zip(ca, cb))
        if not b.is_zero():
            assert (a / b) * b == a


def test_cyclotomic_inverse_roundtrip():
    f = Cyclotomic(16)
    z = f.generator()
    x = z ** 3 - z + f.from_fraction(Fraction(2, 3))
    assert x * x.inv() == f.one()
    with pytest.raises(DivisionByZero):
        f.zero().inv()


# ---------------------------------------------------------------------------
# cross-field hygiene, embedding, serialization

def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        Rational().one() + Quadratic(5).one()
    with pytest.raises(FieldMismatch):
        Prime(5).one() * Prime(7).one()


def test_equal_elements_hash_equally():
    # an element equals only elements of its field, so == and hash agree:
    # a bare int is never equal to an element, even one of the same value
    for make in (Rational, lambda: Quadratic(5), lambda: Prime(7),
                 lambda: Galois(2, (1, 1, 1)), lambda: Cyclotomic(12)):
        fd, twin = make(), make()  # equal descriptors, distinct objects
        values = [fd.from_int(n) for n in range(-3, 10)]
        values += [twin.from_int(n) for n in range(-3, 10)]
        for x in values:
            for y in values:
                if x == y:
                    assert hash(x) == hash(y)
        one = fd.one()
        assert one != 1 and 1 != one
        assert len({one, twin.one(), fd.from_int(1)}) == 1
        assert one + 1 == fd.from_int(2)  # arithmetic with ints still lifts


def test_embed_into_each_field():
    third = Fraction(1, 3)
    assert embed(third, Rational()) == Rational().from_fraction(third)
    f = Quadratic(5)
    assert embed(third, f) * embed(3, f) == f.one()
    c = Cyclotomic(8)
    assert embed(third, c) * embed(3, c) == c.one()
    with pytest.raises(FieldMismatch):
        embed(third, Prime(7))   # fractional embedding is char-0 only


def test_descriptor_json_roundtrip():
    for fd in (Rational(), Quadratic(5), Quadratic(-3), Prime(5),
               Galois(2, (1, 1, 1)), Cyclotomic(24)):
        assert descriptor_from_json(descriptor_to_json(fd)) == fd


def test_parse_format_roundtrip():
    cases = [
        (Rational(), ["0", "-3", "7/2"]),
        (Quadratic(5), ["g", "1/2*g-1/2", "3"]),
        (Prime(5), ["4", "0"]),
        (Galois(2, (1, 1, 1)), ["g", "g+1"]),
        (Cyclotomic(12), ["g^3", "g^2-1/2*g+2", "-g"]),
    ]
    for fd, texts in cases:
        for s in texts:
            x = parse_element(s, fd)
            assert parse_element(format_element(x), fd) == x


def test_format_is_parseable_for_random_elements():
    rng = random.Random("fmt")
    f = Cyclotomic(12)
    g = f.generator()
    for _ in range(40):
        x = f.zero()
        for j in range(f.phi):
            x = x + f.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) * g ** j
        assert parse_element(format_element(x), f) == x


def test_parse_errors_carry_position():
    for bad in ["", "1//2", "g^", "3+", "@", "g^^2"]:
        with pytest.raises(ParseError) as err:
            parse_element(bad, Rational() if "g" not in bad else Cyclotomic(8))
        assert isinstance(err.value.position, int)


def test_pow_negative_and_zero():
    f = Quadratic(2)
    g = f.generator()
    assert g ** 0 == f.one()
    assert g ** -2 == embed(Fraction(1, 2), f)
    with pytest.raises(DivisionByZero):
        f.zero() ** -1
