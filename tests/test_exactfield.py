"""Field arithmetic: axioms, parsing, serialization, and known values."""

import random
import time
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
from discarr.exactfield import (
    _FIELD_KINDS,
    _PRIME_LIMIT,
    _is_prime,
    cyclotomic_polynomial,
)

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


@pytest.mark.parametrize("p", [7, 13, 2 ** 127 - 1])
def test_prime_inverse_matches_fermat_oracle(p):
    # 2^127 - 1 is above the limit Prime checks; it is a known prime
    f = Prime(p) if p < _PRIME_LIMIT else Prime._certified(p)
    rng = random.Random(p)
    for a in list(range(1, min(p, 50))) + [rng.randrange(1, p) for _ in range(50)]:
        assert f._inv(a) == pow(a, p - 2, p)
    with pytest.raises(DivisionByZero):
        f._inv(0)


def _is_prime_oracle(n):
    return n > 1 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if _is_prime_oracle(n)]
    for n in (2 ** 31 - 1, 10 ** 9 + 7, 2 ** 61 - 1, 3317044064679887385961813):
        assert _is_prime(n)


# Carmichael numbers; strong pseudoprimes to the bases 2, 3, 5, 7 and to
# the primes through 23; and psi_12, a strong pseudoprime to the first
# 12 prime bases that the 13th base exposes
PSEUDOPRIMES = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                3215031751, 3825123056546413051, 318665857834031151167461)


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_rejects_pseudoprimes(n):
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        Prime(n)


def test_fields_refuse_sizes_past_their_limits():
    for p in (_PRIME_LIMIT, 10 ** 30 + 57, 2 ** 127 - 1):
        with pytest.raises(ValueError, match="below"):
            Prime(p)
        with pytest.raises(ValueError, match="below"):
            Galois(p, (1, 0, 1))
    for d in (2 ** 32 + 15, -(2 ** 32 + 15), 10 ** 30 + 57):
        with pytest.raises(ValueError, match="below"):
            Quadratic(d)
    for m in (513, 10 ** 6):
        with pytest.raises(ValueError, match="3..512"):
            Cyclotomic(m)


@pytest.mark.parametrize("build", [
    lambda: Prime(3317044064679887385961813),
    lambda: Quadratic(4294967291),
    lambda: Quadratic(-4294967291),
    lambda: Cyclotomic(509),
    lambda: Cyclotomic(512),
    # the largest p at degree 2 and the largest degree at p = 2 that the
    # trial-division budget admits, with irreducible moduli x^2 - 3 and
    # x^23 + x^5 + 1
    lambda: Galois(49999, (-3, 0, 1)),
    lambda: Galois(2, (1, 0, 0, 0, 0, 1) + (0,) * 17 + (1,)),
], ids=["prime", "quadratic+", "quadratic-", "cyclotomic509", "cyclotomic512",
        "galois-large-p", "galois-high-degree"])
def test_field_construction_at_the_limit_is_quick(build):
    start = time.perf_counter()
    build()
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p, modulus", [
    (50021, (-2, 0, 1)),
    (1000003, (-2, 0, 1)),
    (2, (1, 1, 0, 1, 1) + (0,) * 19 + (1,)),
    (2, (1, 0, 0, 1) + (0,) * 27 + (1,)),
], ids=["p50021-deg2", "p1000003-deg2", "p2-deg24", "p2-deg31"])
def test_galois_refuses_a_modulus_past_the_trial_division_budget(p, modulus):
    # each modulus is irreducible, so trial division would try every
    # divisor: 3.7 s for p = 1000003 and 1.85 s for x^31 + x^3 + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="irreducibility of degree"):
        Galois(p, modulus)
    assert time.perf_counter() - start < 0.1


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


def test_galois_modulus_drops_trailing_zeros():
    assert Galois(2, (1, 1, 1, 0)) == Galois(2, (1, 1, 1))


def test_galois_division_by_zero_above_table_limit():
    # x^13 + x^4 + x^3 + x + 1 over F_2: no exp/log tables
    fd = Galois(2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,))
    with pytest.raises(DivisionByZero):
        fd.one() / fd.zero()


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
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


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
    z = Cyclotomic(12)
    with pytest.raises(FieldMismatch, match=r"cannot embed quadratic\(d=5\) into cyclotomic\(m=12\)"):
        embed(f.generator(), z)
    with pytest.raises(FieldMismatch, match=r"cannot embed float into cyclotomic\(m=12\)"):
        embed(0.5, z)
    with pytest.raises(FieldMismatch, match="rational embedding requires characteristic 0"):
        embed(3, Prime(7))
    x = Prime(7).from_int(3)
    assert embed(x, Prime(7)) is x


def test_descriptor_json_roundtrip():
    for fd in (Rational(), Quadratic(5), Quadratic(-3), Prime(5),
               Galois(2, (1, 1, 1)), Cyclotomic(24)):
        assert descriptor_from_json(descriptor_to_json(fd)) == fd


# a Mersenne prime above _PRIME_LIMIT, which only _certified accepts
_M127 = 2 ** 127 - 1


@pytest.mark.parametrize("fd, text, obj", [
    (Rational(), "rational", {"kind": "rational"}),
    (Quadratic(-3), "quadratic(d=-3)", {"kind": "quadratic", "d": -3}),
    (Prime(7), "prime(p=7)", {"kind": "prime", "p": 7}),
    (Prime._certified(_M127), f"prime(p={_M127})", {"kind": "prime", "p": _M127}),
    (Galois(2, (1, 1, 1)), "galois(p=2, modulus=[1, 1, 1])",
     {"kind": "galois", "p": 2, "modulus": [1, 1, 1]}),
    (Galois(3, (2, 0, 2)), "galois(p=3, modulus=[1, 0, 1])",
     {"kind": "galois", "p": 3, "modulus": [1, 0, 1]}),
    (Cyclotomic(12), "cyclotomic(m=12)", {"kind": "cyclotomic", "m": 12}),
], ids=["Q", "sqrt-3", "F7", "certified", "GF4", "GF9", "zeta12"])
def test_descriptor_repr_and_json(fd, text, obj):
    assert repr(fd) == text
    assert descriptor_to_json(fd) == obj  # a list modulus, not a tuple


@pytest.mark.parametrize("obj", [
    {"kind": "quadratic", "d": 5.9},
    {"kind": "quadratic", "d": 5.0},
    {"kind": "quadratic", "d": True},
    {"kind": "prime", "p": "7"},
    {"kind": "prime", "p": 7.0},
    {"kind": "galois", "p": 2, "modulus": [1, 1.5, 1]},
    {"kind": "galois", "p": 3, "modulus": [1, False, 1]},
    {"kind": "galois", "p": 2, "modulus": "111"},
    {"kind": "cyclotomic", "m": "12"},
    {"kind": "prime", "p": [7]},
    {"kind": "galois", "p": 2, "modulus": 7},
    {"kind": "cyclotomic", "m": [12]},
    {"kind": "quadratic", "d": [5]},
])
def test_descriptor_json_takes_only_integers(obj):
    # int() used to truncate 5.9 to 5 and parse "7"
    with pytest.raises(ParseError):
        descriptor_from_json(obj)


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
    # a failed term is reported at its start; the other messages name
    # what a matched term broke
    q, z8, f7 = Rational(), Cyclotomic(8), Prime(7)
    cases = [("", q, "empty element", 0), ("1//2", q, "expected a term", 1),
             ("g^", z8, "expected a term", 1), ("3+", q, "expected a term", 1),
             ("@", q, "expected a term", 0), ("g^^2", z8, "expected a term", 1),
             ("1 2", q, "expected + or - between terms", 2),
             ("1 + 3/0", q, "zero denominator", 6),
             ("1+g^1000001", z8, "exponent too large", 1),
             ("1/2", f7, "fractional coefficient in finite field", 0)]
    for bad, fd, message, position in cases:
        with pytest.raises(ParseError) as err:
            parse_element(bad, fd)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position


def test_pow_negative_and_zero():
    f = Quadratic(2)
    g = f.generator()
    assert g ** 0 == f.one()
    assert g ** -2 == embed(Fraction(1, 2), f)
    with pytest.raises(DivisionByZero):
        f.zero() ** -1


# ---------------------------------------------------------------------------
# payload hooks

HOOKS = ("_add", "_neg", "_mul", "_inv", "_is_zero", "_fmt", "_coerce_int")
ONE_OF_EACH_KIND = {
    "rational": Rational(),
    "quadratic": Quadratic(5),
    "cyclotomic": Cyclotomic(5),
    "prime": Prime(7),
    "galois": Galois(3, (1, 0, 1)),
}


def test_one_of_each_kind_covers_the_kind_table():
    assert {k: type(fd) for k, fd in ONE_OF_EACH_KIND.items()} == _FIELD_KINDS


@pytest.mark.parametrize("fd", [*ONE_OF_EACH_KIND.values(), Prime._certified(2 ** 127 - 1)],
                         ids=[*ONE_OF_EACH_KIND, "certified"])
def test_each_descriptor_defines_the_payload_hooks(fd):
    assert [h for h in HOOKS if not callable(getattr(fd, h, None))] == []
    one, two = fd._coerce_int(1), fd._coerce_int(2)
    assert fd._is_zero(fd._add(two, fd._neg(two)))
    assert fd._mul(two, fd._inv(two)) == one
    assert fd._fmt(one) == "1"
