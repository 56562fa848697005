"""The classifier's fast arithmetic against the slow exact paths it replaced.

The oracles below are the original routines: GF(p^m) sums and negations
coefficientwise modulo p, products as polynomial products reduced modulo
the modulus, inverses by the extended Euclidean algorithm in F_p[x], all
on coefficient tuples (constant term first), determinants by Gaussian
elimination on field elements (on lists of rows), and good 6-partitions
by one cross-product determinant per matching.  The library keeps a
GF(p^m) element as an int whose base-p digits are its coefficients,
which the tests read through their own digit encoder and decoder; it
adds by XOR at p = 2 and through Zech logarithms at odd p, negates by a
shift of the logarithm, multiplies and inverts through exp/log tables
(small fields) or square-and-multiply (large fields), expands
determinants up to 3x3 by cofactors on payloads, and reads good6_points
and good6_condition off the arrangement's signed table of 3x3 minors,
two products per matching; all must agree exactly.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    Galois,
    Good6Partition,
    NotGeneric,
    Prime,
    Quadratic,
    Rational,
    arrangement_type,
    format_element,
    good6_condition,
    good6_points,
    is_generic,
    pappus_closure_check,
    parse_element,
    quadral_points,
    translate_solver,
)
from discarr.exactfield import _GALOIS_TABLE_LIMIT
from discarr.gallery import f4_arrangement, is_parameter_generic, parametrized

from _helpers import (
    cofactor_det,
    count_payload_calls,
    oracle_cross3,
    payload_det,
    perfect_matchings,
)


# ---------------------------------------------------------------------------
# oracles

def _poly_mod(p, num, den):
    dd = len(den) - 1
    num = [c % p for c in num]
    lead_inv = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * lead_inv % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return num[:dd]


def _pad(fd, coeffs):
    coeffs = coeffs + [0] * (fd.deg - len(coeffs))
    return tuple(c % fd.p for c in coeffs[: fd.deg])


def coeffs_of(fd, a):
    """The coefficient tuple of a GF(p^m) payload, which must be an int in
    range(q): its base-p digits, constant term first."""
    assert type(a) is int and 0 <= a < fd.q
    return tuple(a // fd.p ** i % fd.p for i in range(fd.deg))


def payload_of(fd, coeffs):
    """The GF(p^m) payload of a coefficient tuple, constant term first."""
    return sum(c % fd.p * fd.p ** i for i, c in enumerate(coeffs))


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def oracle_add(fd, a, b):
    return tuple((x + y) % fd.p for x, y in zip(a, b))


def oracle_mul(fd, a, b):
    prod = [0] * (2 * fd.deg - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _pad(fd, _poly_mod(fd.p, prod, list(fd.modulus)))


def _fp_divmod(p, num, den):
    rem = [c % p for c in num]
    dd = len(den) - 1
    if len(rem) - 1 < dd:
        return [], _trim(rem)
    quot = [0] * (len(rem) - dd)
    lead_inv = pow(den[-1], p - 2, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * lead_inv % p
        quot[i - dd] = c
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    return quot, _trim(rem[:dd])


def oracle_inv(fd, a):
    """Extended Euclid in F_p[x]: s with s * a = 1 modulo the modulus."""
    p = fd.p
    r0, r1 = list(fd.modulus), _trim([c % p for c in a])
    s0, s1 = [0], [1]
    while r1:
        q, rem = _fp_divmod(p, r0, r1)
        qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                qs[i + j] += qi * sj
        n = max(len(s0), len(qs))
        new_s = [((s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)) % p
                 for i in range(n)]
        r0, r1 = r1, rem
        s0, s1 = s1, _trim(new_s)
    c_inv = pow(r0[0], p - 2, p)
    return _pad(fd, [x * c_inv % p for x in s0])


def oracle_det(rows):
    """Gaussian elimination on field elements, one inversion per pivot."""
    n = len(rows)
    a = [list(r) for r in rows]
    field = a[0][0].fd
    result = field.one()
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not a[i][k].is_zero()), None)
        if pivot_row is None:
            return field.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            result = -result
        pivot = a[k][k]
        result = result * pivot
        inv = pivot.inv()
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
    return result


def oracle_is_generic(a):
    return all(not oracle_det(rows).is_zero()
               for rows in combinations(a.normals, a.k))


def oracle_good6(a):
    """One cross-product determinant per matching of every 6-subset."""
    if not oracle_is_generic(a):
        raise NotGeneric("dependent normal triple")
    found = []
    for subset in combinations(a.indices, 6):
        for pairs in perfect_matchings(subset):
            rows = [oracle_cross3(a.normal(p), a.normal(q)) for p, q in pairs]
            if oracle_det(rows).is_zero():
                found.append(Good6Partition(pairs))
    return sorted(found)


# ---------------------------------------------------------------------------
# GF(p^m) arithmetic

# x is primitive for GF(8) and GF(27) but not for GF(9), GF(16) or GF(25),
# so the primitive-element search is exercised both ways
SMALL_GALOIS = {
    "GF4": (2, (1, 1, 1)),
    "GF8": (2, (1, 1, 0, 1)),
    "GF9": (3, (1, 0, 1)),
    "GF16": (2, (1, 1, 1, 1, 1)),
    "GF25": (5, (2, 0, 1)),
    "GF27": (3, (1, 2, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(SMALL_GALOIS))
def test_galois_tables_match_polynomial_oracle(name):
    fd = Galois(*SMALL_GALOIS[name])
    elements = [x.payload for x in fd.iter_elements()]
    coeffs = {a: coeffs_of(fd, a) for a in elements}
    for a, b in product(elements, repeat=2):
        assert coeffs_of(fd, fd._mul(a, b)) == oracle_mul(fd, coeffs[a], coeffs[b])
    for a in elements:
        if any(coeffs[a]):
            assert coeffs_of(fd, fd._inv(a)) == oracle_inv(fd, coeffs[a])


def test_galois_above_table_limit_matches_oracle():
    # x^13 + x^4 + x^3 + x + 1 over F_2
    fd = Galois(2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,))
    assert fd.q > _GALOIS_TABLE_LIMIT
    rng = random.Random("classify-oracle-gf8192")
    for _ in range(60):
        a = tuple(rng.randrange(2) for _ in range(13))
        b = tuple(rng.randrange(2) for _ in range(13))
        pa, pb = payload_of(fd, a), payload_of(fd, b)
        assert coeffs_of(fd, fd._mul(pa, pb)) == oracle_mul(fd, a, b)
        if any(a):
            assert coeffs_of(fd, fd._inv(pa)) == oracle_inv(fd, a)


@pytest.mark.parametrize("name", sorted(SMALL_GALOIS))
def test_galois_zech_addition_and_negation_match_oracle(name):
    fd = Galois(*SMALL_GALOIS[name])
    elements = [x.payload for x in fd.iter_elements()]
    coeffs = {a: coeffs_of(fd, a) for a in elements}
    for a, b in product(elements, repeat=2):
        assert coeffs_of(fd, fd._add(a, b)) == oracle_add(fd, coeffs[a], coeffs[b])
    for a in elements:
        assert coeffs_of(fd, fd._neg(a)) == tuple((-x) % fd.p for x in coeffs[a])
        assert fd._add(a, fd._neg(a)) == 0
        assert fd._is_zero(a) == (not any(coeffs[a]))


def test_galois_addition_above_table_limit_matches_oracle():
    fd = Galois(2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,))
    assert fd._zech is None
    rng = random.Random("classify-oracle-gf8192-add")
    for _ in range(200):
        a = tuple(rng.randrange(2) for _ in range(13))
        b = tuple(rng.randrange(2) for _ in range(13))
        pa, pb = payload_of(fd, a), payload_of(fd, b)
        assert coeffs_of(fd, fd._add(pa, pb)) == oracle_add(fd, a, b)
        assert fd._is_zero(fd._add(pa, pb)) == (a == b)
        assert fd._add(pa, fd._neg(pa)) == 0


# above the table at odd p: GF(3^8) over x^8 + x^6 + x^5 + 1, and
# GF(49999^2) over x^2 - 3
LARGE_ODD_GALOIS = {
    "GF3^8": (3, (1, 0, 0, 0, 0, 1, 1, 0, 1)),
    "GF49999^2": (49999, (-3, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(LARGE_ODD_GALOIS))
def test_galois_odd_characteristic_above_table_limit_matches_oracle(name):
    fd = Galois(*LARGE_ODD_GALOIS[name])
    assert fd.q > _GALOIS_TABLE_LIMIT
    rng = random.Random(f"classify-oracle-{name}")
    for _ in range(60):
        a = tuple(rng.randrange(fd.p) for _ in range(fd.deg))
        b = tuple(rng.randrange(fd.p) for _ in range(fd.deg))
        pa, pb = payload_of(fd, a), payload_of(fd, b)
        assert coeffs_of(fd, fd._add(pa, pb)) == oracle_add(fd, a, b)
        assert coeffs_of(fd, fd._neg(pa)) == tuple((-x) % fd.p for x in a)
        assert coeffs_of(fd, fd._mul(pa, pb)) == oracle_mul(fd, a, b)
        if any(a):
            assert coeffs_of(fd, fd._inv(pa)) == oracle_inv(fd, a)


PAYLOAD_FIELDS = {**SMALL_GALOIS, "GF8192": (2, (1, 1, 0, 1, 1) + (0,) * 8 + (1,))}


@pytest.mark.parametrize("name", sorted(PAYLOAD_FIELDS))
def test_galois_payloads_are_ints_in_coefficient_product_order(name):
    # iter_elements keeps the product order of the coefficient tuples,
    # which translate_solver's candidate walk and seeded samplers read.
    # Parsing GF(8192) costs about 1.4 ms an element, so it round-trips
    # a seeded sample there and every element of the smaller fields.
    fd = Galois(*PAYLOAD_FIELDS[name])
    elements = list(fd.iter_elements())
    payloads = [e.payload for e in elements]
    assert sorted(payloads) == list(range(fd.q))
    assert [coeffs_of(fd, a) for a in payloads] == list(product(range(fd.p), repeat=fd.deg))
    assert [fd.zero().payload, fd.one().payload, fd.generator().payload] == [0, 1, fd.p]
    if fd.q > _GALOIS_TABLE_LIMIT:
        elements = random.Random(f"payload-order-{name}").sample(elements, 300)
    for e in elements:
        assert parse_element(format_element(e), fd) == e


def _gf9_lines():
    """The k2-GF9-5 job of the classify sweep at seed 4242, of type 1^2 2^2."""
    fd = Galois(3, (1, 0, 1))
    rows = [["1", "0"], ["0", "1"], ["1", "1"], ["1+g", "1"], ["g", "1"], ["2", "1"]]
    return Arrangement(fd, 2, [[parse_element(s, fd) for s in r] for r in rows])


@pytest.mark.parametrize("build, detectors, expected", [
    (_gf9_lines, (quadral_points,),
     [Counter(_mul=114, _add=35, _inv=4), Counter(_mul=20), Counter(_mul=22, _add=18, _inv=1)]),
    (f4_arrangement, (good6_points, pappus_closure_check),
     [Counter(_mul=189, _add=100), Counter(_mul=9), Counter(_mul=9), Counter(_mul=9, _add=9)]),
], ids=["GF9-k2", "GF4-k3"])
def test_classify_job_payload_calls_are_pinned(monkeypatch, build, detectors, expected):
    # one classify-sweep job on a fresh arrangement: arrangement_type
    # (which builds the minor table), the detectors, then translate_solver
    # on the first pattern; each call's products, inverses and sums are
    # pinned, so a change of payload representation cannot hide a change
    # of algorithm
    a = build()
    calls = count_payload_calls(monkeypatch, a.field, hooks=("_mul", "_inv", "_add"))
    got, results = [], []
    for fn in (arrangement_type, *detectors):
        calls.clear()
        results.append(fn(a))
        got.append(+calls)
    calls.clear()
    assert translate_solver(a, results[1][0].sets) is not None
    got.append(+calls)
    assert got == expected


# ---------------------------------------------------------------------------
# determinants, genericity and good 6-partitions

FIELDS = {
    "Q": Rational(),
    "F7": Prime(7),
    "F11": Prime(11),
    "F13": Prime(13),
    "GF4": Galois(2, (1, 1, 1)),
    "GF8": Galois(2, (1, 1, 0, 1)),
    "GF9": Galois(3, (1, 0, 1)),
    "sqrt5": Quadratic(5),
    "zeta5": Cyclotomic(5),
}


def _sampler(fd):
    if isinstance(fd, Rational):
        return lambda rng: fd.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if isinstance(fd, (Quadratic, Cyclotomic)):
        g = fd.generator()
        return lambda rng: (fd.from_int(rng.randint(-1, 1))
                            + fd.from_int(rng.randint(-1, 1)) * g)
    elements = list(fd.iter_elements())
    return lambda rng: rng.choice(elements)


def seeded_planes(fd, seed):
    """Six or seven planes: the parametrized family (generic, often with
    good partitions) plus random extra normals, random normals (often
    dependent), and a family with a forced dependent triple."""
    rng = random.Random(f"classify-oracle-{fd!r}-{seed}")
    draw = _sampler(fd)
    out = []
    for _ in range(3):
        for _ in range(200):
            params = [draw(rng) for _ in range(4)]
            if is_parameter_generic(fd, *params):
                out.append(parametrized(fd, *params))
                break
    for base in out[:2]:
        extra = tuple(draw(rng) for _ in range(3))
        out.append(Arrangement(fd, 3, base.normals + (extra,)))
    for n in (6, 7):
        out.append(Arrangement(fd, 3, [tuple(draw(rng) for _ in range(3))
                                       for _ in range(n)]))
    u, v = out[0].normal(4), out[0].normal(5)
    dependent = tuple(x + y for x, y in zip(u, v))
    out.append(Arrangement(fd, 3, out[0].normals[:5] + (dependent,)))
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_det_matches_gaussian_oracle(name):
    fd = FIELDS[name]
    rng = random.Random(f"classify-oracle-det-{name}")
    draw = _sampler(fd)
    zeros = 0
    for n in (1, 2, 3, 3, 3, 4):
        for _ in range(12):
            m = [[draw(rng) for _ in range(n)] for _ in range(n)]
            d = payload_det(m, fd)
            assert d == oracle_det(m)
            zeros += d.is_zero()
    assert zeros  # singular inputs are covered too


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_good6_points_match_matching_oracle(name):
    fd = FIELDS[name]
    outcomes = Counter()
    for seed in range(2):
        for a in seeded_planes(fd, seed):
            generic = oracle_is_generic(a)
            assert is_generic(a) == generic
            if not generic:
                with pytest.raises(NotGeneric, match="dependent normal triple"):
                    good6_points(a)
                outcomes["not generic"] += 1
                continue
            found = good6_points(a)
            assert found == oracle_good6(a)
            outcomes["with partitions" if found else "without"] += 1
    assert outcomes["not generic"] and outcomes["with partitions"] + outcomes["without"]


@pytest.mark.parametrize("name", sorted(FIELDS) + ["zeta12"])
def test_good6_condition_is_the_cross_product_det(name):
    # the bracket form [x x2 z][y y2 z2] - [x x2 z2][y y2 z] on signed
    # minors equals det(x x x2, y x y2, z x z2) exactly, on every
    # matching of every 6-subset, generic and non-generic inputs alike
    fd = FIELDS.get(name) or Cyclotomic(12)
    outcomes = Counter()
    for seed in range(2):
        for a in seeded_planes(fd, seed):
            generic = oracle_is_generic(a)
            for subset in combinations(a.indices, 6):
                for pairs in perfect_matchings(subset):
                    rows = [oracle_cross3(a.normal(p), a.normal(q)) for p, q in pairs]
                    value = good6_condition(a, Good6Partition(pairs))
                    assert value == cofactor_det(rows)
                    outcomes[generic, value.is_zero()] += 1
    # generic and non-generic inputs, vanishing and nonvanishing values
    # (over GF(4) every matching of the seeded generic inputs is good)
    assert {g for g, _ in outcomes} == {z for _, z in outcomes} == {True, False}


def test_good6_oracle_cases_find_partitions():
    # the comparison means little if every partition list is empty
    for name in ("F7", "GF4", "GF8", "GF9"):
        fd = FIELDS[name]
        assert any(good6_points(a) for a in seeded_planes(fd, 0) if is_generic(a))


def test_good6_points_needs_no_inversions(monkeypatch):
    # 20 genericity minors x 9 products (the arrangement's table, on the
    # first call only) and one product for each of the 9 distinct sides
    # the 15 matchings on six planes compare; the per-matching Gaussian
    # path does 551 products and 87 inversions on f4.
    # pappus_closure_check runs good6_points again and pays the 9
    # products once more.
    a = f4_arrangement()
    calls = Counter()

    def counting(name):
        fn = getattr(Galois, name)

        def wrapper(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(Galois, "_mul", counting("_mul"))
    monkeypatch.setattr(Galois, "_inv", counting("_inv"))
    assert good6_points(a)
    assert calls["_inv"] == 0
    assert calls["_mul"] == 20 * 9 + 9
    calls.clear()
    assert good6_points(a)
    assert calls["_inv"] == 0
    assert calls["_mul"] == 9
    calls.clear()
    assert pappus_closure_check(a) == []
    assert calls["_inv"] == 0
    assert calls["_mul"] == 9
