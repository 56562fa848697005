"""The six-element pairing relation and the conjugation closure against
their oracles in _helpers.

detectors._pairing_keys reads each sorted 6-subset's minors through one
fixed 15-row pattern per k, whose rows compare 10 distinct side products
at k = 2 and 9 at k = 3, and hands back one int per subset with a
holding row; expanded through the matchings memo (pairings_of), its
matchings equal the oracle's, which walks every perfect matching over
the signed table of every ordering.  It reads each subset's minors by
position through a plan per shape (_subset_plan) and tests the rows split
by sign (_row_tests); its keys equal those of the per-call loop it
replaced (oracle_pairing_keys), and the plan decodes to combinations.  A key decodes back to its subset
and rows, and for every one of the 2^15 row masks each key memo equals
the per-call assembly it replaced.  good6_closure_checks reads conjugates
off one 15 x 15 table of matchings (_conjugation_table); the oracle
walks the involutions point by point and builds each as a Good6Partition.
At k = 2 find_involutions keeps a map for exactly the matchings
_pairing_keys passes, in characteristic 2 and 3 as well.
_pairing_value, one row's left minus right, vanishes exactly on the
matchings _pairing_keys finds, on the gallery and the census, equals
the relation written out on the signed table, and at k = 2 vanishes
exactly when the matching's Ceva value is 1.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    FourSet,
    Galois,
    Good6Partition,
    NotGeneric,
    Prime,
    Quadratic,
    Rational,
    build_gallery,
    find_involutions,
    good6_closure_checks,
    good6_points,
    is_generic,
    quadral_points,
)
from discarr.detectors import (
    _conjugation_table,
    _key_foursets,
    _key_good6,
    _key_matchings,
    _matching_pattern,
    _pairing_keys,
    _pairing_pattern,
    _pairing_value,
    _row_tests,
    _subset_plan,
)
from discarr.gallery import TYPE_ORDER, is_parameter_generic, parametrized, witness_spec
from discarr.modular import modular_image
from discarr.permtype import NotAMatchingLabel, _key_edges, arrangement_type

from _helpers import (
    cofactor_det,
    count_payload_calls,
    imposed_k3,
    matchings_key,
    oracle_ceva_value,
    oracle_matmul,
    oracle_det_table,
    oracle_conjugate,
    oracle_good6_closure_checks,
    oracle_is_identity,
    oracle_key_edges,
    oracle_key_foursets,
    oracle_key_good6,
    oracle_key_matchings,
    oracle_maps_to,
    oracle_pairing_keys,
    oracle_pairings,
    pairing_key,
    pairings_of,
    payload_det,
    perfect_matchings,
    random_k3,
)
from test_census import FIELDS as CENSUS_FIELDS, LINE_FIELDS, line_classes, plane_classes

WITNESSES = ["witness-" + nu.cli_token() for nu in TYPE_ORDER if witness_spec(nu)]
GALLERY = ["crapo", "octahedral", "dodecahedral", "f4", "f5", "polygon-6"] + WITNESSES


def _outcome(fn, a):
    try:
        return fn(a)
    except NotGeneric as exc:
        return ("NotGeneric", str(exc))


@pytest.mark.parametrize("name", GALLERY)
def test_gallery_pairings_match_oracle(name):
    a = build_gallery(name)
    assert pairings_of(a) == oracle_pairings(a)


@pytest.mark.parametrize("n", range(7, 13))
def test_polygon_image_pairings_match_oracle(n):
    a = modular_image(build_gallery(f"polygon-{n}"))
    found = pairings_of(a)
    assert found == oracle_pairings(a)
    assert found


# ---------------------------------------------------------------------------
# seeded arrangements over one field of each kind

FIELDS = {
    "Q": Rational(),
    "F11": Prime(11),
    "GF9": Galois(3, (1, 0, 1)),
    "sqrt5": Quadratic(5),
    "zeta12": Cyclotomic(12),
}


def _element(fd, rng):
    """A uniform element of a finite field; small entries otherwise, so
    that relations happen by chance."""
    if fd.characteristic():
        return rng.choice(list(fd.iter_elements()))
    x = fd.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if fd == Rational():
        return x
    return x + fd.from_int(rng.randint(-1, 1)) * fd.generator()


def _imposed(fd, k, rng):
    """Six normals related by construction: slopes (inf, 0, 1, l4, l5,
    l6) with l6 = l4 (l5 - 1) / (l4 - 1) at k = 2, the planes of
    gallery.parametrized with z = x y at k = 3; drawn until generic."""
    one = fd.one()
    while True:
        l4, l5, w = (_element(fd, rng) for _ in range(3))
        if k == 2:
            if (l4 - one).is_zero():
                continue
            l6 = l4 * (l5 - one) / (l4 - one)
            a = Arrangement(fd, 2, [(one, 0), (0, one), (one, one), (l4, one), (l5, one), (l6, one)])
        elif is_parameter_generic(fd, w, l4, l5, l4 * l5):
            a = parametrized(fd, w, l4, l5, l4 * l5)
        else:
            continue
        if is_generic(a):
            return list(a.normals)


def _independent(fd, normals, v) -> bool:
    return all(not payload_det([*rest, v], fd).is_zero()
               for rest in combinations(normals, len(v) - 1))


def _seeded(fd, k, n, rng, imposed):
    """n normals in general position: the unit vectors or six related
    normals, extended one at a time by a draw that keeps every k-subset
    independent.  Over a finite field the draw is among all the points
    left, starting over when none is."""
    if fd.characteristic():
        one = fd.one()
        points = [v for v in product(list(fd.iter_elements()), repeat=k)
                  if next((e for e in v if not e.is_zero()), None) == one]
    while True:
        normals = _imposed(fd, k, rng) if imposed else [
            [fd.one() if i == j else fd.zero() for j in range(k)] for i in range(k)]
        while len(normals) < n:
            pool = points if fd.characteristic() else [
                [_element(fd, rng) for _ in range(k)] for _ in range(8)]
            pool = [v for v in pool if _independent(fd, normals, v)]
            if not pool:
                break
            normals.append(rng.choice(pool))
        else:
            return Arrangement(fd, k, normals)


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("k", [2, 3])
def test_seeded_pairings_match_oracle(name, k):
    fd = FIELDS[name]
    rng = random.Random(f"pairings-{name}-{k}")
    related, tested = 0, 0
    for n in range(6, 10):
        for imposed in (False, True):
            a = _seeded(fd, k, n, rng, imposed)
            expected = oracle_pairings(a)
            assert pairings_of(a) == expected
            related += len(expected)
            tested += 15 * comb(n, 6)
        # a repeated normal: both refuse with the same message
        bad = Arrangement(fd, k, list(a.normals) + [a.normal(1)])
        assert _outcome(pairings_of, bad) == _outcome(oracle_pairings, bad)
        assert _outcome(pairings_of, bad)[0] == "NotGeneric"
    # some matchings pass and some fail
    assert 0 < related < tested


# ---------------------------------------------------------------------------
# the keys and what their memos build

def _oracle_keys(a):
    """The key of every 6-subset holding an oracle matching, in subset
    order: its indices and the rows of its matchings."""
    by_subset = {}
    for pairs in oracle_pairings(a):
        by_subset.setdefault(tuple(sorted(p for pair in pairs for p in pair)), []).append(pairs)
    return [matchings_key(found) for _, found in sorted(by_subset.items())]


@pytest.mark.parametrize("name", ["crapo", "dodecahedral", "f4", "polygon-9", "witness-3^2"])
def test_keys_are_the_subsets_holding_a_row(name):
    # a subset with no holding row yields no key: polygon-9 has keys
    # for 30 of its 84 subsets
    a = build_gallery(name)
    keys = _pairing_keys(a)
    assert keys == _oracle_keys(a)
    assert all(key & 0x7FFF for key in keys)
    assert len(keys) == (30 if name == "polygon-9" else 1)


def test_unrelated_subsets_yield_no_key():
    # six random planes over F_11 with no good partition
    rng = random.Random("no-key")
    fd = Prime(11)
    while True:
        a = _seeded(fd, 3, 6, rng, imposed=False)
        if not oracle_pairings(a):
            break
    assert _pairing_keys(a) == []
    assert arrangement_type(a).matchings == ()


@pytest.mark.parametrize("support", [(1, 2, 3, 4, 5, 6), (2, 3, 5, 7, 11, 13),
                                     (1, 17, 64, 65, 127, 128), tuple(range(123, 129))])
def test_keys_decode_to_their_subset_and_rows(support):
    # indices up to 128, polygon-128 being the largest input Cyclotomic
    # admits: bit 14 + p for index p, bit c for row c
    rng = random.Random(f"decode-{support}")
    masks = [1 << c for c in range(15)] + [(1 << 15) - 1]
    masks += [rng.randrange(1, 1 << 15) for _ in range(200)]
    for mask in masks:
        key = pairing_key(support, mask)
        assert key & 0x7FFF == mask
        assert tuple(p for p in range(1, 129) if key >> 14 + p & 1) == support
        matchings = _key_matchings(key)[0]
        assert list(matchings) == oracle_key_matchings(support, mask)[0]
        assert matchings_key(matchings) == key


# ---------------------------------------------------------------------------
# the subset plan against the per-call loop it replaced

@pytest.mark.parametrize("n", range(6, 13))
@pytest.mark.parametrize("k", [2, 3])
def test_subset_plan_decodes_to_combinations(n, k):
    # entry i is the i-th 6-subset: its bits, and the positions of its
    # minors among combinations(1..n, k), the order minors() keeps
    keys = list(combinations(range(1, n + 1), k))
    subsets = list(combinations(range(1, n + 1), 6))
    plan = _subset_plan(n, k)
    assert len(plan) == len(subsets) == comb(n, 6)
    for (bits, positions), subset in zip(plan, subsets):
        assert bits == pairing_key(subset, 0)
        assert [keys[i] for i in positions] == list(combinations(subset, k))
    assert _subset_plan(n, k) is plan


@pytest.mark.parametrize("k", [2, 3])
def test_row_tests_split_the_rows_by_sign(k):
    # every row once, in row order within each half, on its own sides
    rows = _pairing_pattern(k)[1]
    even, odd = _row_tests(k)
    for half, sign in ((even, 0), (odd, 1)):
        assert list(half) == [(1 << c, left, right) for c, (_, left, right, o) in enumerate(rows)
                              if o == sign]
    assert sum(bit for bit, _, _ in even + odd) == (1 << 15) - 1


@pytest.mark.parametrize("name", GALLERY)
def test_gallery_keys_equal_the_per_call_loop(name):
    a = build_gallery(name)
    assert _pairing_keys(a) == oracle_pairing_keys(a)


@pytest.mark.parametrize("n", range(6, 13))
def test_polygon_keys_equal_the_per_call_loop(n):
    # over Q(zeta_4n) and over its certified prime image
    a = build_gallery(f"polygon-{n}")
    for b in (a, modular_image(a)):
        keys = _pairing_keys(b)
        assert keys == oracle_pairing_keys(b)
        assert keys


@pytest.mark.parametrize("k, name", [(3, n) for n in sorted(CENSUS_FIELDS)]
                         + [(2, n) for n in LINE_FIELDS])
def test_census_keys_equal_the_per_call_loop(k, name):
    # every labeled class of six planes or six lines over the field
    classes = plane_classes(name) if k == 3 else line_classes(name)
    related = 0
    for _, a in classes:
        keys = _pairing_keys(a)
        assert keys == oracle_pairing_keys(a)
        related += bool(keys)
    assert related


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("k", [2, 3])
def test_seeded_keys_equal_the_per_call_loop(name, k):
    # n = 7..9 over one field of each kind, with and without six related
    # normals; a repeated normal is refused alike
    fd = FIELDS[name]
    rng = random.Random(f"plan-{name}-{k}")
    related = 0
    for n in range(7, 10):
        for imposed in (False, True):
            a = _seeded(fd, k, n, rng, imposed)
            keys = _pairing_keys(a)
            assert keys == oracle_pairing_keys(a)
            related += len(keys)
        bad = Arrangement(fd, k, list(a.normals) + [a.normal(2)])
        assert _outcome(_pairing_keys, bad) == _outcome(oracle_pairing_keys, bad)
        assert _outcome(_pairing_keys, bad)[0] == "NotGeneric"
    assert related


def _raised(fn, *args):
    """fn's result, or the NotAMatchingLabel text it raises."""
    try:
        return fn(*args)
    except NotAMatchingLabel as exc:
        return ("NotAMatchingLabel", str(exc))


@pytest.mark.parametrize("support", [(1, 2, 3, 4, 5, 6), (2, 3, 5, 7, 11, 13)])
def test_key_memos_equal_the_per_call_assembly(support):
    """For each of the 2^15 row masks, every key memo equals the per-call
    assembly it replaced: the matchings and their frozensets, the sorted
    4-sets, the sorted partitions, and the classifier's frozensets and
    edge bits.  Off the indices 1..6 no matching labels an edge, and
    both refuse the first matching alike."""
    for mask in range(1 << 15):
        key = pairing_key(support, mask)
        matchings, frozensets = oracle_key_matchings(support, mask)
        assert _key_matchings(key) == (tuple(matchings), tuple(frozensets))
        assert list(_key_foursets(key)) == oracle_key_foursets(matchings)
        assert list(_key_good6(key)) == oracle_key_good6(matchings)
        assert _raised(_key_edges, key) == _raised(oracle_key_edges, matchings)
    # the last mask holds every row: all 15 edges of K_6, or a refusal
    edges = _raised(_key_edges, key)
    if support == (1, 2, 3, 4, 5, 6):
        assert edges[1] == sum(1 << 6 * i + j for i, j in combinations(range(1, 7), 2))
    else:
        assert edges[0] == "NotAMatchingLabel"


# ---------------------------------------------------------------------------
# the k = 2 involutions in characteristic 0, 2, 3 and beyond

INVOLUTION_FIELDS = {
    "GF8": Galois(2, (1, 1, 0, 1)),
    "GF16": Galois(2, (1, 1, 0, 0, 1)),
    "GF9": Galois(3, (1, 0, 1)),
    "F7": Prime(7),
    "F11": Prime(11),
    "Q": Rational(),
    "sqrt5": Quadratic(5),
    "zeta12": Cyclotomic(12),
}


@pytest.mark.parametrize("name", INVOLUTION_FIELDS)
def test_involutions_are_exactly_the_pairings(name):
    """find_involutions keeps a map for every matching _pairing_keys
    passes, in order: the relation is an iff in every characteristic,
    and each map is invertible (nonzero determinant, with no check in
    the library), sends each normal to its partner and back, and has
    trace 0, so it squares to a scalar (Cayley-Hamilton).  GF(4) has
    five points, too few for six generic lines."""
    fd = INVOLUTION_FIELDS[name]
    rng = random.Random(f"involutions-{name}")
    maps = 0
    for i in range(150):
        a = _seeded(fd, 2, 6, rng, imposed=i % 2 == 0)
        invs = find_involutions(a)
        assert [m for m, _ in invs] == [frozenset(frozenset(p) for p in pairs)
                                        for pairs in pairings_of(a)]
        for m, f in invs:
            assert not cofactor_det(f).is_zero()
            assert (f[0][0] + f[1][1]).is_zero()
            assert oracle_is_identity(oracle_matmul(f, f))
            for p, q in map(sorted, m):
                assert oracle_maps_to(f, a.normal(p), a.normal(q))
                assert oracle_maps_to(f, a.normal(q), a.normal(p))
        maps += len(invs)
    assert maps >= 75


# ---------------------------------------------------------------------------
# the pattern itself, against the signed table

def _generic(fd, k, n, rng):
    while True:
        a = Arrangement(fd, k, [[fd.from_int(rng.randint(-99, 99)) for _ in range(k)]
                                for _ in range(n)])
        if is_generic(a):
            return a


def _old_sides(k, pairs):
    """The two sides of a row's relation, as ordered index tuples, the
    form the oracle writes out."""
    (x, x2), (y, y2), (z, z2) = pairs
    if k == 2:
        return (((x, y2), (y, z2), (z, x2)), ((x, z2), (y, x2), (z, y2)))
    return (((x, x2, z), (y, y2, z2)), ((x, x2, z2), (y, y2, z)))


@pytest.mark.parametrize("k", [2, 3])
def test_pattern_signs_match_the_signed_table(k):
    """Each row's side products equal the oracle's signed sides up to
    sign, and the sides' signs differ exactly on odd rows: with L = sL lv
    and R = sR rv, L rv = (-1)^odd R lv.  The left sign is the row's
    left parity, sL = (-1)^lefts[c], so sR = (-1)^(lefts[c] + odd)."""
    a = _generic(Rational(), k, 6, random.Random(f"pattern-{k}"))
    fd = a.field
    mul, neg = fd._mul, fd._neg
    dets = oracle_det_table(a)
    assert len(dets) == {2: 2 * 15, 3: 6 * 20}[k]
    for (x, y, z), d in (a.minors().items() if k == 3 else ()):
        for key in ((x, y, z), (y, z, x), (z, x, y)):
            assert dets[key] == d
        for key in ((y, x, z), (x, z, y), (z, y, x)):
            assert dets[key] == neg(d)
    m = [a.minors()[key] for key in combinations(a.indices, k)]
    sides, rows, lefts = _pairing_pattern(k)
    assert [row[0] for row in rows] == list(_matching_pattern(6))
    assert len(lefts) == 15 and set(lefts) == {0, 1}
    for (pairs, left, right, odd), left_odd in zip(rows, lefts):
        shifted = [(p + 1, q + 1) for p, q in pairs]
        big_l, big_r = (_product(mul, [dets[o] for o in side])
                        for side in _old_sides(k, shifted))
        lv, rv = (_product(mul, [m[i] for i in sides[c]]) for c in (left, right))
        assert big_l in (lv, neg(lv)) and big_r in (rv, neg(rv))
        cross = mul(big_r, lv)
        assert mul(big_l, rv) == (neg(cross) if odd else cross)
        assert big_l == (neg(lv) if left_odd else lv)
        assert big_r == (neg(rv) if left_odd ^ odd else rv)


@pytest.mark.parametrize("k", [2, 3])
def test_each_row_reads_its_own_sides(k):
    """A row's two side indices name the minor positions of the relation
    written out on its matching: per side, the sorted positions of its
    sorted minors, in combinations(range(6), k) order."""
    position = {key: i for i, key in enumerate(combinations(range(6), k))}
    sides, rows, _ = _pairing_pattern(k)
    for pairs, left, right, _ in rows:
        old = [sorted(position[tuple(sorted(o))] for o in side)
               for side in _old_sides(k, pairs)]
        assert [list(sides[left]), list(sides[right])] == old


def test_k2_sides_are_ten_perfect_matchings():
    # a side's three 2 x 2 minors pair up all six positions
    keys = list(combinations(range(6), 2))
    sides = _pairing_pattern(2)[0]
    assert len(sides) == 10 and list(sides) == sorted(set(sides))
    matchings = set(_matching_pattern(6))
    assert all(tuple(keys[i] for i in side) in matchings for side in sides)


def test_k3_sides_are_the_splits_but_one():
    # a side is two complementary triples, each a pair of the row's
    # matching plus one position of its last pair, the pair whose first
    # position is largest; across {0,1,2}|{3,4,5} that pair would start
    # before the pair inside {3,4,5}, so no row has this split
    keys = list(combinations(range(6), 3))
    sides = _pairing_pattern(3)[0]
    assert len(sides) == 9 and list(sides) == sorted(set(sides))
    splits = {frozenset((t, tuple(sorted(set(range(6)) - set(t))))) for t in keys}
    got = {frozenset(keys[i] for i in side) for side in sides}
    assert len(splits) == 10
    assert got == splits - {frozenset(((0, 1, 2), (3, 4, 5)))}


def _product(mul, values):
    out = values[0]
    for v in values[1:]:
        out = mul(out, v)
    return out


# ---------------------------------------------------------------------------
# one row's value

def _matchings(subset):
    """The 15 canonical matchings of a sorted 6-subset, in pattern order."""
    return [tuple((subset[i], subset[j]) for i, j in m) for m in _matching_pattern(6)]


def _vanishing_matchings(a):
    """_pairing_value is zero on a matching of a 6-subset exactly when
    _pairing_keys finds that matching; returns how many vanish."""
    found, zeros = set(pairings_of(a)), 0
    for subset in combinations(a.indices, 6):
        for pairs in _matchings(subset):
            zero = a.field._is_zero(_pairing_value(a, pairs))
            assert zero == (pairs in found), pairs
            zeros += zero
    assert zeros == len(found)
    return zeros


@pytest.mark.parametrize("name", GALLERY + ["polygon-7", "polygon-8"])
def test_value_vanishes_exactly_on_the_gallery_pairings(name):
    _vanishing_matchings(build_gallery(name))


@pytest.mark.parametrize("k, name", [(3, n) for n in sorted(CENSUS_FIELDS)]
                         + [(2, n) for n in LINE_FIELDS])
def test_value_vanishes_exactly_on_the_census_pairings(k, name):
    # every labeled class of six planes or six lines over the field
    classes = plane_classes(name) if k == 3 else line_classes(name)
    assert sum(_vanishing_matchings(a) for _, a in classes)


@pytest.mark.parametrize("name", ["crapo", "octahedral", "f5", "polygon-6", "polygon-7"])
def test_k2_value_vanishes_exactly_when_a_ceva_value_is_one(name):
    # both 4-sets of a matching share its involution, so their Ceva
    # values are 1 together
    a = build_gallery(name)
    assert a.k == 2
    one = a.field.one()
    for subset in combinations(a.indices, 6):
        for pairs in _matchings(subset):
            ceva = [oracle_ceva_value(a, four) == one for four in FourSet.of_matching(pairs)]
            assert ceva[0] == ceva[1]
            assert a.field._is_zero(_pairing_value(a, pairs)) == ceva[0], pairs


@pytest.mark.parametrize("k", [2, 3])
def test_value_is_the_signed_relation_on_every_row(k):
    # left minus right of the relation written out on its matching, on
    # the signed table of every ordering; the indices are spread out so
    # that positions and indices differ
    a = _generic(Rational(), k, 8, random.Random(f"value-{k}"))
    fd = a.field
    dets = oracle_det_table(a)
    for subset in [(1, 2, 3, 4, 5, 6), (1, 3, 4, 6, 7, 8), (2, 3, 5, 6, 7, 8)]:
        for pairs in _matchings(subset):
            big_l, big_r = (_product(fd._mul, [dets[o] for o in side])
                            for side in _old_sides(k, pairs))
            assert _pairing_value(a, pairs) == fd._add(big_l, fd._neg(big_r))


@pytest.mark.parametrize("name, products", [("witness-3^2", 2), ("octahedral", 4)])
def test_value_makes_one_product_per_side(monkeypatch, name, products):
    # two minors per side at k = 3, three at k = 2; no inverse, and the
    # kept minors are read, not recomputed
    a = build_gallery(name)
    a.minors()
    calls = count_payload_calls(monkeypatch, a.field)
    for pairs in _matchings(tuple(a.indices)[:6]):
        calls.clear()
        _pairing_value(a, pairs)
        assert calls == Counter(_mul=products)


# ---------------------------------------------------------------------------
# the work, pinned

@pytest.mark.parametrize("detector, name, products", [
    (good6_points, "witness-3^2", 9),
    (quadral_points, "octahedral", 20),
])
def test_six_element_detectors_do_one_product_per_distinct_side(monkeypatch, detector, name,
                                                                 products):
    """One 6-subset: each of the 9 distinct sides at k = 3 is one
    product, each of the 10 at k = 2 two, however many of the 15 rows
    read it; no inverse and no signed table or matching walk per call."""
    a = build_gallery(name)
    assert is_generic(a)  # the minors are kept; only the relation is counted
    calls = count_payload_calls(monkeypatch, a.field)
    detector(a)
    assert calls == Counter(_mul=products)


def test_find_involutions_builds_no_signed_table(monkeypatch):
    # the 20 products of the pairing relation, then one map of 32
    # products and 2 inverses per related matching, each inverse over
    # Q(i) one more product; nothing is built per ordering or matching
    a = build_gallery("octahedral")
    assert is_generic(a)
    calls = count_payload_calls(monkeypatch, a.field)
    assert len(find_involutions(a)) == 6
    assert calls == Counter(_mul=20 + 6 * (32 + 2), _inv=6 * 2)


# ---------------------------------------------------------------------------
# the conjugation closure

def _closure_cases(seed):
    rng = random.Random(f"closure-{seed}")
    for _ in range(12):
        yield random_k3(rng)
        yield imposed_k3(rng)
    for name in WITNESSES + ["dodecahedral", "f4"]:
        yield build_gallery(name)
    fd = Prime(11)
    for _ in range(12):
        a = Arrangement(fd, 3, [[_element(fd, rng) for _ in range(3)] for _ in range(6)])
        if is_generic(a):
            yield a


def test_conjugation_table_is_the_involution_walk():
    # each of the 15 matchings shares no pair with exactly 8 others, and
    # each such entry is the conjugate the oracle walks point by point
    pattern, table = _matching_pattern(6), _conjugation_table()
    shifted = [Good6Partition((i + 1, j + 1) for i, j in m) for m in pattern]
    assert len(table) == 15 and all(len(row) == 15 for row in table)
    assert [sum(c is not None for c in row) for row in table] == [8] * 15
    for (i, gi), (j, gj) in product(enumerate(shifted), repeat=2):
        if set(gi.matching) & set(gj.matching):
            assert table[i][j] is None
        else:
            assert shifted[table[i][j]] == oracle_conjugate(gi, gj)


def test_good6_closure_matches_oracle():
    # message for message, order included: lists with one or two
    # detected partitions dropped, many with several violations
    violating = several = 0
    for a in _closure_cases(101):
        found = good6_points(a)
        assert good6_closure_checks(found) == oracle_good6_closure_checks(found) == []
        for drop in (1, 2):
            for gone in combinations(range(len(found)), drop):
                kept = [g for i, g in enumerate(found) if i not in gone]
                expected = oracle_good6_closure_checks(kept)
                assert good6_closure_checks(kept) == expected
                violating += bool(expected)
                several += len(expected) > 1
    assert violating and several


def test_good6_closure_matches_oracle_on_random_lists():
    # seeded lists of partitions on several supports drawn from 6-9
    # indices, in any order, repeats allowed; most of them violate
    rng = random.Random("closure-lists")
    violating = 0
    for _ in range(1500):
        indices = range(1, rng.randint(6, 9) + 1)
        supports = [rng.sample(indices, 6) for _ in range(rng.randint(1, 3))]
        found = [Good6Partition(rng.choice(perfect_matchings(rng.choice(supports))))
                 for _ in range(rng.randint(2, 12))]
        expected = oracle_good6_closure_checks(found)
        assert good6_closure_checks(found) == expected
        violating += bool(expected)
    assert violating > 1000
