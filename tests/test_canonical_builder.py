"""_Value._from_key against the validating constructors it bypasses.

The detectors build FourSet, Good6Partition and QuintFamily straight
from tuples they have proven canonical.  Each such object must equal,
field for field and in the same order, what the validating constructor
made of the same pattern (the old constructions are in _helpers), and a
class whose __slots__ are not its _fields may not use the builder.
"""

import random

import pytest

from discarr import (
    Arrangement,
    FourSet,
    Good6Partition,
    Prime,
    QuintFamily,
    build_gallery,
    good6_points,
    is_generic,
    quadral_points,
    quintuple_points,
)
from discarr.detectors import BadFourSet, _matching_pattern, _pairing_pattern
from discarr.exactfield import _Value
from discarr.modular import modular_image

from _helpers import (
    imposed_k2,
    imposed_k3,
    oracle_good6_points,
    oracle_of_matching,
    oracle_quadral_points,
    oracle_quintuple_points,
    random_k2,
    random_k3,
)


def _fields(values):
    """Each value's class and key, so equal lists also agree on types."""
    return [(type(v), v._key(v)) for v in values]


@pytest.mark.parametrize("k", [2, 3])
def test_pairing_pattern_rows_are_canonical(k):
    sides, rows, lefts = _pairing_pattern(k)
    assert len(lefts) == len(rows) == 15 and set(lefts) <= {0, 1}
    assert all(0 <= left < len(sides) and 0 <= right < len(sides) and left != right
               for _, left, right, _ in rows)
    for pairs, *_ in rows:
        assert all(i < j for i, j in pairs)
        assert [i for i, _ in pairs] == sorted(i for i, _ in pairs)
        assert pairs == Good6Partition(pairs).matching


def test_of_matching_equals_the_validating_construction():
    rng = random.Random(28)
    for _ in range(40):
        labels = sorted(rng.sample(range(1, 30), 6))
        for m in _matching_pattern(6):
            # relabelled, each pair in either order
            pairs = [(labels[i], labels[j]) if rng.random() < 0.5 else (labels[j], labels[i])
                     for i, j in m]
            rng.shuffle(pairs)
            got = FourSet.of_matching(pairs)
            assert _fields(got) == _fields(oracle_of_matching(pairs))
            assert _fields(got) == _fields([FourSet(f.sets) for f in got])
            assert _fields([got[0].complement()]) == _fields([got[1]])
            assert {f.matching() for f in got} == {frozenset(map(frozenset, pairs))}


@pytest.mark.parametrize("pairs", [((1, 2), (2, 3), (4, 5)), ((1, 1), (2, 3), (4, 5)),
                                   ((1, 2), (3, 4), (1, 2))])
def test_of_matching_refuses_pairs_that_are_not_disjoint(pairs):
    with pytest.raises(BadFourSet):
        FourSet.of_matching(pairs)


@pytest.mark.parametrize("pairs", [((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4), (5, 6, 6)),
                                   ((1, 2), (3, 4), (5, 6), (1, 2))],
                         ids=["two-triples", "a-triple", "four-pairs"])
def test_of_matching_refuses_malformed_shapes(pairs):
    # six distinct indices in the wrong shape, which unpacking would
    # reject with a bare ValueError
    with pytest.raises(BadFourSet, match="three disjoint pairs"):
        FourSet.of_matching(pairs)


@pytest.mark.parametrize("n", range(7, 13))
def test_polygon_detectors_equal_the_validating_constructions(n):
    image = modular_image(build_gallery(f"polygon-{n}"))
    assert _fields(quadral_points(image)) == _fields(oracle_quadral_points(image))
    assert _fields(quintuple_points(image)) == _fields(oracle_quintuple_points(image))


def _seeded_k2(seed):
    """Seven to nine generic lines over F_p with p in 11..101, or six
    lines over Q with an imposed pairing (then random ones)."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        return imposed_k2(rng) if seed % 2 else random_k2(rng)
    p = rng.choice((11, 13, 31, 101))
    n = rng.randint(7, 9)
    while True:
        a = Arrangement(Prime(p), 2, [(rng.randrange(p), rng.randrange(p)) for _ in range(n)])
        if is_generic(a):
            return a


@pytest.mark.parametrize("seed", range(12))
def test_seeded_k2_detectors_equal_the_validating_constructions(seed):
    a = _seeded_k2(seed)
    assert _fields(quadral_points(a)) == _fields(oracle_quadral_points(a))
    if a.n >= 7:
        assert _fields(quintuple_points(a)) == _fields(oracle_quintuple_points(a))


@pytest.mark.parametrize("seed", range(12))
def test_seeded_k3_detectors_equal_the_validating_constructions(seed):
    rng = random.Random(seed)
    if seed % 3:
        a = imposed_k3(rng) if seed % 2 else random_k3(rng)
    else:
        p = rng.choice((11, 13, 31))
        while True:
            a = Arrangement(Prime(p), 3, [[rng.randrange(p) for _ in range(3)] for _ in range(7)])
            if is_generic(a):
                break
    assert _fields(good6_points(a)) == _fields(oracle_good6_points(a))


@pytest.mark.parametrize("name", ["dodecahedral", "octahedral", "f4", "crapo"])
def test_gallery_detectors_equal_the_validating_constructions(name):
    a = build_gallery(name)
    if a.k == 3:
        assert _fields(good6_points(a)) == _fields(oracle_good6_points(a))
    else:
        assert _fields(quadral_points(a)) == _fields(oracle_quadral_points(a))


def test_builder_refuses_slots_that_are_not_the_fields():
    class Wider(_Value):
        __slots__ = ("a", "b")
        _fields = ("a",)

    class Narrower(FourSet):
        __slots__ = ()

    with pytest.raises(TypeError):
        Wider._from_key(1)
    with pytest.raises(TypeError):
        Narrower._from_key(((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)))


def test_builder_fills_every_field_from_the_key():
    q = QuintFamily._from_key((1, (2, 3, 4), (5, 7, 6)))
    assert (q.center, q.ta, q.tb) == (1, (2, 3, 4), (5, 7, 6))
    assert q == QuintFamily(1, (4, 2, 3), (6, 5, 7))
    g = Good6Partition._from_key(((1, 2), (3, 4), (5, 6)))
    assert g == Good6Partition([(2, 1), (4, 3), (6, 5)]) and g.matching == ((1, 2), (3, 4), (5, 6))
