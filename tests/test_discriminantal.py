"""Discriminantal normals, the intersection lattice, and the very
generic criterion."""

import random
from collections import Counter
from itertools import combinations

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    Flat,
    Galois,
    NotGeneric,
    Prime,
    Quadratic,
    Rational,
    arrangement_type,
    build_gallery,
    discriminantal_normal,
    intersection_lattice,
    is_generic,
    is_very_generic,
    nvg_flats,
    quadral_points,
)
from discarr.discriminantal import BadSubsetSize, TooLarge
from discarr.gallery import crapo, dodecahedral

from _helpers import (
    count_payload_calls,
    discriminantal_normals,
    flat_key,
    oracle_closure,
    oracle_rank,
    random_k2,
    reference_very_generic,
)

Q = Rational()


def test_braid_normal_k1():
    # base normals all (1): alpha_{p,q} = e_p - e_q
    a = Arrangement(Q, 1, [(1,)] * 4)
    v = discriminantal_normal(a, (2, 4))
    assert v == (Q.zero(), Q.one(), Q.zero(), -Q.one())
    # the subset is sorted first, so its order does not sign the normal
    assert discriminantal_normal(a, (4, 2)) == v


def test_normal_defines_concurrency_hyperplane():
    # t makes the L-lines concurrent iff alpha_L . t = 0
    rng = random.Random("concurrency")
    for _ in range(10):
        a = random_k2(rng, n=6)
        L = tuple(sorted(rng.sample(range(1, 7), 3)))
        lam = discriminantal_normal(a, L)
        for _ in range(10):
            t = [Q.from_int(rng.randint(-9, 9)) for _ in range(6)]
            dot = sum((lam[i] * t[i] for i in range(6)), Q.zero())
            # the L-lines meet iff appending t_p to each normal keeps rank 2
            augmented = [list(a.normal(p)) + [t[p - 1]] for p in L]
            assert (oracle_rank(augmented) == 2) == dot.is_zero()


def _random_element(rng, fd):
    x = fd.from_int(rng.randint(-9, 9))
    if isinstance(fd, (Galois, Quadratic, Cyclotomic)):
        x = x + fd.from_int(rng.randint(-9, 9)) * fd.generator()
    return x


def _random_generic(rng, fd, n, k):
    a = None
    while a is None or not is_generic(a):
        a = Arrangement(fd, k, [[_random_element(rng, fd) for _ in range(k)]
                                for _ in range(n)])
    return a


@pytest.mark.parametrize("fd", [Q, Prime(7), Galois(3, (1, 0, 1)), Quadratic(5)],
                         ids=["Q", "F7", "GF9", "sqrt5"])
@pytest.mark.parametrize("k", [2, 3])
def test_normals_vanish_on_the_coordinate_translations(fd, k):
    # t_p = alpha_p . e_i makes every hyperplane pass through e_i, so
    # each D_L vanishes there: the translate solver's kernel is never empty
    a = _random_generic(random.Random(f"translations-{fd!r}-{k}"), fd, k + 3, k)
    for L in combinations(a.indices, k + 1):
        lam = discriminantal_normal(a, L)
        for i in range(k):
            t = [a.normal(p)[i] for p in a.indices]
            assert sum((x * y for x, y in zip(lam, t)), fd.zero()).is_zero()


@pytest.mark.parametrize("fd", [Q, Quadratic(5), Cyclotomic(5), Prime(101),
                                Galois(7, (1, 0, 1))],
                         ids=["Q", "sqrt5", "zeta5", "F101", "GF49"])
@pytest.mark.parametrize("n, k", [(4, 1), (6, 2), (6, 3), (7, 3), (6, 4)])
def test_generic_base_gives_rank_n_minus_k(fd, n, k):
    # intersection_lattice checks no rank: genericity forces n - k
    a = _random_generic(random.Random(f"rank-{fd!r}-{n}-{k}"), fd, n, k)
    assert oracle_rank(list(discriminantal_normals(a).values())) == n - k


def test_normal_refuses_an_index_past_n():
    a = random_k2(random.Random("past-n"), n=4)
    with pytest.raises(BadSubsetSize, match="out of range"):
        discriminantal_normal(a, (1, 2, 5))


def test_lattice_hyperplanes_are_the_sorted_subsets():
    # B(6,2) has C(6,3) = 20 hyperplanes, one per sorted 3-subset: each
    # is a rank-1 flat alone (no two normals share a support), and the
    # central flat holds them all in order
    keys = list(combinations(range(1, 7), 3))
    lat = intersection_lattice(crapo())
    assert [f.support for f in lat.flats(1)] == [(L,) for L in keys]
    assert lat.flats(lat.max_rank())[0].support == tuple(keys)
    with pytest.raises(BadSubsetSize, match="need 3 distinct"):
        discriminantal_normal(crapo(), (1, 2))


def test_lattice_gates_make_no_arithmetic_past_the_minors(monkeypatch):
    # the genericity gate reads the kept minors and the cap reads (n, k):
    # a refused arrangement costs no product or inverse past its minors
    generic = random_k2(random.Random("too-large"), n=10)
    parallel = Arrangement(Q, 2, ((1, 0), (2, 0), (0, 1)))
    assert is_generic(generic) and not is_generic(parallel)
    calls = count_payload_calls(monkeypatch, Q)
    with pytest.raises(TooLarge):
        intersection_lattice(generic)
    with pytest.raises(NotGeneric):
        intersection_lattice(parallel)
    assert calls == Counter()


def test_intersection_lattice_rejects_non_generic():
    with pytest.raises(NotGeneric, match="parallel or repeated lines"):
        intersection_lattice(Arrangement(Q, 2, ((1, 0), (2, 0), (0, 1))))
    # nine lines, C(9, 3) = 84 > 64, two of them parallel: genericity
    # is gated before the cap
    over_cap = Arrangement(Q, 2, ((1, 0), (1, 0), (1, 1), (2, 1), (3, 1),
                                  (5, 1), (7, 1), (11, 1), (13, 1)))
    with pytest.raises(NotGeneric, match="parallel or repeated lines"):
        intersection_lattice(over_cap)
    with pytest.raises(NotGeneric, match="dependent normal triple"):
        intersection_lattice(Arrangement(Q, 3, ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))))


def test_braid_b41_is_partition_lattice():
    # B(4,1) of four concurrent-free parallel-free points on a line is
    # the rank-3 braid arrangement: flats match partitions of {1,2,3,4}
    a = Arrangement(Q, 1, [(1,)] * 4)
    lat = intersection_lattice(a)
    assert lat.counts() == {0: 1, 1: 6, 2: 7, 3: 1}
    profile = sorted(len(f) for f in lat.flats(2))
    assert profile == [2, 2, 2, 3, 3, 3, 3]
    # rank-2 supports: four triangles {pq,pr,qr} and three disjoint pairs
    triangles = [f.support for f in lat.flats(2) if len(f) == 3]
    for sup in triangles:
        union = set().union(*sup)
        assert len(union) == 3
        assert set(sup) == set(combinations(sorted(union), 2))


def test_lattice_closure_idempotent():
    # every flat is closed: the span of its support holds no other
    # hyperplane, and its rank is the rank of that span
    a = crapo()
    lat = intersection_lattice(a)
    normals = discriminantal_normals(a)
    for f in lat.flats():
        assert oracle_closure(normals, f.support) == (f.support, f.rank)


def test_lattice_max_rank_truncation():
    lat = intersection_lattice(crapo(), max_rank=1)
    assert set(lat.counts()) == {0, 1}
    assert lat.counts()[1] == 20


def test_lattice_report_shape():
    lat = intersection_lattice(dodecahedral())
    rep = lat.report()
    assert sorted(rep) == ["k", "n", "ranks"]   # the command adds the input's field
    assert rep["n"] == 6 and rep["k"] == 3
    assert [lvl["rank"] for lvl in rep["ranks"]] == [0, 1, 2, 3]
    assert all(lvl["count"] == len(lvl["flats"]) for lvl in rep["ranks"])
    assert not any(fl["nvg"] for lvl in rep["ranks"] for fl in lvl["flats"])


def test_lattice_too_large():
    rng = random.Random("too-large")
    a = random_k2(rng, n=10)   # 120 hyperplanes
    with pytest.raises(TooLarge, match="120 hyperplanes exceeds the 64 cap"):
        intersection_lattice(a)


@pytest.mark.parametrize("name, rank2", [
    ("witness-1^6", 51), ("witness-1^4,2^1", 49), ("witness-1^3,3^1", 45),
    ("witness-1^2,2^2", 47), ("witness-1^2,4^1", 39), ("witness-1^1,2^1,3^1", 43),
    ("witness-1^1,5^1", 31), ("witness-3^2", 39), ("f4", 21), ("dodecahedral", 31),
])
def test_rank2_count_of_6_3_is_51_minus_2m(name, rank2):
    # each detected good partition merges three rank-2 flats of B(6,3) into one
    a = build_gallery(name)
    lat = intersection_lattice(a)
    assert lat.counts()[2] == rank2 == 51 - 2 * arrangement_type(a).m_a


@pytest.mark.parametrize("name, rank3", [
    ("crapo", 180), ("octahedral", 150), ("f5", 126), ("polygon-6", 162),
])
def test_rank3_count_of_6_2_is_186_minus_3_nvg(name, rank3):
    lat = intersection_lattice(build_gallery(name))
    assert lat.counts()[3] == rank3 == 186 - 3 * len(nvg_flats(lat))


def test_dodecahedral_lattice_profile():
    lat = intersection_lattice(dodecahedral())
    assert lat.counts() == {0: 1, 1: 15, 2: 31, 3: 1}
    assert dict(Counter(len(f) for f in lat.flats(2))) == {2: 15, 3: 10, 5: 6}


def test_reference_is_deterministic_and_clean():
    a = reference_very_generic(6, 2, seed=0)
    b = reference_very_generic(6, 2, seed=0)
    assert a == b
    assert not quadral_points(a)
    c = reference_very_generic(6, 2, seed=1)
    assert c != a


def test_reference_validation():
    with pytest.raises(ValueError):
        reference_very_generic(6, 4)
    with pytest.raises(ValueError):
        reference_very_generic(10, 2)
    with pytest.raises(ValueError):
        reference_very_generic(2, 2)


def test_nvg_flats_crapo():
    lat = intersection_lattice(crapo())
    nvg = nvg_flats(lat)
    expected = {(frozenset(f.sets), 3) for f in quadral_points(crapo())}
    assert {flat_key(f) for f in nvg} == expected
    assert len(nvg) == 2


def test_nvg_flats_reference_self(reference_lattices):
    for k in (2, 3):
        assert nvg_flats(reference_lattices[k]) == []


# Hand-built flats with k = 2.  {123, 124} spans blocks 123 and 124,
# which share k = 2 indices: |1234| = 4 is not > 2 + 1 + 1.  All four
# triples of [4] form the one block 1234 of rank 4 - 2 = 2.  The 4-set
# {123, 145, 246, 356} of B(6,2) passes every pair and triple of its
# blocks but not all four: |123456| = 6 is not > 2 + 4.
@pytest.mark.parametrize("support, rank, very_generic", [
    (((1, 2, 3), (1, 2, 4)), 2, False),
    (tuple(combinations(range(1, 5), 3)), 2, True),
    (tuple(combinations(range(1, 5), 3)), 3, False),
    ((), 0, True),
    (((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)), 4, False),
], ids=["two-triples-rank2", "all-triples-rank2", "all-triples-rank3", "empty",
        "four-set-rank4"])
def test_is_very_generic_hand_built(support, rank, very_generic):
    assert is_very_generic(Flat(support=support, rank=rank), 2) is very_generic


def test_braid_flats_are_very_generic():
    lat = intersection_lattice(Arrangement(Q, 1, [(1,)] * 4))
    assert all(is_very_generic(f, 1) for f in lat.flats())
    assert nvg_flats(lat) == []
