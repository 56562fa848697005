"""The edge labels read off the synthematic totals, the exceptional
automorphism they equal (the phi oracle in _helpers), and type
bookkeeping."""

import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from discarr import (
    ClosureViolation,
    PartitionType,
    TYPE_ORDER,
    TypeReport,
    VertexPartition,
    arrangement_type,
    build_gallery,
    detectors,
    induced_edges,
    matching_to_edge,
    partition_from_edges,
    gallery_names,
    upper_bound_check,
)
from discarr.permtype import NotAMatchingLabel, _TOTAL_LABELS, _edge_table, _edge_type

from _helpers import (
    Perm,
    all_partitions_of_6,
    edge_label,
    matching_from_perm,
    oracle_arrangement_type,
    oracle_edge_partition,
    oracle_edge_report,
    oracle_edge_table,
    perfect_matchings,
    phi,
    reference_very_generic,
)


def _cyc(*cycles):
    return Perm.from_cycles(cycles)


def _inverse(p):
    """The permutation sending p(x) back to x."""
    return Perm(sorted(range(1, 7), key=p))


def _cycle_type(p):
    return tuple(sorted(len(o) for o in p.orbits()))


def test_perm_composition_is_right_first():
    p = _cyc((1, 2))
    q = _cyc((2, 3))
    assert (p * q)(3) == 1          # q sends 3 to 2, then p sends 2 to 1
    assert (q * p)(3) == 2
    assert p * p == Perm.identity()
    assert _inverse(p) == p
    r = _cyc((1, 2, 3, 4, 5, 6))
    assert r * _inverse(r) == Perm.identity() == _inverse(r) * r
    assert _cycle_type(r) == (6,)
    assert _cycle_type(_cyc((1, 5), (2, 6), (3, 4))) == (2, 2, 2)


def test_perm_orbits():
    p = _cyc((1, 5), (2, 6), (3, 4))
    assert p.orbits() == frozenset(
        {frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 4})})
    assert Perm.identity().orbits() == frozenset(
        frozenset({i}) for i in range(1, 7))


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((1, 1, 2, 3, 4, 5))


GENERATOR_IMAGES = {
    (1, 2): ((1, 5), (2, 6), (3, 4)),
    (2, 3): ((1, 2), (3, 5), (4, 6)),
    (3, 4): ((1, 5), (2, 4), (3, 6)),
    (4, 5): ((1, 4), (2, 6), (3, 5)),
    (5, 6): ((1, 5), (2, 3), (4, 6)),
}


def test_phi_generator_images():
    for (i, j), cycles in GENERATOR_IMAGES.items():
        assert phi(_cyc((i, j))) == _cyc(*cycles)
    assert phi(Perm.identity()) == Perm.identity()


def test_phi_is_homomorphism_on_random_pairs():
    rng = random.Random("phi-hom")
    elems = [Perm(p) for p in permutations(range(1, 7))]
    for _ in range(1000):
        p, q = rng.choice(elems), rng.choice(elems)
        assert phi(p * q) == phi(p) * phi(q)


def test_phi_is_bijective_and_outer():
    elems = [Perm(p) for p in permutations(range(1, 7))]
    images = {phi(p) for p in elems}
    assert len(images) == 720
    # outer: transpositions land on triple transpositions
    for i, j in combinations(range(1, 7), 2):
        assert _cycle_type(phi(_cyc((i, j)))) == (2, 2, 2)


def test_edge_matching_bijection():
    edges = list(combinations(range(1, 7), 2))
    matchings = [edge_label(i, j).orbits() for i, j in edges]
    assert len(set(matchings)) == 15
    assert set(matchings) == {frozenset(frozenset(p) for p in m)
                              for m in perfect_matchings(range(1, 7))}
    for (i, j), m in zip(edges, matchings):
        assert matching_to_edge(m) == (i, j)
    # a specific pair, worked by hand
    m56 = frozenset({frozenset({1, 5}), frozenset({2, 3}), frozenset({4, 6})})
    assert matching_to_edge(m56) == (5, 6)
    assert edge_label(1, 2).orbits() == frozenset(
        {frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 4})})


def test_edge_table_is_the_phi_oracle():
    assert _edge_table() == oracle_edge_table()


def test_sylvester_totals():
    # six totals, each five matchings covering all 15 pairs of [6], and
    # each matching in exactly two of them
    matchings = [frozenset(frozenset(p) for p in m) for m in perfect_matchings(range(1, 7))]
    totals = [t for t in combinations(matchings, 5) if len(frozenset().union(*t)) == 15]
    assert len(totals) == 6
    pairs = {frozenset(e) for e in combinations(range(1, 7), 2)}
    for t in totals:
        assert len(t) == 5 and frozenset().union(*t) == pairs
    table = _edge_table()
    assert set(table) == set(matchings)
    for m in matchings:
        assert sum(m in t for t in totals) == 2
    # two totals share exactly one matching, the one on the edge joining
    # their labels
    for (a, ta), (b, tb) in combinations(zip(_TOTAL_LABELS, totals), 2):
        shared, = set(ta) & set(tb)
        assert table[shared] == tuple(sorted((a, b)))


def test_matching_to_edge_rejects_non_label():
    fake = frozenset({frozenset({1, 2}), frozenset({1, 3}), frozenset({4, 5})})
    with pytest.raises(NotAMatchingLabel):
        matching_to_edge(fake)


def test_matching_from_perm_requires_involution():
    with pytest.raises(NotAMatchingLabel):
        matching_from_perm(_cyc((1, 2, 3)))
    assert matching_from_perm(_cyc((1, 5), (2, 6), (3, 4))) == frozenset(
        {frozenset({1, 5}), frozenset({2, 6}), frozenset({3, 4})})


def test_edge_label_validation():
    with pytest.raises(ValueError):
        edge_label(1, 1)
    with pytest.raises(ValueError):
        edge_label(0, 3)


def test_vertex_star_is_one_factorization():
    # the five edges at vertex 1 partition the 15 pairs of [6]
    seen = set()
    for j in range(2, 7):
        m = edge_label(1, j).orbits()
        pairs = {tuple(sorted(p)) for p in m}
        assert not (pairs & seen)
        seen |= pairs
    assert seen == set(combinations(range(1, 7), 2))


def _closure(perms):
    group = set(perms)
    frontier = list(group)
    while frontier:
        nxt = []
        for p in frontier:
            for q in list(group):
                for r in (p * q, q * p):
                    if r not in group:
                        group.add(r)
                        nxt.append(r)
        frontier = nxt
    return group


def test_shared_vertex_law():
    # labels of two edges at one vertex generate a copy of S_3 that
    # contains the third edge's label, and conjugation permutes the
    # three labels exactly as transpositions permute the vertex triple
    for i, j, l in combinations(range(1, 7), 3):
        a, b, c = edge_label(i, j), edge_label(i, l), edge_label(j, l)
        group = _closure({a, b})
        assert c in group
        assert len(group) == 6
        assert a * b * _inverse(a) == c      # (ij)(il)(ij) = (jl)
        assert b * a * _inverse(b) == c      # (il)(ij)(il) = (jl)
        assert c * a * _inverse(c) == b      # (jl)(ij)(jl) = (il)


def test_disjoint_edge_labels_commute():
    edges = list(combinations(range(1, 7), 2))
    for e1, e2 in combinations(edges, 2):
        if set(e1) & set(e2):
            continue
        a, b = edge_label(*e1), edge_label(*e2)
        assert a * b == b * a


def test_partition_type_parsing_and_m():
    nu = PartitionType.from_string("1^2 4^1")
    assert nu == PartitionType.from_string("1^2,4^1")
    assert nu == PartitionType.from_string("1 1 4")
    assert nu.label() == "1^2 4^1"
    assert nu.cli_token() == "1^2,4^1"
    assert nu.m() == 6
    with pytest.raises(ValueError):
        PartitionType.from_string("1^2 4^2")


def test_partition_type_refuses_parts_outside_1_to_6_before_expanding():
    # 1^100000 once built a list of 100,000 ones and echoed it in the error
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            PartitionType.from_string("1^100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "part '1^100000' is not d^a with d and a in 1..6"
    assert peak < 100_000
    for token in ("0^6", "7", "1^0 6^1", "2^-3", "1^", "^2", "1^1^2"):
        with pytest.raises(ValueError):
            PartitionType.from_string(token)


def test_type_order_table():
    labels = [nu.label() for nu in TYPE_ORDER]
    assert labels == ["1^6", "1^4 2^1", "1^3 3^1", "1^2 2^2", "1^2 4^1",
                      "1^1 2^1 3^1", "2^3", "1^1 5^1", "2^1 4^1", "3^2", "6^1"]
    assert [nu.m() for nu in TYPE_ORDER] == [0, 1, 3, 2, 6, 4, 3, 10, 7, 6, 15]


def test_m_formula_exhaustive_over_all_partitions():
    parts = all_partitions_of_6()
    assert len(parts) == 203
    assert len({p.blocks for p in parts}) == 203
    for v in parts:
        assert len(induced_edges(v)) == v.type().m()
        assert v.type() in TYPE_ORDER


def test_induced_edges_example():
    v = VertexPartition([{1, 2, 3, 4}, {5}, {6}])
    edges = induced_edges(v)
    assert len(edges) == 6
    assert {(1, 2), (2, 3), (3, 4)} <= set(edges)
    assert v.type().label() == "1^2 4^1"


def test_vertex_partition_refuses_empty_and_repeated_blocks():
    # the blocks are checked as given, before a frozenset drops a repeat
    for blocks, shown in (([(), range(1, 7)], "[[], [1, 2, 3, 4, 5, 6]]"),
                          ([(1, 2), (1, 2), (3, 4, 5, 6)], "[[1, 2], [1, 2], [3, 4, 5, 6]]")):
        with pytest.raises(ValueError) as exc:
            VertexPartition(blocks)
        assert str(exc.value) == f"blocks must partition 1..6, got {shown}"


def test_partition_from_edges():
    assert partition_from_edges([]).type().label() == "1^6"
    v = partition_from_edges([(1, 2), (2, 3)])
    assert v == VertexPartition([{1, 2, 3}, {4}, {5}, {6}])
    full = partition_from_edges(combinations(range(1, 7), 2))
    assert full.type().label() == "6^1"


def test_arrangement_type_on_reference():
    a = reference_very_generic(6, 2, seed=0)
    rep = arrangement_type(a)
    assert rep.type.label() == "1^6"
    assert rep.m_a == 0
    assert rep.matchings == ()
    assert rep.m_formula_consistent
    b = reference_very_generic(6, 3, seed=0)
    rep3 = arrangement_type(b)
    assert rep3.type.label() == "1^6" and rep3.m_a == 0


@pytest.mark.parametrize("name", ["octahedral", "dodecahedral"])
def test_arrangement_type_matchings_are_frozensets(name):
    # k = 2 (octahedral) and k = 3 (dodecahedral) report one Matching type
    rep = arrangement_type(build_gallery(name))
    assert rep.matchings
    for m in rep.matchings:
        assert type(m) is frozenset and len(m) == 3
        assert all(type(p) is frozenset and len(p) == 2 for p in m)


def test_arrangement_type_rejects_wrong_size():
    a = reference_very_generic(7, 2, seed=0)
    with pytest.raises(ValueError):
        arrangement_type(a)


# ---------------------------------------------------------------------------
# the memoized typing against the per-call union-find

EDGES = tuple(combinations(range(1, 7), 2))


def _outcome(fn, *args):
    """fn's result, or the text of the ClosureViolation it raises."""
    try:
        return fn(*args)
    except ClosureViolation as exc:
        return ("ClosureViolation", str(exc))


def test_edge_type_is_the_union_find_on_every_edge_set():
    # all 2^15 edge sets, each typed as the matchings that label its
    # edges: the same partition, type and edges, or the same message
    labels = {e: matching_from_perm(edge_label(*e)) for e in EDGES}
    closed = 0
    for size in range(len(EDGES) + 1):
        for chosen in combinations(EDGES, size):
            want = _outcome(oracle_edge_report, tuple(labels[e] for e in chosen), 1)
            got = _outcome(_edge_type, sum(1 << 6 * i + j for i, j in chosen))
            if isinstance(want, TypeReport):
                assert got == (want.edges, want.partition, want.type)
                closed += 1
            else:
                assert got == want
    # one component-closed set per set partition of [6]
    assert closed == len(all_partitions_of_6()) == 203


def test_partition_from_edges_is_the_union_find():
    rng = random.Random(32)
    for _ in range(300):
        edges = rng.sample(EDGES, rng.randint(0, 8))
        assert partition_from_edges(edges) == oracle_edge_partition(edges)


@pytest.mark.parametrize("name", [name for name in gallery_names()
                                  if name != "polygon-<n>"] + ["polygon-6"])
def test_arrangement_type_equals_the_union_find_oracle(name):
    # the fixed gallery and the witnesses are six lines or six planes
    a = build_gallery(name)
    assert arrangement_type(a) == oracle_arrangement_type(a)


# detected matchings as edge lists: a path, a path and a lone edge, a
# triangle short of one edge, and a star missing its closure
FORCED = [((1, 2), (2, 3)), ((1, 2), (2, 3), (3, 4), (5, 6)),
          ((1, 2), (1, 3), (4, 5), (5, 6), (4, 6)), ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6))]


@pytest.mark.parametrize("edges", FORCED, ids=lambda e: "-".join(f"{i}{j}" for i, j in e))
@pytest.mark.parametrize("name", ["witness-1^6", "octahedral"])
def test_forced_open_edge_set_raises_the_oracle_message(monkeypatch, name, edges):
    # the detector is replaced by one returning the edges' matchings, so
    # the library and the oracle type the same non-closed set
    matchings = [matching_from_perm(edge_label(*e)) for e in edges]
    a = build_gallery(name)
    if a.k == 2:
        monkeypatch.setattr(detectors, "find_involutions", lambda a: [(m, None) for m in matchings])
    else:
        found = [detectors.Good6Partition(m) for m in matchings]
        monkeypatch.setattr(detectors, "good6_points", lambda a: found)
    got = _outcome(arrangement_type, a)
    assert got == _outcome(oracle_arrangement_type, a)
    assert got[0] == "ClosureViolation" and got[1].startswith(
        "detected edges are not component-closed; missing [(")


def test_upper_bound_check():
    v0 = partition_from_edges([])
    ok = TypeReport(type=v0.type(), partition=v0, matchings=(),
                    edges=frozenset(), m_a=0, m_formula_consistent=True)
    assert upper_bound_check([ok])

    v6 = partition_from_edges(combinations(range(1, 7), 2))
    too_big = TypeReport(type=v6.type(), partition=v6, matchings=(),
                         edges=induced_edges(v6), m_a=30,
                         m_formula_consistent=True)
    assert not upper_bound_check([too_big])
    six_typed = TypeReport(type=v6.type(), partition=v6, matchings=(),
                           edges=induced_edges(v6), m_a=15,
                           m_formula_consistent=True)
    assert not upper_bound_check([six_typed])
