"""Acceptance suite: the frozen end-to-end claims, one test per
criterion, each printing a single PASS/FAIL line.

Everything here is exact arithmetic; no tolerance appears anywhere.
The session fixtures in conftest.py supply the seeded random pools
and the polygon sweeps.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from discarr import (
    Quadratic,
    Rational,
    TYPE_ORDER,
    arrangement_type,
    discriminantal_normal,
    find_involutions,
    good6_condition,
    good6_points,
    induced_edges,
    intersection_lattice,
    nvg_flats,
    pappus_closure_check,
    quadral_points,
    quint_closure_checks,
)
from discarr.cli import EXIT_OK, main
from discarr.gallery import (
    BLOCKED_CORE_MATCHINGS,
    DODECAHEDRAL_DEPENDENCIES,
    blocked_core_dets,
    dependency_residual,
    is_parameter_generic,
    parametrized,
    quadral_lower_bound,
    quint_lower_bound,
    witness_spec,
)

from _helpers import (
    all_partitions_of_6,
    flat_key,
    fourset_candidates,
    monic_quadratic_irreducible_over_q,
    oracle_ceva_value,
    oracle_crossratio_form,
    oracle_quint_value,
    oracle_rank,
    perfect_matchings,
    quint_candidates,
    reference_very_generic,
)

Q = Rational()


@contextmanager
def checked(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL {desc}")
        raise
    print(f"criterion {num}: PASS {desc}")


def _matching_key(matching):
    """(support-sets frozenset, 2): the lattice key of a pairing flat."""
    pairs = [frozenset(p) for p in matching]
    sets = frozenset(tuple(sorted(pairs[i] | pairs[j]))
                     for i, j in ((0, 1), (0, 2), (1, 2)))
    return (sets, 2)


# ---------------------------------------------------------------------------

def test_criterion_1(fixed_gallery):
    with checked(1, "octahedral: 12 quadral 4-sets, 6 involutions, type 1^2 4^1"):
        a = fixed_gallery["octahedral"]
        quads = quadral_points(a)
        invs = find_involutions(a)
        assert len(quads) == 12
        assert len(invs) == 6
        rep = arrangement_type(a)
        assert rep.type.label() == "1^2 4^1"
        assert rep.m_a == 2 * rep.type.m() == 12
        # the involutions realize exactly the detected pairings
        assert ({frozenset(frozenset(p) for p in f.matching()) for f in quads}
                == {m for m, _ in invs})


def test_criterion_2(fixed_gallery):
    with checked(2, "dodecahedral: the 10 tabulated pairings, dependencies vanish"):
        a = fixed_gallery["dodecahedral"]
        goods = good6_points(a)
        assert len(goods) == 10
        assert ({g.matching for g in goods}
                == {m for m, _ in DODECAHEDRAL_DEPENDENCIES})
        zero = a.field.zero()
        for _, terms in DODECAHEDRAL_DEPENDENCIES:
            assert all(e == zero for e in dependency_residual(a, terms))
        detected = {g.matching for g in goods}
        rest = [m for m in perfect_matchings(range(1, 7)) if m not in detected]
        assert len(rest) == 5
        for m in rest:
            assert not good6_condition(a, m).is_zero()


def test_criterion_3(witnesses, capsys):
    with checked(3, "classification table: witnesses, obstruction, minimal fields"):
        # every realizable type has a frozen witness over its table field
        expected_fields = {label: Rational() for label in
                           ("1^6", "1^4 2^1", "1^3 3^1", "1^2 2^2",
                            "1^2 4^1", "1^1 2^1 3^1")}
        expected_fields["1^1 5^1"] = Quadratic(5)
        expected_fields["3^2"] = Quadratic(-3)
        assert set(witnesses) == set(expected_fields)
        for label, (spec, a) in witnesses.items():
            assert spec.field == expected_fields[label]
            assert is_parameter_generic(spec.field, *spec.parameters)
            assert arrangement_type(a).type.label() == label

        # the three blocked-matching determinants equal the closed forms;
        # the grid exceeds every per-variable degree, so this is an
        # identity of polynomials, not a sample
        dets = blocked_core_dets()
        grid = tuple(Q.from_int(v) for v in (0, 1, 2, 3, 5))
        for w, x, y, z in product(grid, repeat=4):
            a = parametrized(Q, w, x, y, z)
            for m, d in zip(BLOCKED_CORE_MATCHINGS, dets):
                assert good6_condition(a, m) == d(w, x, y, z)
        d1, d2, d3 = dets
        # eliminating y (= x) and z (= x^2) leaves 2x(x - 1)
        for wv in (0, 2, 7):
            w = Q.from_int(wv)
            for xv in (0, 1, 2, 3, 5):
                x = Q.from_int(xv)
                assert d1(w, x, x, x * x).is_zero()
                assert d2(w, x, x, x * x).is_zero()
                assert d3(w, x, x, x * x) == 2 * x * (x - Q.one())
        # in characteristic 0 the remaining roots violate genericity
        for xv in (0, 1):
            assert not is_parameter_generic(Q, 7, xv, xv, xv * xv)
        # the two larger typeless classes contain a fully paired core,
        # so they inherit the obstruction
        core_edge_sets = [induced_edges(v) for v in all_partitions_of_6()
                          if v.type().label() == "2^3"]
        for v in all_partitions_of_6():
            if v.type().label() in ("2^3", "2^1 4^1", "6^1"):
                edges = induced_edges(v)
                assert any(core <= edges for core in core_edge_sets)

        # minimal fields are genuinely quadratic
        assert monic_quadratic_irreducible_over_q(Fraction(1), Fraction(-1))
        assert monic_quadratic_irreducible_over_q(Fraction(-1), Fraction(1))

        # the rendered table verifies itself end to end
        assert main(["table", "classification", "--quiet"]) == EXIT_OK
        assert "table: ok" in capsys.readouterr().out


def test_criterion_4(fixed_gallery):
    with checked(4, "char 2: all 15 pairings hold, type 6^1"):
        a = fixed_gallery["f4"]
        goods = good6_points(a)
        assert len(goods) == 15
        assert ({g.matching for g in goods}
                == set(perfect_matchings(range(1, 7))))
        rep = arrangement_type(a)
        assert rep.type.label() == "6^1"
        assert rep.m_a == 15


def test_criterion_5(fixed_gallery, k2_reports, k3_reports):
    with checked(5, "m(A) maximum: 20 over F5, never exceeded elsewhere"):
        rep5 = arrangement_type(fixed_gallery["f5"])
        assert rep5.m_a == 20
        assert len(find_involutions(fixed_gallery["f5"])) == 10
        gallery_k2 = [arrangement_type(fixed_gallery[s])
                      for s in ("crapo", "octahedral")]
        for rep in k2_reports + gallery_k2:
            assert rep.m_a <= 20
            assert rep.type.label() != "6^1"
        # two-pair counting makes 20 the k=2 ceiling; k=3 counts
        # matchings directly, so 15 bounds it
        for rep in k3_reports:
            assert rep.m_a <= 15
        assert arrangement_type(fixed_gallery["f4"]).m_a == 15


def test_criterion_6():
    with checked(6, "m formula matches induced edge counts on all 203 partitions"):
        parts = all_partitions_of_6()
        assert len(parts) == 203
        seen = set()
        for v in parts:
            assert v.type().m() == len(induced_edges(v))
            seen.add(v.type())
        assert seen == set(TYPE_ORDER)
        assert len(TYPE_ORDER) == 11


def test_criterion_7(polygon_data):
    with checked(7, "polygon sweeps n=6..10: bounds hold, predictions confirmed"):
        detected_pins = {6: (8, 0), 7: (14, 28), 8: (80, 104),
                         9: (72, 306), 10: (240, 900)}
        bound_pins = {6: (8, 0), 7: (14, 28), 8: (48, 32),
                      9: (72, 144), 10: (160, 160)}
        for n, data in polygon_data.items():
            a = data["arrangement"]
            one = a.field.one()
            quads, quints = data["quadral"], data["quint"]
            assert (quadral_lower_bound(n), quint_lower_bound(n)) == bound_pins[n]
            assert len(quads) >= quadral_lower_bound(n)
            assert len(quints) >= quint_lower_bound(n)
            assert (len(quads), len(quints)) == detected_pins[n]
            # every reflection-predicted family is exactly detected
            quad_set, quint_set = set(quads), set(quints)
            assert len(data["pred4"]) == quadral_lower_bound(n)
            assert len(data["pred5"]) == quint_lower_bound(n)
            for fs in data["pred4"]:
                assert fs in quad_set
                assert oracle_ceva_value(a, fs) == one
            for q in data["pred5"]:
                assert q in quint_set
                left, right = oracle_quint_value(a, q)
                assert left == right
            if n in (6, 7):
                assert sorted(quads) == data["pred4"]
                assert sorted(quints) == data["pred5"]


def test_criterion_8a(k2_detections, fixed_gallery, polygon_data):
    with checked("8a", "4-set detections closed under complement, counts even"):
        runs = [(a, quads) for _, a, quads, _ in k2_detections]
        runs += [(fixed_gallery[s], quadral_points(fixed_gallery[s]))
                 for s in ("crapo", "octahedral", "f5")]
        runs += [(d["arrangement"], d["quadral"]) for d in polygon_data.values()]
        for a, quads in runs:
            found = set(quads)
            assert len(found) == len(quads)
            assert len(found) % 2 == 0
            for fs in found:
                assert fs.complement() in found


def _subset_normals(a):
    """Discriminantal normal of every (k+1)-subset, computed once."""
    return {s: discriminantal_normal(a, s)
            for s in combinations(a.indices, a.k + 1)}


def test_criterion_8b(k2_detections, k3_detections, fixed_gallery,
                      polygon_data, witnesses):
    with checked("8b", "detector results coincide with normal-span ranks"):
        import random

        # 4-sets: value condition holds iff the four normals have rank 3
        quad_runs = [(a, quads) for _, a, quads, _ in k2_detections]
        quad_runs += [(fixed_gallery[s], quadral_points(fixed_gallery[s]))
                      for s in ("crapo", "octahedral", "f5")]
        quad_runs += [(polygon_data[n]["arrangement"], polygon_data[n]["quadral"])
                      for n in (6, 7)]
        for a, quads in quad_runs:
            found = set(quads)
            normals = _subset_normals(a)
            for fs in fourset_candidates(a.indices):
                rows = [normals[s] for s in fs.sets]
                rank = oracle_rank(rows)
                assert (fs in found) == (rank == 3)
                assert rank in (3, 4)

        # quint families: five normals of rank 4; full sweep on the
        # seeded n=7 pool and the heptagon, spot checks on the larger
        # cyclotomic polygons
        quint_runs = [(a, quints) for _, a, _, quints in k2_detections
                      if a.n == 7]
        quint_runs.append((polygon_data[7]["arrangement"],
                           polygon_data[7]["quint"]))
        for a, quints in quint_runs:
            found = set(quints)
            normals = _subset_normals(a)
            for q in quint_candidates(a.indices):
                rows = [normals[s] for s in q.sets]
                rank = oracle_rank(rows)
                assert (q in found) == (rank == 4)
        rng = random.Random("rank-spot-checks")
        for n in (8, 9, 10):
            a = polygon_data[n]["arrangement"]
            found = set(polygon_data[n]["quint"])
            sample = list(found)[:20]
            undetected = [q for q in quint_candidates(range(1, 8))
                          if q not in found]
            sample += rng.sample(undetected, 20)
            normals = _subset_normals(a)
            for q in sample:
                rows = [normals[s] for s in q.sets]
                assert (q in found) == (oracle_rank(rows) == 4)

        # pairings: the three pair-union normals have rank 2
        good_runs = [(a, goods) for _, a, goods in k3_detections]
        good_runs += [(fixed_gallery[s], good6_points(fixed_gallery[s]))
                      for s in ("dodecahedral", "f4")]
        good_runs += [(a, good6_points(a)) for _, a in witnesses.values()]
        for a, goods in good_runs:
            found = {g.matching for g in goods}
            normals = _subset_normals(a)
            for m in perfect_matchings(range(1, 7)):
                pairs = [frozenset(p) for p in m]
                subsets = [tuple(sorted(pairs[i] | pairs[j]))
                           for i, j in ((0, 1), (0, 2), (1, 2))]
                rows = [normals[s] for s in subsets]
                rank = oracle_rank(rows)
                assert (m in found) == (rank == 2)
                assert rank in (2, 3)


def test_criterion_8c(k2_detections, k3_detections, fixed_gallery,
                      polygon_data, witnesses):
    with checked("8c", "triangle and quint closure laws: zero violations"):
        for _, a, _, quints in k2_detections:
            if a.n >= 7:
                assert quint_closure_checks(quints) == []
        for n in range(7, 11):
            assert quint_closure_checks(polygon_data[n]["quint"]) == []
        k3_runs = [a for _, a, _ in k3_detections]
        k3_runs += [fixed_gallery["dodecahedral"], fixed_gallery["f4"]]
        k3_runs += [a for _, a in witnesses.values()]
        for a in k3_runs:
            assert pappus_closure_check(a) == []


def test_criterion_8d(k2_detections):
    with checked("8d", "cross-ratio form equals minus the 4-set value"):
        # and quadral_points detects exactly the candidates whose value is 1
        for _, a, quads, _ in k2_detections:
            detected, one = set(quads), a.field.one()
            for fs in fourset_candidates(a.indices):
                value = oracle_ceva_value(a, fs)
                assert oracle_crossratio_form(a, fs) == -value
                assert (fs in detected) == (value == one)


def _nvg(a):
    return nvg_flats(intersection_lattice(a))


def test_criterion_9(fixed_gallery, witnesses):
    with checked(9, "the very generic criterion flags exactly the detected flats"):
        # an arrangement passing every detector has no nvg flat
        for k in (2, 3):
            assert _nvg(reference_very_generic(6, k, seed=1)) == []

        a = fixed_gallery["octahedral"]
        nvg = _nvg(a)
        assert ({flat_key(f) for f in nvg}
                == {(frozenset(fs.sets), 3) for fs in quadral_points(a)})
        assert len(nvg) == 12

        for name, count in (("dodecahedral", 10), ("f4", 15)):
            a = fixed_gallery[name]
            nvg = _nvg(a)
            expected = {_matching_key(g.matching) for g in good6_points(a)}
            assert {flat_key(f) for f in nvg} == expected
            assert len(nvg) == count

        for label, (spec, a) in witnesses.items():
            nvg = _nvg(a)
            expected = {_matching_key(g.matching) for g in good6_points(a)}
            assert {flat_key(f) for f in nvg} == expected
            assert len(nvg) == arrangement_type(a).type.m()
