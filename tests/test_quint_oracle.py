"""Quint families against the slow exact path they replaced.

The oracle below is the original search: for every 7-subset, the 21
2 x 2 determinants of the subset, and for every center and every split
of the other six indices into two paired triples, the division-free
cross-ratio equality.  The library groups the cross ratios around each
center over one table of minors instead; both must find the same
families.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    Galois,
    Prime,
    Quadratic,
    QuintFamily,
    quintuple_points,
)
from discarr.gallery import regular_polygon
from discarr.modular import modular_image

from _helpers import (
    cofactor_det,
    count_payload_calls,
    perfect_matchings,
    reference_very_generic,
)


def _pair_dets(a, subset):
    return {(x, y): cofactor_det([a.normal(x), a.normal(y)])
            for x, y in combinations(subset, 2)}


def _dd(dets, x, y):
    return dets[(x, y)] if x < y else -dets[(y, x)]


def _quint_condition(dets, center, ta, tb):
    n1 = _dd(dets, center, ta[1]) * _dd(dets, ta[0], ta[2])
    d1 = _dd(dets, ta[0], ta[1]) * _dd(dets, center, ta[2])
    n2 = _dd(dets, center, tb[1]) * _dd(dets, tb[0], tb[2])
    d2 = _dd(dets, tb[0], tb[1]) * _dd(dets, center, tb[2])
    if d1.is_zero() or d2.is_zero():
        return False
    return n1 * d2 == n2 * d1


def oracle_quints(a):
    """Canonical quint families by the per-7-subset enumeration."""
    found = set()
    for subset in combinations(a.indices, 7):
        dets = _pair_dets(a, subset)
        for center in subset:
            rim = [p for p in subset if p != center]
            for (x1, y1), (x2, y2), (x3, y3) in perfect_matchings(rim):
                for c2, d2 in ((x2, y2), (y2, x2)):
                    for c3, d3 in ((x3, y3), (y3, x3)):
                        ta, tb = (x1, c2, c3), (y1, d2, d3)
                        if _quint_condition(dets, center, ta, tb):
                            found.add(QuintFamily(center, ta, tb))
    return sorted(found)


def seeded_lines(field, n, seed):
    """n lines through distinct points of P^1 over a finite field, each
    normal scaled by a random nonzero element."""
    rng = random.Random(f"quint-oracle-{field!r}-{n}-{seed}")
    elements = list(field.iter_elements())
    nonzero = [e for e in elements if not e.is_zero()]
    points = [(e, field.one()) for e in elements] + [(field.one(), field.zero())]
    normals = []
    for u, v in rng.sample(points, n):
        s = rng.choice(nonzero)
        normals.append((s * u, s * v))
    return Arrangement(field, 2, normals)


def seeded_sqrt5_lines(n, seed):
    """n lines with distinct slopes x + y*sqrt(5), x, y in {-1, 0, 1};
    the small grid makes equal cross ratios common."""
    field = Quadratic(5)
    rng = random.Random(f"quint-oracle-sqrt5-{n}-{seed}")
    g = field.generator()
    grid = [field.from_int(x) + field.from_int(y) * g for x in (-1, 0, 1) for y in (-1, 0, 1)]
    return Arrangement(field, 2, [(s, field.one()) for s in rng.sample(grid, n)])


CASES = {
    "polygon-7": lambda: regular_polygon(7),
    "polygon-8": lambda: regular_polygon(8),
    "reference-7-2": lambda: reference_very_generic(7, 2, 0),
    "reference-8-2": lambda: reference_very_generic(8, 2, 0),
    "F7-n7": lambda: seeded_lines(Prime(7), 7, 0),
    "F7-n8": lambda: seeded_lines(Prime(7), 8, 0),
    "F11-n8": lambda: seeded_lines(Prime(11), 8, 0),
    "GF8-n8": lambda: seeded_lines(Galois(2, (1, 1, 0, 1)), 8, 0),
    "GF9-n7": lambda: seeded_lines(Galois(3, (1, 0, 1)), 7, 0),
    "GF9-n8": lambda: seeded_lines(Galois(3, (1, 0, 1)), 8, 1),
    "sqrt5-n7": lambda: seeded_sqrt5_lines(7, 0),
    "sqrt5-n8": lambda: seeded_sqrt5_lines(8, 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_quintuple_points_match_subset_oracle(name):
    a = CASES[name]()
    assert quintuple_points(a) == oracle_quints(a)


def test_oracle_cases_have_families():
    # the oracle comparison means little if every family list is empty
    for name in ("F7-n8", "F11-n8", "GF8-n8", "GF9-n8", "sqrt5-n7", "sqrt5-n8"):
        assert quintuple_points(CASES[name]())


def test_quint_search_inverts_each_pair_once(monkeypatch):
    # C(8,2) inversions and O(n^4) products; the per-7-subset search
    # does 20552 products on polygon-8.
    a = regular_polygon(8)
    calls = Counter()

    def counting(name):
        fn = getattr(Cyclotomic, name)

        def wrapper(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(Cyclotomic, "_mul", counting("_mul"))
    monkeypatch.setattr(Cyclotomic, "_inv", counting("_inv"))
    quintuple_points(a)
    assert calls["_inv"] == 28
    assert calls["_mul"] <= 8 ** 4


@pytest.mark.parametrize("n, products, inverses", [(7, 1050, 21), (8, 2016, 28)])
def test_quint_search_work_is_pinned(monkeypatch, n, products, inverses):
    # n(n-1)(n-2)^2 products: a ratio per ordered triple, then one per
    # center and ordered triple avoiding it; one inverse per pair.  The
    # kept minors are not counted.
    a = modular_image(regular_polygon(n))
    a.minors()
    calls = count_payload_calls(monkeypatch, a.field)
    quintuple_points(a)
    assert calls == Counter(_mul=products, _inv=inverses)
