"""The intersection lattice against the slow exact path it replaced.

The oracle below is the original algorithm: an echelon of FieldElement
rows (oracle_closure, in _helpers), and every cover of a rank-r flat
found by closing the flat plus one outside hyperplane from scratch.  The library groups hyperplanes by
their reduction modulo the flat's saved echelon instead, on rows of
length n - k (coordinates k+1..n) where the oracle keeps all n; both
must give the same flats, in the same order, on one input per field
kind and on two six-plane witnesses.
"""

from collections import Counter

import pytest

from discarr import (
    Arrangement,
    Rational,
    build_gallery,
    intersection_lattice,
)
from discarr import linalg
from discarr.gallery import (
    crapo,
    dodecahedral,
    f4_arrangement,
    f5_arrangement,
    octahedral,
    regular_polygon,
)

from _helpers import discriminantal_normals, oracle_closure, reference_very_generic


def oracle_flats(a, max_rank=None):
    """rank -> [(support, rank)] by per-(flat, hyperplane) closure."""
    normals = discriminantal_normals(a)
    keys = sorted(normals)
    top = a.n - a.k
    max_rank = top if max_rank is None else min(max_rank, top)
    levels = {0: [((), 0)]}
    if max_rank >= 1:
        assigned, singles = set(), []
        for L in keys:
            if L not in assigned:
                flat = oracle_closure(normals, [L])
                assigned.update(flat[0])
                singles.append(flat)
        levels[1] = singles
    for r in range(2, max_rank + 1):
        if r == top:
            levels[r] = [(tuple(keys), top)]
            break
        found = {}
        for support, _ in levels[r - 1]:
            for L in keys:
                if L not in support:
                    flat = oracle_closure(normals, support + (L,))
                    found[flat[0]] = flat
        levels[r] = [found[s] for s in sorted(found)]
    return levels


@pytest.mark.parametrize("make, max_rank", [
    (crapo, None),                          # Q
    (dodecahedral, None),                   # Q(sqrt 5)
    (f5_arrangement, None),                 # F_5
    (f4_arrangement, None),                 # GF(4)
    (lambda: regular_polygon(6), 2),        # Q(zeta_24)
    (lambda: Arrangement(Rational(), 1, [(1,)] * 4), None),  # braid B(4,1)
    (octahedral, None),                     # Q(i)
    (lambda: build_gallery("witness-3^2"), None),      # Q(sqrt -3), k = 3
    (lambda: build_gallery("witness-1^1,5^1"), None),  # Q(sqrt 5), k = 3
], ids=["crapo", "dodecahedral", "f5", "f4", "polygon-6", "braid-4", "octahedral",
        "witness-3^2", "witness-1^1,5^1"])
def test_lattice_matches_closure_oracle(make, max_rank):
    a = make()
    lat = intersection_lattice(a, max_rank=max_rank)
    got = {r: [(f.support, f.rank) for f in flats]
           for r, flats in lat.flats_by_rank.items()}
    assert got == oracle_flats(a, max_rank)


def test_reference_7_2_lattice_counts():
    lat = intersection_lattice(reference_very_generic(7, 2, 0), max_rank=3)
    assert lat.counts() == {0: 1, 1: 35, 2: 420, 3: 2051}


def test_lattice_level_reduces_each_hyperplane_once(monkeypatch):
    # One reduction per (flat, outside hyperplane) at every level, level 1
    # included (the covers of the rank-0 flat); a return to closing every
    # pair from scratch costs about one reduction per hyperplane for each
    # pair instead.
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls["reduce"] += 1
            return fn(*args)
        return wrapper

    for cls in (linalg._Span, linalg._IntegerSpan):
        monkeypatch.setattr(cls, "_reduce", counting(vars(cls)["_reduce"]))
    lat = intersection_lattice(crapo())
    n_hyp = 20
    assert len(lat.flats(1)) == n_hyp
    parents = [f for r in range(0, lat.max_rank() - 1) for f in lat.flats(r)]
    assert calls["reduce"] <= sum(n_hyp - len(f) for f in parents)
