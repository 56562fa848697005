"""The intersection lattice against the slow exact path it replaced.

The oracle below is the original algorithm: an echelon of FieldElement
rows, and every cover of a rank-r flat found by closing the flat plus
one outside hyperplane from scratch.  The library groups hyperplanes by
their reduction modulo the flat's saved echelon instead; both must give
the same flats, in the same order, on one input per field kind.
"""

from collections import Counter

import pytest

from discarr import (
    Arrangement,
    Rational,
    build_discriminantal,
    intersection_lattice,
)
from discarr import discriminantal
from discarr.gallery import (
    crapo,
    dodecahedral,
    f4_arrangement,
    f5_arrangement,
    regular_polygon,
)

from _helpers import reference_very_generic


class _OracleSpan:
    """Incremental row echelon over FieldElement rows."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def _reduce(self, v):
        w = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if not c.is_zero():
                for i in range(piv, len(w)):
                    w[i] = w[i] - c * row[i]
        return w

    def contains(self, v):
        return all(x.is_zero() for x in self._reduce(v))

    def insert(self, v):
        w = self._reduce(v)
        for i, x in enumerate(w):
            if not x.is_zero():
                inv = x.inv()
                self.rows.append([y * inv for y in w])
                self.pivots.append(i)
                return


def _oracle_closure(normals, supports):
    span = _OracleSpan()
    for L in supports:
        span.insert(normals[L])
    members = tuple(L for L in sorted(normals) if span.contains(normals[L]))
    return members, len(span.rows)


def oracle_flats(d, max_rank=None):
    """rank -> [(support, rank)] by per-(flat, hyperplane) closure."""
    normals = d.hyperplanes
    keys = sorted(normals)
    top = d.n - d.k
    max_rank = top if max_rank is None else min(max_rank, top)
    levels = {0: [((), 0)]}
    if max_rank >= 1:
        assigned, singles = set(), []
        for L in keys:
            if L not in assigned:
                flat = _oracle_closure(normals, [L])
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
                    flat = _oracle_closure(normals, support + (L,))
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
], ids=["crapo", "dodecahedral", "f5", "f4", "polygon-6", "braid-4"])
def test_lattice_matches_closure_oracle(make, max_rank):
    d = build_discriminantal(make())
    lat = intersection_lattice(d, max_rank=max_rank)
    got = {r: [(f.support, f.rank) for f in flats]
           for r, flats in lat.flats_by_rank.items()}
    assert got == oracle_flats(d, max_rank)


def test_reference_7_2_lattice_counts():
    d = build_discriminantal(reference_very_generic(7, 2, 0))
    lat = intersection_lattice(d, max_rank=3)
    assert lat.counts() == {0: 1, 1: 35, 2: 420, 3: 2051}


def test_lattice_level_reduces_each_hyperplane_once(monkeypatch):
    # One reduction per (flat, outside hyperplane) above level 1; a
    # return to closing every pair from scratch costs a full closure
    # (about one reduction per hyperplane) for each pair instead.
    d = build_discriminantal(crapo())
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for cls in (discriminantal._Span, discriminantal._IntegerSpan):
        monkeypatch.setattr(cls, "_reduce", counting("reduce", vars(cls)["_reduce"]))
    monkeypatch.setattr(discriminantal.Lattice, "closure",
                        counting("closure", discriminantal.Lattice.closure))
    lat = intersection_lattice(d)
    n_hyp = len(d)
    singles = lat.flats(1)
    assert calls["closure"] == len(singles) == 20
    level1 = len(singles) * (1 + n_hyp) + len(singles)
    parents = [f for r in range(1, lat.max_rank() - 1) for f in lat.flats(r)]
    assert calls["reduce"] <= level1 + sum(n_hyp - len(f) for f in parents)
