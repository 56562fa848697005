"""B(n,k,A) on coordinates k+1..n.

The projection pi that drops coordinates 1..k is injective on the span
of the discriminantal normals (the proof is in discriminantal's
docstring), so every flat's rows have the same rank under pi as in full,
and the lattice the library builds from the projected rows has the flats
of the full rows (test_lattice_oracle compares them with the oracle on
full rows).  Both rest on one reader of the sign rule: the k + 1
(coordinate, payload) pairs of the normal of D_L must expand to the
dense row they replaced, key by key, and the dense row on coordinates
k+1..n that the lattice and the translate solver read must be its
tail.
"""

import random
from itertools import combinations

import pytest

from discarr import (
    Cyclotomic,
    Galois,
    Prime,
    Quadratic,
    Rational,
    build_gallery,
    discriminantal_normal,
    intersection_lattice,
)
from discarr.arrangement import _payload_rows, _projected, _read_minors, _signed_minors

from _helpers import discriminantal_normals, oracle_rank

from test_discriminantal import _random_generic

FIELDS = [Rational(), Quadratic(5), Cyclotomic(5), Prime(101), Galois(7, (1, 0, 1))]
FIELD_IDS = ["Q", "sqrt5", "zeta5", "F101", "GF49"]


def oracle_discriminantal_row(a, key):
    """The dense payload row the sparse pairs replaced: coordinate p_j
    carries (-1)^(j+1) times the minor with p_j deleted, every other
    coordinate zero."""
    fd = a.field
    minors = a.minors()
    row = [fd._coerce_int(0)] * a.n
    for j, p in enumerate(key):
        d = minors[key[:j] + key[j + 1:]]
        row[p - 1] = d if j % 2 == 0 else fd._neg(d)
    return row


def _arrangements():
    for name in ("crapo", "f4", "f5", "dodecahedral", "octahedral", "polygon-7",
                 "witness-3^2", "witness-1^1,5^1"):
        yield build_gallery(name)
    for fd in FIELDS:
        rng = random.Random(f"projection-rows-{fd!r}")
        for n, k in ((4, 1), (6, 2), (7, 3), (6, 4)):
            yield _random_generic(rng, fd, n, k)


def test_sparse_row_expands_to_the_dense_row_on_every_key():
    keys = 0
    for a in _arrangements():
        for key in combinations(a.indices, a.k + 1):
            [pairs] = _read_minors(a, [_signed_minors(key)])
            assert [p for p, _ in pairs] == list(key)
            dense = oracle_discriminantal_row(a, key)
            expanded = [a.field._coerce_int(0)] * a.n
            for p, x in pairs:
                expanded[p - 1] = x
            assert expanded == dense
            assert [e.payload for e in discriminantal_normal(a, key)] == dense
            assert _payload_rows(a, [_projected(key, a.k)]) == [dense[a.k:]]
            keys += 1
    assert keys > 400


@pytest.mark.parametrize("fd", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n, k", [(5, 1), (5, 2), (6, 2), (6, 3), (6, 4)])
def test_every_flat_has_the_same_rank_under_the_projection(fd, n, k):
    a = _random_generic(random.Random(f"projection-{fd!r}-{n}-{k}"), fd, n, k)
    normals = discriminantal_normals(a)
    flats = intersection_lattice(a).flats()
    for f in flats:
        full = [normals[L] for L in f.support]
        assert oracle_rank(full) == oracle_rank([v[k:] for v in full]) == f.rank
    # and a set of normals that is no flat: one hyperplane past each flat
    # of rank 1
    for f in intersection_lattice(a, max_rank=1).flats(1):
        L = next(L for L in normals if L not in f.support)
        rows = [normals[M] for M in f.support + (L,)]
        assert oracle_rank(rows) == oracle_rank([v[k:] for v in rows])
    assert len(flats) > n - k + 1
