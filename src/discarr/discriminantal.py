"""Discriminantal arrangements B(n,k,A) and their intersection lattices.

Each (k+1)-subset L of hyperplane indices gives one hyperplane D_L in
the n-dimensional space of translation vectors: D_L is the locus of
translations making the L-indexed hyperplanes concurrent, and its
normal is supported on L with signed k x k minors of the base normals
as coordinates.  B(n,k,A) is fixed by A alone, so no object stands for
it: every function here takes A, and every row is read off A's table
of minors by the sign rule of arrangement._signed_minors, in full by
arrangement._read_minors and as the dense rows on coordinates k+1..n
that the lattice reduces by arrangement._payload_rows, the reader
translate_solver uses too.  For a generic base
the whole family is central of rank n - k (Manin-Schechtman), so no
rank is checked.

The geometry lives on coordinates k+1..n.  Let pi drop coordinates
1..k.  Every normal is orthogonal to the k coordinate columns of A
(Laplace expansion), so the normals span a subspace W of the
orthogonal complement of those columns, which has dimension n - k.
For q > k, pi sends the normal of D_{1..k,q} to +-[1..k] e_q, where
[1..k] != 0 by genericity; these n - k images are independent, so
dim W = n - k and pi is injective on W.  Hence pi preserves every
linear relation among the normals: every set of normals has the same
rank under pi as in full, the same normals lie in its span, and the
lattice built from the projected rows (rows of length n - k with at
most k + 1 nonzero entries) has exactly the flats of the full one.
Dually, the rigid translations t_p = alpha_p . x are the common zeros
of W, and each class of translations modulo them has one member with
t_1..t_k = 0, on which translate_solver searches.

Lattice flats are stored by closed support: the set of ALL subsets L
whose normal lies in the flat's normal span.  Each level is built from
the one before by reducing the hyperplanes modulo every flat's span,
the payload echelon of linalg.  The Bayer-Brandt description of the
very generic lattice flags the flats whose (support, rank) pair a very
generic arrangement cannot produce.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .arrangement import (
    Arrangement,
    _payload_rows,
    _projected,
    _read_minors,
    _require_generic,
    _signed_minors,
)
from .exactfield import FieldElement, _Value
from .linalg import Vector, _Span


class BadSubsetSize(ValueError):
    """An index subset does not have exactly k+1 distinct entries in range."""


class TooLarge(ValueError):
    """The arrangement exceeds the supported lattice-computation size."""


# intersection_lattice refuses a discriminantal arrangement with more
# hyperplanes than this
MAX_HYPERPLANES = 64


def _as_subset(a: Arrangement, L) -> tuple[int, ...]:
    key = tuple(sorted(L))
    if len(key) != a.k + 1 or len(set(key)) != len(key):
        raise BadSubsetSize(f"need {a.k + 1} distinct indices, got {key}")
    if key[0] < 1 or key[-1] > a.n:
        raise BadSubsetSize(f"indices out of range 1..{a.n}: {key}")
    return key


def discriminantal_normal(a: Arrangement, L) -> Vector:
    """Normal of D_L, L = (p_1 < ... < p_{k+1}): coordinate p_j, j
    counted from 1, carries (-1)^(j+1) times the minor of the base
    normals with p_j deleted; all other coordinates are zero."""
    normal = [a.field.zero()] * a.n
    for p, x in _read_minors(a, [_signed_minors(_as_subset(a, L))])[0]:
        normal[p - 1] = FieldElement(a.field, x)
    return tuple(normal)


def _require_lattice_size(n: int, k: int) -> None:
    """TooLarge when B(n,k) has more hyperplanes than intersection_lattice
    takes; needs nothing built."""
    count = comb(n, k + 1)
    if count > MAX_HYPERPLANES:
        raise TooLarge(f"{count} hyperplanes exceeds the {MAX_HYPERPLANES} cap")


class Flat(_Value):
    """A lattice element: closed support plus the rank of its normal span."""

    __slots__ = ("support", "rank")
    _fields = __slots__

    def __init__(self, support: tuple[tuple[int, ...], ...], rank: int):
        self.support = support
        self.rank = rank

    def __len__(self) -> int:
        return len(self.support)


class Lattice:
    """Flats of B(n,k,A) grouped by rank."""

    __slots__ = ("n", "k", "flats_by_rank")

    def __init__(self, n: int, k: int, flats_by_rank: dict):
        self.n = n
        self.k = k
        self.flats_by_rank = flats_by_rank

    def flats(self, rank: int | None = None):
        if rank is not None:
            return list(self.flats_by_rank.get(rank, ()))
        return [f for r in sorted(self.flats_by_rank)
                for f in self.flats_by_rank[r]]

    def counts(self) -> dict[int, int]:
        return {r: len(fl) for r, fl in sorted(self.flats_by_rank.items())}

    def max_rank(self) -> int:
        return max(self.flats_by_rank)

    def report(self, nvg=()) -> dict:
        flagged = set(nvg)
        ranks = []
        for r in sorted(self.flats_by_rank):
            flats = [{"support": [list(L) for L in f.support],
                      "rank": f.rank,
                      "nvg": f in flagged}
                     for f in self.flats_by_rank[r]]
            ranks.append({"rank": r, "count": len(flats), "flats": flats})
        return {"n": self.n, "k": self.k, "ranks": ranks}


def intersection_lattice(a: Arrangement, max_rank: int | None = None) -> Lattice:
    """All flats of B(n,k,a) of rank <= max_rank (default n-k), level by
    level; NotGeneric unless a is generic, then TooLarge past the cap.

    The covers of a rank-r flat F come from one reduction of every
    hyperplane outside F modulo F's echelon: two of them span the same
    cover iff their reductions are proportional, so each projective class
    is one rank-(r+1) flat with support F plus the class, and its echelon
    is F's plus the class key.  Level 1 is the covers of the rank-0 flat,
    whose echelon is empty.  The top level is the single central flat.
    Every row is the normal on coordinates k+1..n, of length n - k
    (the module docstring proves the flats are the same).
    """
    _require_generic(a)
    _require_lattice_size(a.n, a.k)
    top = a.n - a.k
    if max_rank is None:
        max_rank = top
    max_rank = max(0, min(max_rank, top))
    keys = list(combinations(a.indices, a.k + 1))
    empty = _Span.over(a.field)
    plans = [_projected(L, a.k) for L in keys]
    rows = {L: empty.row(row) for L, row in zip(keys, _payload_rows(a, plans))}

    levels: dict[int, tuple[Flat, ...]] = {0: (Flat(support=(), rank=0),)}
    spans: dict[tuple, _Span] = {(): empty}
    for r in range(1, max_rank + 1):
        if r == top:
            levels[r] = (Flat(support=tuple(keys), rank=top),)
            break
        found: dict[tuple, _Span] = {}
        for f in levels[r - 1]:
            span = spans[f.support]
            have = set(f.support)
            classes: dict[tuple, list] = {}
            for L in keys:
                if L not in have:
                    classes.setdefault(span.reduced_key(rows[L]), []).append(L)
            for key, members in classes.items():
                support = tuple(sorted(f.support + tuple(members)))
                if support not in found:
                    found[support] = span.extended(key)
        levels[r] = tuple(Flat(support=s, rank=r) for s in sorted(found))
        spans = found
    return Lattice(a.n, a.k, levels)


def is_very_generic(flat: Flat, k: int) -> bool:
    """Whether a flat's (support, rank) pair occurs in the lattice of a
    very generic B(n,k): the Bayer-Brandt description, proved by
    Athanasiadis.

    Those flats are the collections {S_1..S_m} of index sets with
    |S_i| > k and |U_I S_i| > k + sum_I (|S_i| - k) for every
    subcollection I of two or more sets; the support is every
    (k+1)-subset of some S_i and the rank is sum (|S_i| - k).

    Each support member not yet covered is grown into a maximal index
    set whose (k+1)-subsets all lie in the support, so the blocks'
    (k+1)-subsets are exactly the support and only the rank and the
    inequality are left to check.  For a very generic flat the blocks
    are the S_i: by the inequality for two sets the S_i share fewer than
    k indices, so the (k+1)-subsets of a maximal set, linked through
    shared k-subsets, all lie in one S_i.
    """
    have = set(flat.support)
    indices = sorted({p for L in have for p in L})
    blocks: list[frozenset] = []
    for L in flat.support:
        if any(block.issuperset(L) for block in blocks):
            continue
        block = list(L)
        for x in indices:
            if x not in block and all(tuple(sorted(K + (x,))) in have
                                      for K in combinations(block, k)):
                block.append(x)
        blocks.append(frozenset(block))
    # checked first: a passing rank bounds the blocks, and so the
    # subcollections below
    if flat.rank != sum(len(b) - k for b in blocks):
        return False
    return all(len(frozenset().union(*sub)) > k + sum(len(b) - k for b in sub)
               for m in range(2, len(blocks) + 1)
               for sub in combinations(blocks, m))


def nvg_flats(lattice: Lattice) -> list[Flat]:
    """Flats of the lattice that a very generic arrangement of the same
    (n, k) does not have, by rank and then support."""
    out = [f for f in lattice.flats() if not is_very_generic(f, lattice.k)]
    out.sort(key=lambda f: (f.rank, f.support))
    return out
