"""Discriminantal arrangements B(n,k,A) and their intersection lattices.

Each (k+1)-subset L of hyperplane indices gives one hyperplane D_L in
the n-dimensional space of translation vectors: D_L is the locus of
translations making the L-indexed hyperplanes concurrent, and its
normal is supported on L with signed k x k minors of the base normals
as coordinates.  The whole family is central of rank n - k.

Lattice flats are stored by closed support: the set of ALL subsets L
whose normal lies in the flat's normal span.  Each level is built from
the one before by reducing the hyperplanes modulo every flat's span,
the payload echelon of linalg.  The Bayer-Brandt description of the
very generic lattice flags the flats whose (support, rank) pair a very
generic arrangement cannot produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrangement import Arrangement, NotGeneric, is_generic
from .exactfield import FieldDescriptor, FieldElement, descriptor_to_json
from .linalg import Vector, _det_payloads, _Span


class BadSubsetSize(ValueError):
    """An index subset does not have exactly k+1 distinct entries in range."""


class TooLarge(ValueError):
    """The arrangement exceeds the supported lattice-computation size."""


def _as_subset(a: Arrangement, L) -> tuple[int, ...]:
    key = tuple(sorted(L))
    if len(key) != a.k + 1 or len(set(key)) != len(key):
        raise BadSubsetSize(f"need {a.k + 1} distinct indices, got {key}")
    if key[0] < 1 or key[-1] > a.n:
        raise BadSubsetSize(f"indices out of range 1..{a.n}: {key}")
    return key


def discriminantal_normal(a: Arrangement, L) -> Vector:
    """Normal of D_L: coordinate p_j carries (-1)^(j+1) times the minor
    of the base normals with column p_j deleted; all other coordinates
    are zero."""
    key = _as_subset(a, L)
    normals = {p: [e.payload for e in a.normal(p)] for p in key}
    row = _normal_payloads(a.field, normals, key, a.n, {})
    return tuple(FieldElement(a.field, x) for x in row)


def _normal_payloads(fd: FieldDescriptor, normals, key, n: int, minors: dict) -> list:
    """Payload row of discriminantal_normal for the sorted subset key;
    normals[p] is the payload row of base normal p, and minors keeps each
    k x k minor by its index tuple for the calls that share the dict."""
    row = [fd._coerce_int(0)] * n
    for j, p in enumerate(key):
        sub = tuple(q for q in key if q != p)
        d = minors.get(sub)
        if d is None:
            # the minor's transpose: the same determinant
            d = minors[sub] = _det_payloads(fd, [normals[q] for q in sub])
        row[p - 1] = d if j % 2 == 0 else fd._neg(d)
    return row


def ordered_normal(a: Arrangement, seq) -> Vector:
    """discriminantal_normal of sorted(seq), signed by the sorting parity."""
    seq = tuple(seq)
    base = discriminantal_normal(a, seq)
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    if inversions % 2 == 0:
        return base
    return tuple(-x for x in base)


class DiscriminantalArrangement:
    """All C(n, k+1) hyperplanes D_L of B(n,k,A), keyed by sorted subset."""

    __slots__ = ("base", "hyperplanes")

    def __init__(self, base: Arrangement, hyperplanes: dict):
        self.base = base
        self.hyperplanes = hyperplanes

    @property
    def field(self) -> FieldDescriptor:
        return self.base.field

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    def subsets(self) -> list[tuple[int, ...]]:
        return sorted(self.hyperplanes)

    def normal(self, L) -> Vector:
        return self.hyperplanes[_as_subset(self.base, L)]

    def __len__(self) -> int:
        return len(self.hyperplanes)

    def __repr__(self):
        return f"DiscriminantalArrangement(n={self.n}, k={self.k}, {len(self)} hyperplanes)"


def build_discriminantal(a: Arrangement) -> DiscriminantalArrangement:
    if not is_generic(a):
        raise NotGeneric("base arrangement has a dependent k-subset of normals")
    fd = a.field
    normals = [None] + [[e.payload for e in v] for v in a.normals]
    hyperplanes, minors = {}, {}
    span = _Span.over(fd)
    for L in combinations(a.indices, a.k + 1):
        row = _normal_payloads(fd, normals, L, a.n, minors)
        hyperplanes[L] = tuple(FieldElement(fd, x) for x in row)
        span.insert(span.row(row))
    if span.rank != a.n - a.k:
        raise NotGeneric(
            f"normal family has rank {span.rank}, expected {a.n - a.k}")
    return DiscriminantalArrangement(a, hyperplanes)


@dataclass(frozen=True)
class Flat:
    """A lattice element: closed support plus the rank of its normal span."""

    support: tuple[tuple[int, ...], ...]
    rank: int

    def key(self) -> tuple[frozenset, int]:
        return (frozenset(self.support), self.rank)

    def __len__(self) -> int:
        return len(self.support)


class Lattice:
    """Flats of B(n,k,A) grouped by rank."""

    __slots__ = ("n", "k", "field", "flats_by_rank")

    def __init__(self, d: DiscriminantalArrangement, flats_by_rank: dict):
        self.n = d.n
        self.k = d.k
        self.field = d.field
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
        flagged = {f.key() for f in nvg}
        ranks = []
        for r in sorted(self.flats_by_rank):
            flats = [{"support": [list(L) for L in f.support],
                      "rank": f.rank,
                      "nvg": f.key() in flagged}
                     for f in self.flats_by_rank[r]]
            ranks.append({"rank": r, "count": len(flats), "flats": flats})
        return {"n": self.n, "k": self.k,
                "field": descriptor_to_json(self.field), "ranks": ranks}


def intersection_lattice(d: DiscriminantalArrangement,
                         max_rank: int | None = None) -> Lattice:
    """All flats of rank <= max_rank (default n-k), level by level.

    The covers of a rank-r flat F come from one reduction of every
    hyperplane outside F modulo F's echelon: two of them span the same
    cover iff their reductions are proportional, so each projective class
    is one rank-(r+1) flat with support F plus the class, and its echelon
    is F's plus the class key.  Level 1 is the covers of the rank-0 flat,
    whose echelon is empty.  The top level is the single central flat.
    """
    if len(d.hyperplanes) > 64:
        raise TooLarge(f"{len(d.hyperplanes)} hyperplanes exceeds the 64 cap")
    top = d.n - d.k
    if max_rank is None:
        max_rank = top
    max_rank = max(0, min(max_rank, top))
    keys = sorted(d.hyperplanes)
    empty = _Span.over(d.field)
    rows = {L: empty.row([x.payload for x in d.hyperplanes[L]]) for L in keys}

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
    return Lattice(d, levels)


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
