"""Permutations of [6], the exceptional automorphism, and type labels.

The labeled complete graph places one fixed-point-free involution on each
edge of K_6: edge (i, j) carries the image of the transposition (i j)
under the exceptional automorphism phi of S_6.  Detected coincidences of
a 6-line (or 6-plane) arrangement select a set of edges; the connected
components of that edge set give the arrangement its type nu, and
m(nu) = sum a_j C(d_j, 2) counts the induced edges.

Composition order: (p * q)(x) = p(q(x)), i.e. the right factor acts
first.  All tests and tables assume this convention.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import comb

from . import detectors
from .exactfield import _Value


class ClosureViolation(RuntimeError):
    """A detected edge set is not induced by any vertex partition."""


class NotAMatchingLabel(ValueError):
    """The given matching is not the orbit set of any edge label."""


class Perm(_Value):
    """A permutation of {1,...,6}; images[i-1] is the image of i."""

    __slots__ = ("images",)
    _fields = __slots__

    def __init__(self, images):
        im = tuple(images)
        if sorted(im) != [1, 2, 3, 4, 5, 6]:
            raise ValueError(f"not a permutation of 1..6: {im}")
        self.images = im

    @classmethod
    def identity(cls) -> "Perm":
        return cls((1, 2, 3, 4, 5, 6))

    @classmethod
    def from_cycles(cls, cycles) -> "Perm":
        im = list(range(1, 7))
        for cyc in cycles:
            cyc = tuple(cyc)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                im[a - 1] = b
        return cls(im)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(tuple(self.images[other.images[i] - 1] for i in range(6)))

    def orbits(self) -> frozenset[frozenset[int]]:
        seen = set()
        parts = []
        for start in range(1, 7):
            if start in seen:
                continue
            orb = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                orb.append(x)
                seen.add(x)
                x = self(x)
            parts.append(frozenset(orb))
        return frozenset(parts)

    def __repr__(self):
        parts = []
        for orb in sorted(self.orbits(), key=min):
            if len(orb) == 1:
                continue
            cyc = [min(orb)]
            while True:
                nxt = self(cyc[-1])
                if nxt == cyc[0]:
                    break
                cyc.append(nxt)
            parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "()"


def matching_from_perm(p: Perm) -> frozenset:
    orbs = p.orbits()
    if any(len(o) != 2 for o in orbs):
        raise NotAMatchingLabel(f"{p!r} is not a fixed-point-free involution")
    return frozenset(orbs)


_GENERATORS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {
    (1, 2): ((1, 5), (2, 6), (3, 4)),
    (2, 3): ((1, 2), (3, 5), (4, 6)),
    (3, 4): ((1, 5), (2, 4), (3, 6)),
    (4, 5): ((1, 4), (2, 6), (3, 5)),
    (5, 6): ((1, 5), (2, 3), (4, 6)),
}


@cache
def _phi_table() -> dict[Perm, Perm]:
    gens = [(Perm.from_cycles([pair]), Perm.from_cycles(list(img)))
            for pair, img in _GENERATORS.items()]
    table = {Perm.identity(): Perm.identity()}
    frontier = [Perm.identity()]
    while frontier:
        nxt = []
        for g in frontier:
            fg = table[g]
            for s, fs in gens:
                h = g * s
                if h not in table:
                    table[h] = fg * fs
                    nxt.append(h)
        frontier = nxt
    return table


def phi(p: Perm) -> Perm:
    return _phi_table()[p]


def edge_label(i: int, j: int) -> Perm:
    if i == j or not (1 <= i <= 6 and 1 <= j <= 6):
        raise ValueError(f"not an edge of K_6: ({i}, {j})")
    return phi(Perm.from_cycles([(i, j)]))


@cache
def _edge_table() -> dict[frozenset, tuple[int, int]]:
    table = {}
    for i, j in combinations(range(1, 7), 2):
        table[matching_from_perm(edge_label(i, j))] = (i, j)
    if len(table) != 15:
        raise RuntimeError("edge labels are not 15 distinct matchings")
    return table


def matching_to_edge(m: frozenset) -> tuple[int, int]:
    """The edge of K_6 labelled by m; a frozenset of frozensets, the
    form arrangement_type hands over, is looked up as given."""
    table = _edge_table()
    if isinstance(m, frozenset) and m in table:
        return table[m]
    key = frozenset(frozenset(p) for p in m)
    if key not in table:
        raise NotAMatchingLabel(f"{sorted(map(sorted, m))} labels no edge")
    return table[key]


class VertexPartition(_Value):
    """A partition of the six vertices of the labeled K_6."""

    __slots__ = ("blocks",)
    _fields = __slots__

    def __init__(self, blocks):
        bl = frozenset(frozenset(b) for b in blocks)
        flat = sorted(x for b in bl for x in b)
        if flat != [1, 2, 3, 4, 5, 6]:
            raise ValueError(f"blocks must partition 1..6, got {sorted(map(sorted, bl))}")
        self.blocks = bl

    def type(self) -> "PartitionType":
        return PartitionType(sorted(len(b) for b in self.blocks))

    def sorted_blocks(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(b)) for b in self.blocks)

    def __repr__(self):
        body = "|".join("".join(map(str, b)) for b in self.sorted_blocks())
        return f"VertexPartition({body})"


class PartitionType(_Value):
    """A partition of the integer 6, written d1^a1 d2^a2 ... with d ascending."""

    __slots__ = ("sizes",)
    _fields = __slots__

    def __init__(self, sizes):
        sz = tuple(sorted(int(s) for s in sizes))
        if sum(sz) != 6 or any(s < 1 for s in sz):
            raise ValueError(f"sizes must partition 6, got {sz}")
        self.sizes = sz

    @classmethod
    def from_string(cls, s: str) -> "PartitionType":
        sizes = []
        for part in s.replace(",", " ").split():
            d, caret, a = part.partition("^")
            d, a = int(d), int(a) if caret else 1
            if not (1 <= d <= 6 and 1 <= a <= 6):
                raise ValueError(f"part {part!r} is not d^a with d and a in 1..6")
            sizes.extend([d] * a)
        return cls(sizes)

    def label(self) -> str:
        out = []
        for d in sorted(set(self.sizes)):
            out.append(f"{d}^{self.sizes.count(d)}")
        return " ".join(out)

    def cli_token(self) -> str:
        return self.label().replace(" ", ",")

    def m(self) -> int:
        return sum(comb(d, 2) for d in self.sizes)

    def __repr__(self):
        return f"PartitionType({self.label()})"


# the eleven types in the order every table of this library uses
TYPE_ORDER: tuple[PartitionType, ...] = tuple(
    PartitionType.from_string(s)
    for s in (
        "1^6", "1^4 2^1", "1^3 3^1", "1^2 2^2", "1^2 4^1", "1^1 2^1 3^1",
        "2^3", "1^1 5^1", "2^1 4^1", "3^2", "6^1",
    )
)


def induced_edges(v: VertexPartition) -> frozenset[tuple[int, int]]:
    """Edges of K_6 with both endpoints inside one block."""
    return frozenset(e for b in v.blocks for e in combinations(sorted(b), 2))


def partition_from_edges(edges) -> VertexPartition:
    """The connected components of edges on the vertices 1..6: each
    vertex maps to its component, and an edge merges two of them."""
    component = {x: frozenset((x,)) for x in range(1, 7)}
    for i, j in edges:
        merged = component[i] | component[j]
        component.update(dict.fromkeys(merged, merged))
    return VertexPartition(set(component.values()))


class TypeReport(_Value):
    """The S6 type of a six-element arrangement with the matchings and
    edges it was read off, m(A) and whether m(A) fits the type."""

    __slots__ = ("type", "partition", "matchings", "edges", "m_a",
                 "m_formula_consistent")
    _fields = __slots__

    def __init__(self, type: PartitionType, partition: VertexPartition,
                 matchings: tuple[frozenset, ...], edges: frozenset[tuple[int, int]],
                 m_a: int, m_formula_consistent: bool):
        self.type = type
        self.partition = partition
        self.matchings = matchings
        self.edges = edges
        self.m_a = m_a
        self.m_formula_consistent = m_formula_consistent


@cache
def _edge_type(mask: int) -> tuple:
    """(edges, partition, type) of the edge set whose edge (i, j) sets
    bit 6i + j of mask, once per set: of its 2^15 possible values only
    the 203 component-closed ones return; any other raises
    ClosureViolation."""
    edges = frozenset((i, j) for i, j in combinations(range(1, 7), 2) if mask >> 6 * i + j & 1)
    part = partition_from_edges(edges)
    closed = induced_edges(part)
    if closed != edges:
        missing = sorted(closed - edges)
        raise ClosureViolation(f"detected edges are not component-closed; missing {missing}")
    return edges, part, part.type()


def arrangement_type(a) -> TypeReport:
    """Classify a 6-hyperplane arrangement by its detected edge set.

    k = 2 collects the matchings realized by projective involutions of
    the six lines; k = 3 collects the matchings whose three cross
    products are linearly dependent.  The detected edges must be exactly
    the edges induced by their connected-component partition; anything
    else raises ClosureViolation.  Partition and type are looked up by
    edge set (_edge_type), so each distinct set is classified once.
    """
    if a.n != 6:
        raise ValueError("type classification needs exactly 6 hyperplanes")
    if a.k == 2:
        matchings, factor = tuple(m for m, _ in detectors.find_involutions(a)), 2
    elif a.k == 3:
        matchings, factor = tuple(g.as_frozenset() for g in detectors.good6_points(a)), 1
    else:
        raise ValueError(f"no classifier for k={a.k}")
    bits = {1 << 6 * i + j for i, j in map(matching_to_edge, matchings)}
    edges, part, nu = _edge_type(sum(bits))
    # m(A) = factor * |matchings| fits the type when factor * nu.m() does
    return TypeReport(nu, part, matchings, edges, factor * len(matchings),
                      len(matchings) == nu.m())


def upper_bound_check(reports) -> bool:
    """Every k=2 result obeys m(A) <= 20 and never realizes type 6^1."""
    six = PartitionType.from_string("6^1")
    for rep in reports:
        if rep.m_a > 20:
            return False
        if rep.type == six:
            return False
    return True
