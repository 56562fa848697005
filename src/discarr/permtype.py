"""The edge labels of K_6 and the S6 type of a six-element arrangement.

Each edge of the labeled complete graph K_6 carries one perfect matching
of 1..6, read off Sylvester's synthematic totals: the six totals are
labelled 1..6, and a matching labels the edge joining the two totals
that contain it.  This is the exceptional automorphism phi of S_6, which
sends the transposition (i j) to the involution whose orbits are the
matching on edge (i, j).  Detected coincidences of a 6-line (or 6-plane)
arrangement select a set of edges; the connected components of that edge
set give the arrangement its type nu, and m(nu) = sum a_j C(d_j, 2)
counts the induced edges.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations
from math import comb

from . import detectors
from .exactfield import _Value


class ClosureViolation(RuntimeError):
    """A detected edge set is not induced by any vertex partition."""


class NotAMatchingLabel(ValueError):
    """The given matching labels no edge of K_6."""


# The 15 perfect matchings of 1..6 fall into six synthematic totals,
# five matchings sharing no pair, and each matching lies in two of them.
# Labelling the totals sends a matching to the edge joining the labels of
# its two totals, an outer automorphism of S_6 (Sylvester).  The totals
# are labelled in the order combinations lists them, the canonical sorted
# one, and this labelling is the paper's phi.
_TOTAL_LABELS = (4, 6, 2, 3, 5, 1)


@cache
def _edge_table() -> dict[frozenset, tuple[int, int]]:
    matchings = [frozenset(frozenset((i + 1, j + 1)) for i, j in m)
                 for m in detectors._matching_pattern(6)]
    totals = [t for t in combinations(matchings, 5) if len(frozenset().union(*t)) == 15]
    return {m: tuple(sorted(label for label, t in zip(_TOTAL_LABELS, totals) if m in t))
            for m in matchings}


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
        given = [frozenset(b) for b in blocks]
        if not all(given) or sorted(x for b in given for x in b) != [1, 2, 3, 4, 5, 6]:
            raise ValueError(f"blocks must partition 1..6, got {sorted(map(sorted, given))}")
        self.blocks = frozenset(given)

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


@lru_cache(maxsize=1024)
def _key_edges(key: int) -> tuple:
    """(matchings, mask) of a detectors._pairing_keys key on the indices
    1..6: its matchings as frozensets and the bits 1 << 6i + j of their
    edges (i, j)."""
    matchings = detectors._key_matchings(key)[1]
    return matchings, sum(1 << 6 * i + j for i, j in map(matching_to_edge, matchings))


def arrangement_type(a) -> TypeReport:
    """Classify a 6-hyperplane arrangement by its detected edge set.

    The edges are the matchings whose six-element relation
    (detectors._pairing_pattern) holds: at k = 2 those a projective
    involution of the six lines realizes, at k = 3 the good 6-partitions.
    They must be exactly the edges induced by their connected-component
    partition; anything else raises ClosureViolation.  At k = 3 the
    matchings and edges are read off the one key of the six planes
    (detectors._pairing_keys, _key_edges).  At k = 2 the keys would
    serve as well (the relation is an iff), but they come from
    find_involutions, which also builds each involution's map: the
    classify-sweep benchmark requires its spans (perfbench/workloads.py,
    EXPECTED_SPANS), so the maps stay until that workload changes.
    Partition and type are looked up by edge set (_edge_type), so each
    distinct set is classified once.
    """
    if a.n != 6:
        raise ValueError("type classification needs exactly 6 hyperplanes")
    if a.k == 2:
        matchings, factor = tuple(m for m, _ in detectors.find_involutions(a)), 2
        mask = sum({1 << 6 * i + j for i, j in map(matching_to_edge, matchings)})
    elif a.k == 3:
        keys, factor = detectors._pairing_keys(a), 1
        matchings, mask = _key_edges(keys[0]) if keys else ((), 0)
    else:
        raise ValueError(f"no classifier for k={a.k}")
    edges, part, nu = _edge_type(mask)
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
