"""Coincidence detectors for line and plane arrangements.

At k = 2: six lines that one projective involution pairs (equivalently
a 4-set of concurrent triples), and seven lines whose five triple-points
align (equal cross ratios about one center).  At k = 3: six planes whose
three pair intersection lines share a point at infinity.  The
six-element relation is stated once, one 15-row pattern per k over the
matchings of six positions (_pairing_pattern): _pairings tests every row
on every 6-subset, and _pairing_value evaluates one row, with no
genericity gate (good6_condition).  Closure scanners verify the laws the
detected patterns obey; the good-partition one reads each conjugate off
one 15 x 15 table of matchings (_conjugation_table).

Every detector is pure, compares products of the arrangement's minors
(Arrangement.minors), returns canonical, deduplicated families and
refuses a non-generic arrangement through arrangement._require_generic.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, permutations

from .arrangement import Arrangement, _require_generic, projective_map_through
from .exactfield import FieldElement, _Value


class BadFourSet(ValueError):
    """Four triples that do not pairwise intersect in single points."""


class WrongDimension(ValueError):
    """Wrong ambient dimension for the detector."""


class TooFewHyperplanes(ValueError):
    """The sweep needs more hyperplanes than the arrangement has."""


@cache
def _matching_pattern(n: int) -> tuple:
    """The perfect matchings of positions 0..n-1 (none for odd n), each
    pairing 0 first, with the matchings of the positions left after each
    partner in turn."""
    if n % 2:
        return ()
    pattern = ((),)
    for size in range(2, n + 1, 2):
        grown = []
        for partner in range(1, size):
            rest = [x for x in range(1, size) if x != partner]
            grown += [((0, partner),) + tuple((rest[i], rest[j]) for i, j in m)
                      for m in pattern]
        pattern = tuple(grown)
    return pattern


class FourSet(_Value):
    """Four 3-subsets, pairwise meeting in one index, covering six
    indices twice each."""

    __slots__ = ("sets",)
    _fields = __slots__

    def __init__(self, sets):
        quads = sorted(tuple(sorted(s)) for s in sets)
        if len(quads) != 4 or any(len(s) != 3 or len(set(s)) != 3 for s in quads):
            raise BadFourSet(f"need four 3-subsets, got {quads}")
        # on six indices, pairwise single meets force each index into two
        # triples: the counts r sum to 12 and sum(r^2) = 12 + 2 * C(4, 2) = 24
        if len({p for s in quads for p in s}) != 6:
            raise BadFourSet(f"indices must cover a 6-set twice each: {quads}")
        for s, t in combinations(quads, 2):
            if len(set(s) & set(t)) != 1:
                raise BadFourSet(f"triples {s} and {t} do not meet in one index")
        self.sets = tuple(quads)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({p for s in self.sets for p in s}))

    def labels(self) -> tuple[int, ...]:
        """(p1..p6) with L1={p1,p2,p3}, L2={p1,p5,p6}, L3={p2,p4,p6},
        L4={p3,p4,p5} for the lexicographically sorted triples."""
        l1, l2, l3, l4 = (set(s) for s in self.sets)
        take = lambda s: next(iter(s))
        return (take(l1 & l2), take(l1 & l3), take(l1 & l4),
                take(l3 & l4), take(l2 & l4), take(l2 & l3))

    def matching(self) -> frozenset[frozenset[int]]:
        """Pair each index with the intersection of the two triples
        avoiding it."""
        p = self.labels()
        return frozenset({frozenset({p[0], p[3]}), frozenset({p[1], p[4]}),
                          frozenset({p[2], p[5]})})

    def complement(self) -> "FourSet":
        """The four complementary triples, again a 4-set: two triples A
        and B meet in one index, so |A u B| = 5 and their complements in
        the six indices meet in 6 - 5 = 1."""
        sup = {p for s in self.sets for p in s}
        return FourSet._from_key(tuple(sorted(tuple(sorted(sup.difference(s)))
                                              for s in self.sets)))

    @staticmethod
    def of_matching(pairs) -> tuple["FourSet", "FourSet"]:
        """The two complementary 4-sets whose matching() is pairs, three
        disjoint pairs of indices in either order."""
        pairs = tuple(tuple(pair) for pair in pairs)
        if (len(pairs) != 3 or any(len(pair) != 2 for pair in pairs)
                or len({p for pair in pairs for p in pair}) != 6):
            raise BadFourSet(f"need three disjoint pairs, got {pairs}")
        four, other = _matching_foursets(pairs)
        return FourSet._from_key(four), FourSet._from_key(other)

    def __repr__(self):
        body = ", ".join("{" + "".join(map(str, s)) + "}" for s in self.sets)
        return f"FourSet({body})"


def _matching_foursets(pairs) -> tuple[tuple, tuple]:
    """The canonical sets of the two complementary 4-sets of three
    disjoint pairs (a1, b1), (a2, b2), (a3, b3): each triple takes one
    index of every pair, and two of them share exactly the one pair
    where they take the same index.  The first 4-set takes an even
    number of b's, the second an odd number."""
    (a1, b1), (a2, b2), (a3, b3) = pairs
    return tuple(tuple(sorted(tuple(sorted(t)) for t in triples)) for triples in (
        ((a1, a2, a3), (a1, b2, b3), (b1, a2, b3), (b1, b2, a3)),
        ((b1, b2, b3), (b1, a2, a3), (a1, b2, a3), (a1, a2, b3))))


def _check_k(a: Arrangement, k: int) -> None:
    """The one dimension gate: WrongDimension unless a lives in K^k."""
    if a.k != k:
        raise WrongDimension(f"detector needs k={k}, got k={a.k}")


@cache
def _conjugation_table() -> tuple:
    """table[i][j] over the rows of _matching_pattern(6): when matchings
    i and j share no pair (8 partners j for each i, 120 entries in all),
    the row of j's involution conjugated by i's, s_i s_j s_i, which
    pairs s_i(x) with s_i(y) for each pair (x, y) of j; else None."""
    pattern = _matching_pattern(6)
    row = {pairs: c for c, pairs in enumerate(pattern)}
    swaps = [{x: y for p in pairs for x, y in (p, p[::-1])} for pairs in pattern]
    return tuple(tuple(row[tuple(sorted(tuple(sorted((s[x], s[y]))) for x, y in mj))]
                       if set(mi).isdisjoint(mj) else None for mj in pattern)
                 for mi, s in zip(pattern, swaps))


@cache
def _pairing_pattern(k: int) -> tuple:
    """The six-element relation on a sorted 6-subset at k = 2 or 3, as
    (sides, rows, lefts), one row per matching ((x, x2), (y, y2), (z, z2))
    of positions 0..5 (_matching_pattern(6)): on signed minors,
    |x y2||y z2||z x2| = |x z2||y x2||z y2| at k = 2 and [x x2 z][y y2 z2]
    = [x x2 z2][y y2 z] at k = 3.  A side is the sorted positions, in
    combinations(range(6), k) order, of the minors one product multiplies:
    10 distinct ones at k = 2, 9 at k = 3, sorted.  A row is (pairs, left,
    right, odd), left and right indexing sides; odd is set when the two
    sides' orderings differ in parity, lefts[c] when row c's left one is odd."""
    position = {key: i for i, key in enumerate(combinations(range(6), k))}
    rows, lefts = [], []
    for pairs in _matching_pattern(6):
        (x, x2), (y, y2), (z, z2) = pairs
        if k == 2:
            both = (((x, y2), (y, z2), (z, x2)), ((x, z2), (y, x2), (z, y2)))
        else:
            both = (((x, x2, z), (y, y2, z2)), ((x, x2, z2), (y, y2, z)))
        left, right = (tuple(sorted(position[tuple(sorted(o))] for o in side)) for side in both)
        lo, ro = (sum(u > v for o in side for u, v in combinations(o, 2)) % 2 for side in both)
        rows.append((pairs, left, right, lo ^ ro))
        lefts.append(lo)
    sides = sorted({side for row in rows for side in row[1:3]})
    return tuple(sides), tuple((pairs, sides.index(left), sides.index(right), odd)
                               for pairs, left, right, odd in rows), tuple(lefts)


def _pairing_value(a: Arrangement, pairs):
    """Left minus right on the _pairing_pattern(a.k) row of the canonical
    matching pairs (indices in 1..n) as a payload, one product per side
    and no genericity gate: zero exactly when _pairings finds pairs."""
    support = sorted(p for pair in pairs for p in pair)
    for p in support:
        a.normal(p)  # the IndexError for an index outside 1..n
    at = {p: i for i, p in enumerate(support)}
    c = _matching_pattern(6).index(tuple((at[p], at[q]) for p, q in pairs))
    sides, rows, lefts = _pairing_pattern(a.k)
    _, left, right, odd = rows[c]
    fd, minors, keys = a.field, a.minors(), list(combinations(support, a.k))
    lv, rv = (reduce(fd._mul, [minors[keys[i]] for i in sides[s]]) for s in (left, right))
    value = fd._add(lv, rv if odd else fd._neg(rv))
    return fd._neg(value) if lefts[c] else value


def _pairings(a: Arrangement) -> list[tuple]:
    """The matchings ((x, x2), (y, y2), (z, z2)) of every 6-subset of
    indices whose relation (_pairing_pattern) holds, with no inversions.
    The subset is sorted, so its minors come in the pattern's order; each
    distinct side is multiplied out once per subset (20 products at
    k = 2, 9 at k = 3) and the 15 rows compare those by index."""
    _require_generic(a)
    mul, neg = a.field._mul, a.field._neg
    minors = a.minors()
    sides, rows, _ = _pairing_pattern(a.k)
    found = []
    for subset in combinations(a.indices, 6):
        m = [minors[key] for key in combinations(subset, a.k)]
        if a.k == 2:
            v = [mul(mul(m[i], m[j]), m[l]) for i, j, l in sides]
        else:
            v = [mul(m[i], m[j]) for i, j in sides]
        for pairs, left, right, odd in rows:
            if v[left] == (neg(v[right]) if odd else v[right]):
                (i0, j0), (i1, j1), (i2, j2) = pairs
                found.append(((subset[i0], subset[j0]), (subset[i1], subset[j1]),
                              (subset[i2], subset[j2])))
    return found


def quadral_points(a: Arrangement) -> list[FourSet]:
    """All 4-sets whose Ceva product |p1 p5||p2 p6||p3 p4| /
    |p1 p6||p2 p4||p3 p5| (FourSet.labels) is 1, over every 6-subset.

    Each matching one involution realizes (_pairings) contributes its
    complementary pair of 4-sets, so the count is even.  The matchings
    are three disjoint pairs, so their 4-sets' canonical tuples are
    deduplicated and sorted before any FourSet is built."""
    _check_k(a, 2)
    keys = {four for pairs in _pairings(a) for four in _matching_foursets(pairs)}
    return [FourSet._from_key(key) for key in sorted(keys)]


def find_involutions(a: Arrangement):
    """For each pairing of six lines, the projective involution
    swapping the normals along it, when one exists.

    A map is built only for the matchings _pairings passes, the test
    quadral_points makes, and no trace is taken.  At k = 2, _pairings
    holds exactly when some involution of P^1 swaps the three pairs.
    A map of P^1 is fixed by three points and their images, so the map
    projective_map_through returns, which sends each normal to its
    partner, is that involution: it sends the partners back, and its
    trace is 0 (by Cayley-Hamilton f^2 = tr(f) f - det(f), and f is not
    scalar).  Returns (matching, map) pairs, each map the rows
    ((a, b), (c, d)) projective_map_through returns, invertible with no
    check."""
    _check_k(a, 2)
    if a.n != 6:
        raise TooFewHyperplanes("involution search is defined for exactly 6 lines")
    out = []
    for pairs in _pairings(a):
        src = tuple(a.normal(p) for p, _ in pairs)
        dst = tuple(a.normal(q) for _, q in pairs)
        out.append((frozenset(frozenset(p) for p in pairs), projective_map_through(src, dst)))
    return out


class QuintFamily(_Value):
    """Center p0 plus aligned triples (p1,p2,p3), (p4,p5,p6), encoding
    the five sets {p0,p1,p4}, {p0,p2,p5}, {p0,p3,p6}, {p1,p2,p3},
    {p4,p5,p6}.

    Canonical form: the triple holding the smallest non-center index
    comes first, with its entries ascending."""

    __slots__ = ("center", "ta", "tb")
    _fields = __slots__

    def __init__(self, center: int, ta, tb):
        ta, tb = tuple(ta), tuple(tb)
        indices = (center,) + ta + tb
        if len(ta) != 3 or len(tb) != 3 or len(set(indices)) != 7:
            raise ValueError(f"need 7 distinct indices, got {indices}")
        if min(tb) < min(ta):
            ta, tb = tb, ta
        self.center = center
        self.ta, self.tb = zip(*sorted(zip(ta, tb)))

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        spokes = [tuple(sorted((self.center, self.ta[i], self.tb[i])))
                  for i in range(3)]
        return tuple(sorted(spokes) + [self.ta, tuple(sorted(self.tb))])

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted((self.center,) + self.ta + self.tb))

    def _sort_key(self) -> tuple:
        """The order of __lt__: support, then center, ta and tb."""
        return (self.support, self.center, self.ta, self.tb)

    def __lt__(self, other: "QuintFamily"):
        return self._sort_key() < other._sort_key()

    def __repr__(self):
        return f"QuintFamily(center={self.center}, {self.ta} | {self.tb})"


def quintuple_points(a: Arrangement) -> list[QuintFamily]:
    """All canonical quint families: a center c and disjoint triples
    ta, tb with equal cross ratios [c; ta] = [c; tb].

    The cross ratio [c; t0, t1, t2] = |c t1||t0 t2| / |t0 t1||c t2| is
    the product of two entries of ratio[x, y, z] = |x z| / |x y|, so
    each 2 x 2 minor is computed and inverted once.  Payloads are canonical,
    so the ordered triples around each center are grouped by value;
    O(n^4) products in all."""
    _check_k(a, 2)
    if a.n < 7:
        raise TooFewHyperplanes(f"quint families need 7 hyperplanes, have {a.n}")
    _require_generic(a)
    fd = a.field
    mul, neg = fd._mul, fd._neg
    # |x y| and its inverse for every ordered pair, negated when x > y
    dets, inverses = {}, {}
    for (x, y), d in a.minors().items():
        dets[x, y], dets[y, x] = d, neg(d)
        inverses[x, y] = fd._inv(d)
        inverses[y, x] = neg(inverses[x, y])
    triples = list(permutations(a.indices, 3))
    ratio = {(x, y, z): mul(dets[x, z], inverses[x, y]) for x, y, z in triples}
    found = []
    for c in a.indices:
        groups: dict = {}
        for t in triples:
            if c not in t:
                value = mul(ratio[c, t[2], t[1]], ratio[t])
                groups.setdefault(value, []).append(t)
        # a sorted ta and a tb whose smallest index comes after ta's is
        # the canonical form, so each family is found exactly once, as
        # its _sort_key, and built once the keys are sorted
        for members in groups.values():
            for ta in members:
                if ta[0] < ta[1] < ta[2]:
                    rim = set(ta)
                    found += [(tuple(sorted((c,) + ta + tb)), c, ta, tb) for tb in members
                              if min(tb) > ta[0] and rim.isdisjoint(tb)]
    found.sort()
    return [QuintFamily._from_key((c, ta, tb)) for _, c, ta, tb in found]


def quint_closure_checks(families: list[QuintFamily]) -> list[str]:
    """Composition laws among the families quintuple_points detected on
    one arrangement, grouped on the canonical tuples each family holds
    (ta sorted, tb aligned with it).

    Three-cycle law, key (center, ta, sorted tb): two detected pairings
    of one triple pair differing by a 3-cycle force the third power.
    The groups of two or more come in key order, each walked as a set.
    Split law, key (center, sorted (small, large) rim pairs): three
    distinct detected splits (tb) force the fourth; the groups come in
    input order.  Returns the violations found (expected none)."""
    violations = []

    by_triples: dict = {}
    for q in families:
        by_triples.setdefault((q.center, q.ta, tuple(sorted(q.tb))), []).append(q)
    for key in sorted(key for key, group in by_triples.items() if len(group) > 1):
        bijections = {q.tb: q for q in set(by_triples[key])}
        for tb1, q1 in bijections.items():
            for tb2, q2 in bijections.items():
                # a pairing with a fixed point, the identity too, is no 3-cycle
                if any(x == y for x, y in zip(tb1, tb2)):
                    continue
                cycle = dict(zip(tb1, tb2))
                tb3 = tuple(cycle[b] for b in tb2)
                if tb3 not in bijections:
                    violations.append(
                        f"three-cycle closure fails: {q1!r} and {q2!r} "
                        f"detected but center={key[0]} tb={tb3} is not")

    by_pairing: dict = {}
    for q in families:
        pairs = tuple(sorted((min(x, y), max(x, y)) for x, y in zip(q.ta, q.tb)))
        by_pairing.setdefault((q.center, pairs), set()).add(q.tb)
    for (center, pairs), splits in by_pairing.items():
        if len(splits) == 3:
            violations.append(
                f"split closure fails: center={center} pairing="
                f"{[list(p) for p in pairs]} has 3 of 4 splits detected")
    return violations


class Good6Partition(_Value):
    """Three disjoint index pairs; the coincidence pattern is the three
    pair-union 4-subsets."""

    __slots__ = ("matching",)
    _fields = __slots__

    def __init__(self, pairs):
        canon = tuple(sorted(tuple(sorted(p)) for p in pairs))
        flat = [x for p in canon for x in p]
        if len(canon) != 3 or any(len(p) != 2 for p in canon) or len(set(flat)) != 6:
            raise ValueError(f"need three disjoint pairs, got {canon}")
        self.matching = canon

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        (p, q, r) = self.matching
        return tuple(sorted((tuple(sorted(p + q)), tuple(sorted(p + r)),
                             tuple(sorted(q + r)))))

    @property
    def support(self) -> tuple[int, ...]:
        p, q, r = self.matching
        return tuple(sorted(p + q + r))

    def as_frozenset(self) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(p) for p in self.matching)

    def __repr__(self):
        body = ")(".join("".join(map(str, p)) for p in self.matching)
        return f"Good6Partition(({body}))"


def good6_condition(a: Arrangement, g: Good6Partition) -> FieldElement:
    """[x x2 z][y y2 z2] - [x x2 z2][y y2 z] on signed minors for the
    matching ((x, x2), (y, y2), (z, z2)) of g, the k = 3 _pairing_value:
    by Grassmann-Pluecker det(x x x2, y x y2, z x z2), the determinant of
    the three pair cross products, zero exactly when the three pair
    intersection lines share a point at infinity."""
    _check_k(a, 3)
    if not isinstance(g, Good6Partition):
        g = Good6Partition(g)
    return FieldElement(a.field, _pairing_value(a, g.matching))


def good6_points(a: Arrangement) -> list[Good6Partition]:
    """All good partitions over every 6-subset of indices, k=3: the
    matchings on which good6_condition vanishes (_pairings).  Those are
    canonical already, (small, large) pairs by first element, so they
    are deduplicated and sorted as tuples and then wrapped."""
    _check_k(a, 3)
    return [Good6Partition._from_key(pairs) for pairs in sorted(set(_pairings(a)))]


def pappus_closure_check(a: Arrangement) -> list[str]:
    """good6_closure_checks on the partitions good6_points detects on a."""
    return good6_closure_checks(good6_points(a))


def good6_closure_checks(found: list[Good6Partition]) -> list[str]:
    """Partitions good6_points detected on one arrangement that share a
    support but no pair must be closed under conjugation of their
    involutions.  Each partition is indexed by its positions in its
    sorted support, a row of _matching_pattern(6), and each conjugate
    is read off _conjugation_table; a Good6Partition and a message are
    built only for a missing one.  Returns violations (expected none)."""
    pattern, conjugate = _matching_pattern(6), _conjugation_table()
    row = {pairs: c for c, pairs in enumerate(pattern)}
    by_support: dict = {}
    for g in found:
        by_support.setdefault(g.support, []).append(g)
    violations = []
    for support, gs in sorted(by_support.items()):
        at = {x: i for i, x in enumerate(support)}
        rows = []
        for g in gs:
            (x, x2), (y, y2), (z, z2) = g.matching
            rows.append(row[(at[x], at[x2]), (at[y], at[y2]), (at[z], at[z2])])
        here = set(rows)
        for (g1, c1), (g2, c2) in combinations(zip(gs, rows), 2):
            c3 = conjugate[c1][c2]
            if c3 is not None and c3 not in here:
                g3 = Good6Partition._from_key(
                    tuple((support[i], support[j]) for i, j in pattern[c3]))
                violations.append(f"conjugation closure fails: {g1!r} and {g2!r} "
                                  f"detected but {g3!r} is not")
    return violations
