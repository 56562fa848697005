"""Shared constructors for the test suite: seeded random arrangements,
the random very generic reference, the lattice closure oracle and the
rank read off its echelon, every discriminantal normal and a flat's
key as a set, the six-element pairing and conjugation
closure oracles, the S6 type by union-find, the quint closure oracle,
the FieldElement projective map through three points, the FieldElement
genericity conditions of the parametrized family, the cofactor
determinant and the incidence check of a translation built on it, the
payload work counter, the validating constructions of the detected
patterns, the full Fermat-then-Lucas test, candidate-family
enumeration, and small number-theory checks.

The slow definitions the library dropped are oracles here: the cross
ratio (oracle_cross_ratio), the Ceva, triple cross-ratio and quint
values of a detected pattern (oracle_ceva_value, oracle_crossratio_form,
oracle_quint_value), the cross product (oracle_cross3), a projective
map's action, composition, equality up to scaling and identity test on
its FieldElement rows (oracle_apply, oracle_matmul, oracle_same_map,
oracle_is_identity, oracle_maps_to, with projective_map coercing rows
into a field and oracle_proportional), the paper's phi on the 720
permutations of [6] and the edge labels read off it (Perm, phi,
edge_label, matching_from_perm, oracle_edge_table), and the perfect
matching and set partition enumerators (perfect_matchings,
all_partitions_of_6).  Matrices are tuples or lists of rows.  The
library's one determinant and the span's rank, kernel and null vectors,
the echelon the library keeps, are read on FieldElement rows through
payload_det, payload_span, span_kernel and span_solution."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

from discarr import (
    Arrangement,
    ClosureViolation,
    FourSet,
    Good6Partition,
    NotGeneric,
    QuintFamily,
    Rational,
    TypeReport,
    VertexPartition,
    detectors,
    discriminantal_normal,
    is_generic,
)
from discarr.arrangement import DegeneratePoints
from discarr.exactfield import FieldElement, _Value, _as_element
from discarr.gallery import is_parameter_generic, parametrized
from discarr.linalg import DimensionMismatch, _det_payloads, _Span
from discarr.permtype import NotAMatchingLabel


def rand_fraction(rng, span=12, max_den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_k2(rng, n=6, tries=400):
    """Generic n lines with small integer normals."""
    q = Rational()
    for _ in range(tries):
        normals = [(rng.randint(-25, 25), rng.randint(-25, 25)) for _ in range(n)]
        if any(u == (0, 0) for u in normals):
            continue
        a = Arrangement(q, 2, normals)
        if is_generic(a):
            return a
    raise RuntimeError("no generic k=2 sample found")


def imposed_k2(rng, tries=400):
    """Six lines with slopes (inf, 0, 1, l4, l5, l6) where l6 is chosen
    so one pairing condition holds exactly."""
    q = Rational()
    for _ in range(tries):
        l4 = rand_fraction(rng, span=9, max_den=4)
        l5 = rand_fraction(rng, span=9, max_den=4)
        if l4 in (0, 1) or l5 in (0, 1) or l4 == l5:
            continue
        l6 = l4 * (l5 - 1) / (l4 - 1)
        lams = (l4, l5, l6)
        if l6 in (0, 1) or len(set(lams)) < 3:
            continue
        a = Arrangement(q, 2, ((1, 0), (0, 1), (1, 1),
                               (l4, 1), (l5, 1), (l6, 1)))
        if is_generic(a):
            return a
    raise RuntimeError("no imposed k=2 sample found")


def random_k3(rng, tries=400):
    q = Rational()
    for _ in range(tries):
        w, x, y, z = (rand_fraction(rng, span=9, max_den=4) for _ in range(4))
        if is_parameter_generic(q, w, x, y, z):
            return parametrized(q, w, x, y, z)
    raise RuntimeError("no generic k=3 sample found")


def imposed_k3(rng, tries=400):
    """Parametrized planes with z = x*y, making one pairing condition
    hold exactly while staying generic."""
    q = Rational()
    for _ in range(tries):
        w, x, y = (rand_fraction(rng, span=9, max_den=4) for _ in range(3))
        z = x * y
        if is_parameter_generic(q, w, x, y, z):
            return parametrized(q, w, x, y, z)
    raise RuntimeError("no imposed k=3 sample found")


def reference_very_generic(n: int, k: int, seed: int = 0) -> Arrangement:
    """Random integer arrangement over the rationals passing every
    coincidence detector; deterministic in (n, k, seed).  The library
    decides very generic flats combinatorially; this arrangement is the
    differential oracle for that decision."""
    if k not in (2, 3):
        raise ValueError(f"reference construction supports k in {{2, 3}}, got {k}")
    if not k < n <= 9:
        raise ValueError(f"need k < n <= 9, got n={n}")
    rng = random.Random(f"reference-{n}-{k}-{seed}")
    field = Rational()
    for _ in range(64):
        normals = [tuple(field.from_int(rng.randint(-99, 99)) for _ in range(k))
                   for _ in range(n)]
        try:
            a = Arrangement(field, k, normals)
        except ValueError:
            continue
        if not is_generic(a):
            continue
        if k == 2:
            if detectors.quadral_points(a):
                continue
            if n >= 7 and detectors.quintuple_points(a):
                continue
        else:
            if n >= 6 and detectors.good6_points(a):
                continue
        return a
    raise RuntimeError(f"no very generic candidate in 64 draws for (n={n}, k={k})")


# ---------------------------------------------------------------------------
# the lattice closure oracle

class _OracleSpan:
    """Incremental row echelon over FieldElement rows, each kept as its
    pivot and its nonzero entries scaled to a leading one."""

    def __init__(self):
        self.rows = []

    def _reduce(self, v):
        w = list(v)
        for piv, entries in self.rows:
            c = w[piv]
            if not c.is_zero():
                for i, y in entries:
                    w[i] = w[i] - c * y
        return w

    def contains(self, v):
        return all(x.is_zero() for x in self._reduce(v))

    def insert(self, v):
        w = self._reduce(v)
        for i, x in enumerate(w):
            if not x.is_zero():
                inv = x.inv()
                self.rows.append((i, [(j, y * inv) for j, y in enumerate(w) if not y.is_zero()]))
                return


def oracle_closure(normals, supports):
    """(closed support, rank) of the span of the given hyperplanes, by an
    echelon of FieldElement rows; the oracle for lattice flats."""
    span = _OracleSpan()
    for L in supports:
        span.insert(normals[L])
    members = tuple(L for L in sorted(normals) if span.contains(normals[L]))
    return members, len(span.rows)


def oracle_rank(rows):
    """Rank of FieldElement rows, by the same echelon."""
    span = _OracleSpan()
    for v in rows:
        span.insert(v)
    return len(span.rows)


def discriminantal_normals(a):
    """The normal of every D_L of B(n,k,a), keyed by the sorted
    (k+1)-subset L, in order."""
    return {L: discriminantal_normal(a, L) for L in combinations(a.indices, a.k + 1)}


def flat_key(f):
    """A flat as (support set, rank), to compare flats as sets."""
    return (frozenset(f.support), f.rank)


# ---------------------------------------------------------------------------
# the library's span, read on FieldElement rows

def payload_span(rows, field):
    """linalg's span (_Span.over) of FieldElement rows."""
    return _Span.over(field, [[e.payload for e in r] for r in rows])


def payload_det(rows, field):
    """linalg's determinant (_det_payloads) of square FieldElement rows."""
    return FieldElement(field, _det_payloads(field, [[e.payload for e in r] for r in rows]))


def span_kernel(rows, field, ncols):
    """The span's kernel basis, as FieldElement vectors."""
    return [tuple(FieldElement(field, x) for x in v)
            for v in payload_span(rows, field).kernel(ncols)]


def span_solution(rows, b):
    """A solution x of M x = b read off the span of [M | -b]: its null
    vector (x, 1), which exists iff the last column is not a pivot;
    None otherwise."""
    field, ncols = b[0].fd, len(rows[0])
    span = payload_span([list(r) + [-e] for r, e in zip(rows, b)], field)
    if ncols in span.pivots():
        return None
    return tuple(FieldElement(field, x) for x in span.null_vector(ncols + 1, ncols)[:ncols])


# ---------------------------------------------------------------------------
# the incidence check of a translation

def cofactor_det(rows):
    """Determinant of FieldElement rows by Laplace expansion along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, x in enumerate(rows[0]):
        term = x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def translation_problems(a, family, t) -> list[str]:
    """What the translation t gets wrong, by cofactor determinants of
    the augmented rows (alpha_p, t_p): a (k+1)-subset of a family set
    that is not concurrent, or a hyperplane outside a set through the
    set's point."""
    k = a.k

    def det_of(indices):
        return cofactor_det([list(a.normal(p)) + [t[p - 1]] for p in indices])

    problems = []
    for L in family:
        for sub in combinations(L, k + 1):
            if not det_of(sub).is_zero():
                problems.append(f"{sub} is not concurrent")
        for q in a.indices:
            if q not in L and det_of(L[:k] + (q,)).is_zero():
                problems.append(f"hyperplane {q} passes through the point of {L}")
    return problems


# ---------------------------------------------------------------------------
# projective maps and cross ratios on FieldElements; a matrix is a
# tuple of rows, and a map is its matrix up to scaling

def projective_map(rows, field):
    """The rows with their entries coerced into field."""
    return tuple(tuple(_as_element(field, e) for e in r) for r in rows)


def _dot(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def oracle_apply(f, v):
    """The matrix f times the column vector v."""
    return tuple(_dot(r, v) for r in f)


def oracle_matmul(a, b):
    """The product of two matrices; for two maps, a after b."""
    cols = list(zip(*b))
    return tuple(tuple(_dot(r, c) for c in cols) for r in a)


def oracle_proportional(u, v):
    """True iff the vectors u and v are nonzero and proportional."""
    if len(u) != len(v):
        return False
    if all(e.is_zero() for e in u) or all(e.is_zero() for e in v):
        return False
    return all(u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2))


def oracle_same_map(f, g):
    """True iff the matrices f and g are equal up to a nonzero scalar."""
    return oracle_proportional(tuple(e for r in f for e in r), tuple(e for r in g for e in r))


def oracle_is_identity(f):
    fd = f[0][0].fd
    return oracle_same_map(f, [[fd.one() if i == j else fd.zero() for j in range(len(f))]
                               for i in range(len(f))])


def oracle_maps_to(f, v, w):
    return oracle_proportional(oracle_apply(f, v), w)


def oracle_cross3(u, v):
    """The cross product of two 3-vectors."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def oracle_cross_ratio(v1, v2, v3, v4):
    """Cross ratio |v1 v3||v2 v4| / |v2 v3||v1 v4| of four points of P^1,
    2-vectors of FieldElements; DegeneratePoints when any two of them
    are proportional."""
    pts = (v1, v2, v3, v4)
    dets = {}
    for i, j in combinations(range(4), 2):
        d = cofactor_det([pts[i], pts[j]])
        if d.is_zero():
            raise DegeneratePoints(f"points {i + 1} and {j + 1} coincide")
        dets[(i, j)] = d
    return (dets[(0, 2)] * dets[(1, 3)]) / (dets[(1, 2)] * dets[(0, 3)])


def oracle_projective_map_through(sources, targets):
    """The map of P^1 taking three sources to three targets, built on
    FieldElements: the targets' frame after the inverse (the adjugate)
    of the sources' frame, each frame a matrix; a frame's columns are
    l1 p1 and l2 p2 with p3 = l1 p1 + l2 p2, by Cramer."""
    sources = tuple(sources)
    targets = tuple(targets)
    if len(sources) != 3 or len(targets) != 3:
        raise ValueError("exactly three source and three target points")

    def frame(p1, p2, p3):
        if any(len(p) != 2 for p in (p1, p2, p3)):
            raise DimensionMismatch("frame points must be 2-vectors")
        d12 = cofactor_det([p1, p2])
        d13 = cofactor_det([p1, p3])
        d23 = cofactor_det([p2, p3])
        if d12.is_zero() or d13.is_zero() or d23.is_zero():
            raise DegeneratePoints("frame points are not pairwise distinct")
        l1 = d23 / d12
        l2 = -d13 / d12
        return ((l1 * p1[0], l2 * p2[0]), (l1 * p1[1], l2 * p2[1]))

    (a, b), (c, d) = frame(*sources)
    return oracle_matmul(frame(*targets), ((d, -b), (-c, a)))


# ---------------------------------------------------------------------------
# the values a detected pattern was once tested by

def oracle_ceva_value(a, fourset):
    """|p1 p5||p2 p6||p3 p4| / |p1 p6||p2 p4||p3 p5| for the canonical
    labels; the 4-set is a coincidence pattern exactly when this is 1."""
    detectors._check_k(a, 2)
    if not isinstance(fourset, FourSet):
        fourset = FourSet(fourset)
    v = [a.normal(q) for q in fourset.labels()]

    def d(i, j):
        return cofactor_det([v[i], v[j]])
    return (d(0, 4) * d(1, 5) * d(2, 3)) / (d(0, 5) * d(1, 3) * d(2, 4))


def oracle_crossratio_form(a, fourset):
    """The triple cross-ratio product; always equals -oracle_ceva_value."""
    detectors._check_k(a, 2)
    if not isinstance(fourset, FourSet):
        fourset = FourSet(fourset)
    p = fourset.labels()
    v = {q: a.normal(q) for q in p}
    r1 = oracle_cross_ratio(v[p[1]], v[p[2]], v[p[0]], v[p[3]])
    r2 = oracle_cross_ratio(v[p[2]], v[p[0]], v[p[1]], v[p[4]])
    r3 = oracle_cross_ratio(v[p[0]], v[p[1]], v[p[2]], v[p[5]])
    return r1 * r2 * r3


def oracle_quint_value(a, q):
    """The two cross ratios [a0,a1;a2,a3] and [a0,a4;a5,a6]; the family
    is a coincidence pattern exactly when they are equal."""
    detectors._check_k(a, 2)
    v0 = a.normal(q.center)
    va = [a.normal(p) for p in q.ta]
    vb = [a.normal(p) for p in q.tb]
    return (oracle_cross_ratio(v0, va[0], va[1], va[2]),
            oracle_cross_ratio(v0, vb[0], vb[1], vb[2]))


# ---------------------------------------------------------------------------
# work counting

def count_payload_calls(monkeypatch, fd, hooks=("_mul", "_inv")):
    """A Counter of the calls to the given payload hooks of fd's class
    (by default its products and inverses) made while the test runs."""
    calls = Counter()
    cls = type(fd)
    for hook in hooks:
        fn = getattr(cls, hook)

        def counting(self, *args, fn=fn, hook=hook):
            calls[hook] += 1
            return fn(self, *args)
        monkeypatch.setattr(cls, hook, counting)
    return calls


# ---------------------------------------------------------------------------
# the parametrized family's conditions oracle

def oracle_parameter_conditions(field, w, x, y, z):
    """The 14 genericity conditions of parametrized(), built on
    FieldElements with every expression written out in full."""
    w, x, y, z = (_as_element(field, v) for v in (w, x, y, z))
    one = field.one()
    return (w, x, y, z,
            w - one, x - one, y - one, z - one,
            w - x, w - y, x - z, y - z,
            w * z - x * y,
            w - x - y + z - w * z + x * y)


# ---------------------------------------------------------------------------
# the six-element oracles: the signed-minor walk detectors._pairings
# replaced, and the conjugation closure over Good6Partition objects

def oracle_det_table(a):
    """Payload of every ordered k-tuple of distinct indices: the minor of
    the sorted tuple, negated on odd orderings (2 entries per minor at
    k = 2, 6 at k = 3)."""
    neg = a.field._neg
    parities = [sum(x > y for x, y in combinations(o, 2)) % 2
                for o in permutations(range(a.k))]
    table = {}
    for key, d in a.minors().items():
        signed = (d, neg(d))
        for order, odd in zip(permutations(key), parities):
            table[order] = signed[odd]
    return table


def oracle_pairings(a):
    """The matchings of every 6-subset whose pairs are related, walking
    perfect_matchings per subset over the signed table: at k = 2
    |x y2||y z2||z x2| == |x z2||y x2||z y2|, at k = 3
    [x x2 z][y y2 z2] == [x x2 z2][y y2 z]."""
    if not is_generic(a):
        raise NotGeneric("parallel or repeated lines" if a.k == 2
                         else "dependent normal triple")
    mul = a.field._mul
    dets = oracle_det_table(a)
    found = []
    for subset in combinations(a.indices, 6):
        for pairs in perfect_matchings(subset):
            (x, x2), (y, y2), (z, z2) = pairs
            if a.k == 2:
                related = (mul(mul(dets[x, y2], dets[y, z2]), dets[z, x2])
                           == mul(mul(dets[x, z2], dets[y, x2]), dets[z, y2]))
            else:
                related = (mul(dets[x, x2, z], dets[y, y2, z2])
                           == mul(dets[x, x2, z2], dets[y, y2, z]))
            if related:
                found.append(pairs)
    return found


def oracle_conjugate(g1, g2):
    """The involution of g2 conjugated by that of g1, s1 s2 s1, walked
    point by point over their common support, as a Good6Partition."""
    s1 = {x: y for p in g1.matching for x, y in (p, p[::-1])}
    s2 = {x: y for p in g2.matching for x, y in (p, p[::-1])}
    s3 = {x: s1[s2[s1[x]]] for x in g1.support}
    return Good6Partition(frozenset(frozenset((x, y)) for x, y in s3.items()))


def oracle_good6_closure_checks(found):
    """Partitions sharing a support but no pair must be closed under
    conjugation of their involutions; each conjugate built as a
    Good6Partition (oracle_conjugate) and looked up among the detected
    ones."""
    detected = set(found)
    by_support: dict = {}
    for g in found:
        by_support.setdefault(g.support, []).append(g)
    violations = []
    for _, gs in sorted(by_support.items()):
        for g1, g2 in combinations(gs, 2):
            if set(g1.matching) & set(g2.matching):
                continue
            g3 = oracle_conjugate(g1, g2)
            if g3 not in detected:
                violations.append(
                    f"conjugation closure fails: {g1!r} and {g2!r} "
                    f"detected but {g3!r} is not")
    return violations


# ---------------------------------------------------------------------------
# the phi oracle: the exceptional automorphism of S6 on all 720
# elements, the matching -> edge map permtype reads off the totals

class Perm(_Value):
    """A permutation of {1,...,6}; images[i-1] is the image of i.
    Composition order: (p * q)(x) = p(q(x)), the right factor acts first."""

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
def oracle_edge_table() -> dict[frozenset, tuple[int, int]]:
    """The paper's phi read edge by edge: edge (i, j) of K_6 labelled by
    the orbits of phi((i j)), a fixed-point-free involution."""
    return {matching_from_perm(edge_label(i, j)): (i, j) for i, j in combinations(range(1, 7), 2)}


# the S6 type oracle: the per-call union-find permtype.arrangement_type
# replaced with one lookup per edge set

def oracle_edge_partition(edges) -> VertexPartition:
    """The connected components of edges on the vertices 1..6, by
    union-find with path halving."""
    parent = {i: i for i in range(1, 7)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in edges:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for x in range(1, 7):
        groups.setdefault(find(x), []).append(x)
    return VertexPartition(groups.values())


def oracle_edge_report(matchings, factor) -> TypeReport:
    """The TypeReport of the detected matchings, factor 2 for lines and
    1 for planes: their edges by the phi oracle (oracle_edge_table),
    the union-find partition, the edges it
    induces block by block, and ClosureViolation when those differ."""
    edges = frozenset(oracle_edge_table()[m] for m in matchings)
    part = oracle_edge_partition(edges)
    closed = set()
    for b in part.blocks:
        for i, j in combinations(sorted(b), 2):
            closed.add((i, j))
    if closed != edges:
        missing = sorted(closed - edges)
        raise ClosureViolation(f"detected edges are not component-closed; missing {missing}")
    nu = part.type()
    m_a = factor * len(matchings)
    return TypeReport(type=nu, partition=part, matchings=matchings, edges=edges,
                      m_a=m_a, m_formula_consistent=(m_a == factor * nu.m()))


def oracle_arrangement_type(a) -> TypeReport:
    """arrangement_type with the union-find run on every call: the
    involution matchings of six lines, or the good partitions of six
    planes, typed by oracle_edge_report."""
    if a.n != 6:
        raise ValueError("type classification needs exactly 6 hyperplanes")
    if a.k == 2:
        return oracle_edge_report(tuple(m for m, _ in detectors.find_involutions(a)), 2)
    if a.k == 3:
        return oracle_edge_report(tuple(g.as_frozenset() for g in detectors.good6_points(a)), 1)
    raise ValueError(f"no classifier for k={a.k}")


def oracle_quint_closure_checks(families: list[QuintFamily]) -> list[str]:
    """Composition laws among the families quintuple_points detected on
    one arrangement.

    Same center and same unordered triple pair: two detected pairings
    differing by a 3-cycle force the third power.  Same center and same
    rim pairing: three detected splits force the fourth.  Returns the
    violations found (expected none)."""
    violations = []

    by_triples: dict = {}
    for q in families:
        key = (q.center, frozenset((frozenset(q.ta), frozenset(q.tb))))
        by_triples.setdefault(key, set()).add(q)
    for (center, _), fams in sorted(by_triples.items(),
                                    key=lambda kv: (kv[0][0], sorted(map(sorted, kv[0][1])))):
        # canonical form aligns every family on the same sorted ta
        bijections = {q.tb: q for q in fams}
        for tb1 in bijections:
            m1_inv = {tb1[i]: i for i in range(3)}
            for tb2 in bijections:
                if tb2 == tb1:
                    continue
                cycle = {tb1[i]: tb2[i] for i in range(3)}
                if any(cycle[b] == b for b in cycle):
                    continue
                tb3 = tuple(cycle[tb2[i]] for i in range(3))
                if tb3 not in bijections:
                    q1, q2 = bijections[tb1], bijections[tb2]
                    violations.append(
                        f"three-cycle closure fails: {q1!r} and {q2!r} "
                        f"detected but center={center} tb={tb3} is not")

    by_pairing: dict = {}
    for q in families:
        key = (q.center, frozenset(frozenset((q.ta[i], q.tb[i])) for i in range(3)))
        by_pairing.setdefault(key, set()).add(q)
    for (center, pairing), fams in by_pairing.items():
        if len(fams) == 3:
            violations.append(
                f"split closure fails: center={center} pairing="
                f"{sorted(map(sorted, pairing))} has 3 of 4 splits detected")
    return violations


# ---------------------------------------------------------------------------
# the validating constructions the detectors replaced: every pattern
# built through FourSet, Good6Partition and QuintFamily's __init__, then
# sorted as objects

def oracle_of_matching(pairs):
    """FourSet.of_matching through the validating constructor: the
    4-set of the pairs as given, then its complement."""
    (a1, b1), (a2, b2), (a3, b3) = pairs
    four = FourSet(((a1, a2, a3), (a1, b2, b3), (b1, a2, b3), (b1, b2, a3)))
    return four, oracle_complement(four)


def oracle_complement(four):
    sup = set(four.support)
    return FourSet(tuple(sup - set(s)) for s in four.sets)


def oracle_quadral_points(a):
    return sorted({four for pairs in detectors._pairings(a)
                   for four in oracle_of_matching(pairs)})


def oracle_good6_points(a):
    return sorted(Good6Partition(pairs) for pairs in detectors._pairings(a))


def oracle_quintuple_points(a):
    """Every canonical family [c; ta] = [c; tb] found on the signed
    ratio table, each built by QuintFamily(c, ta, tb) and the list
    sorted by QuintFamily._sort_key."""
    detectors._check_k(a, 2)
    fd = a.field
    mul, neg = fd._mul, fd._neg
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
        for members in groups.values():
            for ta in members:
                if ta[0] < ta[1] < ta[2]:
                    found += [QuintFamily(c, ta, tb) for tb in members
                              if min(tb) > ta[0] and set(ta).isdisjoint(tb)]
    return sorted(found, key=QuintFamily._sort_key)


# ---------------------------------------------------------------------------
# the Lucas test modular._lucas_root replaced

def oracle_lucas_root(n, factors):
    """A primitive root modulo n by the full Fermat test g^(n-1) = 1 and
    then g^((n-1)/q) != 1 for every prime q | n - 1, on the bases below
    1002; None at the first Fermat witness or when no base passes."""
    for g in range(2, min(n, 1002)):
        if pow(g, n - 1, n) != 1:
            return None
        if all(pow(g, (n - 1) // q, n) != 1 for q in factors):
            return g
    return None


# ---------------------------------------------------------------------------
# enumerators and candidate families (detected or not), for the
# rank-equivalence sweeps

def perfect_matchings(items):
    """All ways to split an even index set into unordered pairs.

    Pairs come out as (small, large), sorted by first element: the
    matchings of positions 0..n-1 (detectors._matching_pattern, the
    pattern the six-element relations are read through) relabelled by
    the sorted items."""
    items = sorted(items)
    return [tuple((items[i], items[j]) for i, j in m)
            for m in detectors._matching_pattern(len(items))]


def all_partitions_of_6():
    """All 203 set partitions of {1,...,6}."""
    out = []

    def grow(rest, blocks):
        if not rest:
            out.append(VertexPartition(blocks))
            return
        first, tail = rest[0], rest[1:]
        for size in range(len(tail) + 1):
            for extra in combinations(tail, size):
                remaining = [x for x in tail if x not in extra]
                grow(remaining, blocks + [(first,) + extra])

    grow(list(range(1, 7)), [])
    return out


def matching_foursets(pairs):
    """The complementary pair of 4-sets determined by three index pairs."""
    (a1, b1), (a2, b2), (a3, b3) = sorted(tuple(sorted(p)) for p in pairs)
    return (FourSet(((a1, a2, a3), (a1, b2, b3), (b1, a2, b3), (b1, b2, a3))),
            FourSet(((b1, b2, b3), (b1, a2, a3), (a1, b2, a3), (a1, a2, b3))))


def fourset_candidates(indices):
    """All 4-sets over every 6-subset of the given indices."""
    out = []
    for subset in combinations(sorted(indices), 6):
        for pairs in perfect_matchings(subset):
            out.extend(matching_foursets(pairs))
    return out


def quint_candidates(indices):
    """All canonical five-triple families over every 7-subset."""
    out = []
    for subset in combinations(sorted(indices), 7):
        for center in subset:
            rim = [p for p in subset if p != center]
            for pairs in perfect_matchings(rim):
                (x1, y1), (x2, y2), (x3, y3) = pairs
                for c2, d2 in ((x2, y2), (y2, x2)):
                    for c3, d3 in ((x3, y3), (y3, x3)):
                        out.append(QuintFamily(center, (x1, c2, c3), (y1, d2, d3)))
    return out


def good6_candidates(indices):
    out = []
    for subset in combinations(sorted(indices), 6):
        for pairs in perfect_matchings(subset):
            out.append(Good6Partition(pairs))
    return out


# ---------------------------------------------------------------------------
# rationality checks used by the classification certificate

def is_rational_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    for part in (q.numerator, q.denominator):
        r = int(part ** 0.5)
        while r * r > part:
            r -= 1
        while (r + 1) * (r + 1) <= part:
            r += 1
        if r * r != part:
            return False
    return True


def monic_quadratic_irreducible_over_q(c1, c0) -> bool:
    """x^2 + c1 x + c0 with integer coefficients: irreducible over the
    rationals iff the discriminant is not a perfect square (equivalently,
    by Gauss, iff there is no integer root)."""
    disc = Fraction(c1) ** 2 - 4 * Fraction(c0)
    return not is_rational_square(disc)
