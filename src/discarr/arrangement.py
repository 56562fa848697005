"""Generic hyperplane arrangements, their translations, and the map of
P^1 through three points.

An arrangement is a list of n normal vectors in K^k with n > k >= 1.
Hyperplane p is { x : alpha_p . x = t_p }; the library keeps only the
normals (offsets live in separate translation vectors t in K^n).
Indices are 1-based throughout the public interface.  Genericity, the
detectors, the discriminantal normals and the translate solver all read
one table of k x k minors, Arrangement.minors.  A projective map of P^1
is two rows of field elements, built on payloads; the library takes its
trace and prints it, and never compares two maps up to scaling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .exactfield import (
    FieldDescriptor,
    FieldElement,
    FieldMismatch,
    _as_element,
    _Value,
    descriptor_from_json,
    descriptor_to_json,
    format_element,
    parse_element,
)
from .linalg import DimensionMismatch, Vector, _det_payloads, _Span


class NotGeneric(ValueError):
    """Some k normals of the arrangement are linearly dependent."""


class DegeneratePoints(ValueError):
    """Projective points that were required to be distinct coincide."""


class NoGenericWitness(RuntimeError):
    """Over a field of small characteristic, every kernel vector hits a
    forbidden extra incidence, or there are too many to enumerate."""


class Arrangement(_Value):
    """n hyperplanes through the origin of K^k, one normal each."""

    __slots__ = ("field", "k", "n", "_normals", "_minors")
    _fields = ("field", "k", "_normals")

    def __init__(self, field: FieldDescriptor, k: int, normals):
        rows = [tuple(_as_element(field, e) for e in v) for v in normals]
        if k < 1:
            raise ValueError("ambient dimension must be at least 1")
        if any(len(r) != k for r in rows):
            raise ValueError("every normal must have length k")
        if len(rows) <= k:
            raise ValueError("need more hyperplanes than dimensions")
        self.field = field
        self.k = k
        self.n = len(rows)
        self._normals = tuple(rows)
        self._minors = None

    @property
    def normals(self) -> tuple[Vector, ...]:
        return self._normals

    def normal(self, p: int) -> Vector:
        """Normal of hyperplane p, 1-based."""
        if not 1 <= p <= self.n:
            raise IndexError(f"hyperplane index {p} out of range 1..{self.n}")
        return self._normals[p - 1]

    @property
    def indices(self) -> range:
        return range(1, self.n + 1)

    def minors(self) -> dict:
        """Payload of every k x k minor of the normals, keyed by its
        sorted 1-based index tuple; computed on the first call and kept
        (the arrangement is immutable), so every caller gets one dict."""
        if self._minors is None:
            fd = self.field
            rows = [[e.payload for e in v] for v in self._normals]
            self._minors = {sub: _det_payloads(fd, [rows[p - 1] for p in sub])
                            for sub in combinations(self.indices, self.k)}
        return self._minors

    def __repr__(self):
        return f"Arrangement(n={self.n}, k={self.k}, field={self.field!r})"


def is_generic(a: Arrangement) -> bool:
    """True iff every k-subset of normals is linearly independent."""
    return not any(map(a.field._is_zero, a.minors().values()))


def _require_generic(a: Arrangement) -> None:
    """The one genericity gate: NotGeneric when some k normals are dependent."""
    if not is_generic(a):
        raise NotGeneric({2: "parallel or repeated lines", 3: "dependent normal triple"}
                         .get(a.k, "dependent k-subset of normals"))


def _signed_minors(key: tuple):
    """The sign rule of the normal of D_key, key = (p_1 < ... < p_{k+1}):
    (p_j, minor key, odd) for j = 1..k+1, where coordinate p_j carries
    (-1)^(j+1) times the minor with p_j deleted, negated when odd."""
    for j, p in enumerate(key):
        yield p, key[:j] + key[j + 1:], j % 2 == 1


def _projected(key: tuple, k: int) -> tuple:
    """The plan of D_key's normal on coordinates k+1..n: (column, minor
    key, odd) for each p_j > k of _signed_minors, at column p_j - 1 - k
    (the discriminantal docstring proves nothing is lost)."""
    return tuple((p - 1 - k, sub, odd) for p, sub, odd in _signed_minors(key) if p > k)


def _read_minors(a: Arrangement, plans) -> list:
    """Each plan's (column, minor key, odd) entries read off a's minors
    as (column, payload) pairs, the minor negated when odd."""
    minors, neg = a.minors(), a.field._neg
    return [[(c, neg(minors[sub]) if odd else minors[sub]) for c, sub, odd in plan]
            for plan in plans]


def _payload_rows(a: Arrangement, plans) -> list:
    """Each plan of _projected read off a's minors as a dense payload
    row of length n - k."""
    minors, neg = a.minors(), a.field._neg
    zero, width = a.field._coerce_int(0), a.n - a.k
    rows = []
    for plan in plans:
        row = [zero] * width
        for c, sub, odd in plan:
            row[c] = neg(minors[sub]) if odd else minors[sub]
        rows.append(row)
    return rows


def _frame(points):
    """The field of three pairwise distinct points of P^1 and the payloads
    (row-major) of their frame: columns l1 p1, l2 p2 with p3 = l1 p1 + l2 p2,
    so the matrix sends (1, 1) to p3 (l1 = d23/d12, l2 = -d13/d12 by
    Cramer, d_ij = det(p_i, p_j))."""
    if any(len(p) != 2 for p in points):
        raise DimensionMismatch("frame points must be 2-vectors")
    fd = points[0][0].fd
    add, mul, neg = fd._add, fd._mul, fd._neg
    (x1, y1), (x2, y2), (x3, y3) = [[_as_element(fd, e).payload for e in p] for p in points]
    d12 = add(mul(x1, y2), neg(mul(y1, x2)))
    d13 = add(mul(x1, y3), neg(mul(y1, x3)))
    d23 = add(mul(x2, y3), neg(mul(y2, x3)))
    if fd._is_zero(d12) or fd._is_zero(d13) or fd._is_zero(d23):
        raise DegeneratePoints("frame points are not pairwise distinct")
    s = fd._inv(d12)
    l1, l2 = mul(d23, s), neg(mul(d13, s))
    return fd, (mul(l1, x1), mul(l2, x2), mul(l1, y1), mul(l2, y2))


def projective_map_through(sources, targets) -> tuple[Vector, Vector]:
    """The unique map of P^1 taking the three sources to the three targets,
    as two rows of field elements ((a, b), (c, d)), defined up to scaling.

    sources and targets are triples of 2-vectors, each triple pairwise
    distinct projectively.  The map is the targets' frame times the
    adjugate of the sources' frame (_frame), computed on payloads.  It
    is invertible with no check: _frame raises DegeneratePoints unless
    d12, d13 and d23 are all nonzero, so each frame's determinant
    l1 l2 d12 = -d13 d23 / d12 is nonzero, and so is the product's.
    """
    sources = tuple(sources)
    targets = tuple(targets)
    if len(sources) != 3 or len(targets) != 3:
        raise ValueError("exactly three source and three target points")
    fd, (a, b, c, d) = _frame(sources)
    ft, (e, f, g, h) = _frame(targets)
    if ft is not fd and ft != fd:
        raise FieldMismatch("matrix product across fields")
    add, mul, neg = fd._add, fd._mul, fd._neg
    # [e f; g h] times the adjugate [d -b; -c a]
    entries = (add(mul(e, d), neg(mul(f, c))), add(mul(f, a), neg(mul(e, b))),
               add(mul(g, d), neg(mul(h, c))), add(mul(h, a), neg(mul(g, b))))
    w, x, y, z = (FieldElement(fd, v) for v in entries)
    return (w, x), (y, z)


class IndexFamily(_Value):
    """A family of index subsets, none a proper subset of another."""

    __slots__ = ("sets",)
    _fields = __slots__

    def __init__(self, sets):
        fam = tuple(sorted({tuple(sorted(set(s))) for s in sets}))
        if not fam:
            raise ValueError("family must contain at least one index set")
        for (a, sa), (b, sb) in combinations(zip(fam, map(frozenset, fam)), 2):
            if sa < sb or sb < sa:
                raise ValueError(f"{a} and {b} are nested")
        self.sets = fam

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.sets)
        return f"IndexFamily({body})"


def _candidates(fd: FieldDescriptor, incidences: int, dim: int):
    """The kernel coefficients translate_solver tries, as payload lists,
    against F = incidences extra incidences on a kernel of dimension dim.

    On t(c) = sum c^(i-1) b_i over a kernel basis b_1..b_dim, each extra
    incidence that does not hold on the whole kernel is a nonzero
    polynomial in c of degree < dim, so the moment curve at
    c = 0..F(dim - 1) holds a witness when those c are distinct in fd;
    walking past them is a bug (AssertionError).  Otherwise every nonzero
    combination, in product order, then NoGenericWitness; NoGenericWitness
    at once, before any is listed, when there are q^dim > 10^6 of them."""
    bound = incidences * (dim - 1)
    char = fd.characteristic()
    if char == 0 or char > bound:
        for c in range(bound + 1):
            yield [fd._coerce_int(c ** i) for i in range(dim)]
        raise AssertionError("the moment-curve bound admits no witness")
    if getattr(fd, "q", char) ** dim > 10 ** 6:  # q of GF(q), else F_p
        raise NoGenericWitness("kernel too large to enumerate")
    for coeffs in product(fd._payloads(), repeat=dim):
        if not all(fd._is_zero(c) for c in coeffs):
            yield list(coeffs)
    raise NoGenericWitness("every kernel vector hits an extra incidence")


def _family_key(sets: list, n: int) -> int | None:
    """The family as one int: each set's index mask (bit p for index p,
    bit 0 a sentinel, so an empty set still shows) packed n + 1 bits
    apart, in the order given.  None when some index is outside 1..n or
    not an int: translate_solver then plans the sets uncached, which
    refuses an index outside 1..n with its message."""
    key = 0
    try:
        for L in sets:
            mask = 1
            for p in L:
                if not 0 < p <= n:
                    return None
                mask |= 1 << p
            key = key << (n + 1) | mask
    except TypeError:
        return None
    return key


@lru_cache(maxsize=1024)
def _translate_plan(family: int, k: int, n: int) -> tuple:
    """_index_plan of the family _family_key(family, n) encodes."""
    sets = []
    slot = (1 << (n + 1)) - 1
    while family:
        mask = family & slot
        sets.append([p for p in range(1, n + 1) if mask >> p & 1])
        family >>= n + 1
    return _index_plan(sets, k, n)


def _index_plan(sets, k: int, n: int) -> tuple:
    """What translate_solver reads off a family, whatever the
    arrangement: the family's rows and its distinct extra-incidence
    functionals, each a tuple of (column, minor key, odd) on coordinates
    k+1..n (_projected), and the count of extra incidences.  Raises
    ValueError for a family that is empty, nested, has a set smaller
    than k + 1 or an index outside 1..n."""
    family = IndexFamily(sets)
    for L in family:
        if len(L) < k + 1:
            raise ValueError(f"family set {L} smaller than k+1 = {k + 1}")
        if any(not 1 <= p <= n for p in L):
            raise ValueError(f"family set {L} has out-of-range indices")

    rows = tuple(_projected(sub, k) for L in family for sub in combinations(L, k + 1))
    # extra incidences: hyperplane q outside L passes through L's common
    # point iff L's head and q are concurrent, i.e. t lies on D_{head + q},
    # read on coordinates k+1..n (every key holds one); the walk's bound
    # counts every (L, q), duplicate keys included
    keys = [tuple(sorted(L[:k] + (q,))) for L in family for q in range(1, n + 1) if q not in L]
    return rows, tuple(_projected(key, k) for key in dict.fromkeys(keys)), len(keys)


def translate_solver(a: Arrangement, family) -> Vector | None:
    """Find a translation t making each family set concurrent, no extras.

    Returns t in K^n such that for every L in the family the hyperplanes
    {alpha_p . x = t_p : p in L} share a point and no hyperplane outside
    L passes through that point, with t_1 = ... = t_k = 0.  Returns None
    when no such t exists.

    The rigid translations t_p = alpha_p . x lie on every D_L and keep
    every incidence, and each class of translations modulo them has
    exactly one member with t_1..t_k = 0 (the first k normals are
    independent).  So the search fixes those k coordinates at zero and
    runs on coordinates k+1..n, where the kernel of the family's rows
    has k dimensions fewer; an empty kernel there leaves only the zero
    translation, which every extra incidence holds on.  Each extra
    incidence is one discriminantal normal, tested on each candidate t
    of _candidates (at most k + 1 products); only once a candidate has
    failed (or the kernel is too large to enumerate) is an incidence
    holding on the whole kernel, which rules out every t, looked for.

    Which minors each row and each incidence reads, and with which sign,
    depends only on the family, k and n: that index plan is validated
    and built once per family spelling (_translate_plan, keyed by
    _family_key), and holds no arrangement.  Each call reads the signed
    minors into payload rows, builds the one kernel span and walks the
    candidates on raw payloads; only the returned t is wrapped.  A
    malformed family is reported before a non-generic arrangement.
    """
    k, n = a.k, a.n
    sets = [tuple(L) for L in family]
    key = _family_key(sets, n)
    row_plan, incidence_plan, incidences = (
        _index_plan(sets, k, n) if key is None else _translate_plan(key, k, n))
    _require_generic(a)
    f = a.field
    add, mul, neg, is_zero = f._add, f._mul, f._neg, f._is_zero
    zero, one = f._coerce_int(0), f._coerce_int(1)
    basis = _Span.over(f, _payload_rows(a, row_plan)).kernel(n - k)
    functionals = _read_minors(a, incidence_plan)
    if not basis:
        return None if functionals else (FieldElement(f, zero),) * n

    def vanishes(fn, v) -> bool:
        acc = zero
        for i, x in fn:
            acc = add(acc, mul(x, v[i]))
        return is_zero(acc)

    def holds_on_kernel() -> bool:
        return any(all(vanishes(fn, b) for b in basis) for fn in functionals)

    try:
        for tried, coeffs in enumerate(_candidates(f, incidences, len(basis))):
            # sum c b over the nonzero c, with no product by one and no
            # sum with zero; _candidates yields no zero combination
            t = None
            for c, b in zip(coeffs, basis):
                if not is_zero(c):
                    term = b if c == one else [mul(c, y) for y in b]
                    t = term if t is None else [add(x, y) for x, y in zip(t, term)]
            if not any(vanishes(fn, t) for fn in functionals):
                return tuple(FieldElement(f, x) for x in [zero] * k + t)
            if not tried and holds_on_kernel():
                return None
    except NoGenericWitness:
        if holds_on_kernel():
            return None
        raise


def arrangement_to_json(a: Arrangement) -> dict:
    return {
        "field": descriptor_to_json(a.field),
        "k": a.k,
        "normals": [[format_element(e) for e in v] for v in a.normals],
    }


def arrangement_from_json(obj: dict) -> Arrangement:
    if not isinstance(obj, dict):
        raise ValueError("arrangement JSON must be an object")
    for key in ("field", "k", "normals"):
        if key not in obj:
            raise ValueError(f"arrangement JSON is missing {key!r}")
    fd = descriptor_from_json(obj["field"])
    k = obj["k"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError("k must be an integer")
    normals = obj["normals"]
    if not isinstance(normals, list) or not all(
            isinstance(r, list) and all(isinstance(s, str) for s in r) for r in normals):
        raise ValueError("normals must be a list of lists of element strings")
    rows = [[parse_element(s, fd) for s in r] for r in normals]
    return Arrangement(fd, k, rows)
