"""Generic hyperplane arrangements and projective-line utilities.

An arrangement is a list of n normal vectors in K^k with n > k >= 1.
Hyperplane p is { x : alpha_p . x = t_p }; the library keeps only the
normals (offsets live in separate translation vectors t in K^n).
Indices are 1-based throughout the public interface.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .exactfield import (
    FieldDescriptor,
    FieldElement,
    descriptor_from_json,
    descriptor_to_json,
    embed,
    format_element,
    parse_element,
)
from .linalg import Matrix, Vector, _det_payloads, _Span, det, det2, inverse


class NotGeneric(ValueError):
    """Some k normals of the arrangement are linearly dependent."""


class DegeneratePoints(ValueError):
    """Projective points that were required to be distinct coincide."""


class NoGenericWitness(RuntimeError):
    """Every candidate translation hits a forbidden extra incidence."""


def _as_element(field: FieldDescriptor, value) -> FieldElement:
    if isinstance(value, FieldElement):
        if value.fd is not field and value.fd != field:
            raise ValueError("normal entry from a different field")
        return value
    if isinstance(value, int):
        return field.from_int(value)
    if isinstance(value, Fraction):
        return embed(value, field)
    raise TypeError(f"cannot use {value!r} as a field element")


class Arrangement:
    """n hyperplanes through the origin of K^k, one normal each."""

    __slots__ = ("field", "k", "n", "_normals")

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

    def __eq__(self, other):
        if not isinstance(other, Arrangement):
            return NotImplemented
        return (self.field, self.k, self._normals) == (other.field, other.k, other._normals)

    def __hash__(self):
        return hash((self.field, self.k, self._normals))

    def __repr__(self):
        return f"Arrangement(n={self.n}, k={self.k}, field={self.field!r})"


def is_generic(a: Arrangement) -> bool:
    """True iff every k-subset of normals is linearly independent."""
    fd = a.field
    rows = [[e.payload for e in v] for v in a.normals]
    return not any(fd._is_zero(_det_payloads(fd, sub))
                   for sub in combinations(rows, a.k))


def projectively_equal(u: Vector, v: Vector) -> bool:
    """True iff u and v are nonzero and proportional."""
    if len(u) != len(v):
        return False
    if all(e.is_zero() for e in u) or all(e.is_zero() for e in v):
        return False
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


def normalize_projective(v: Vector) -> Vector:
    """Scale so the first nonzero coordinate is 1 (canonical form only)."""
    for e in v:
        if not e.is_zero():
            s = e.inv()
            return tuple(s * x for x in v)
    raise ValueError("zero vector has no projective class")


def cross_ratio(v1: Vector, v2: Vector, v3: Vector, v4: Vector) -> FieldElement:
    """Cross ratio |v1 v3||v2 v4| / |v2 v3||v1 v4| of four points of P^1.

    All four arguments are 2-vectors representing pairwise distinct
    projective points; DegeneratePoints is raised when any two of them
    are proportional.
    """
    pts = (v1, v2, v3, v4)
    dets = {}
    for i, j in combinations(range(4), 2):
        d = det2(pts[i], pts[j])
        if d.is_zero():
            raise DegeneratePoints(f"points {i + 1} and {j + 1} coincide")
        dets[(i, j)] = d
    return (dets[(0, 2)] * dets[(1, 3)]) / (dets[(1, 2)] * dets[(0, 3)])


class ProjectiveMap:
    """Invertible k x k matrix considered up to nonzero scaling."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if matrix.rows != matrix.cols:
            raise ValueError("projective map needs a square matrix")
        if det(matrix).is_zero():
            raise DegeneratePoints("singular matrix is not a projective map")
        self.matrix = matrix

    @classmethod
    def from_rows(cls, rows, field: FieldDescriptor) -> "ProjectiveMap":
        ents = [[_as_element(field, e) for e in r] for r in rows]
        return cls(Matrix.from_rows(ents, field))

    def apply(self, v: Vector) -> Vector:
        return self.matrix.apply(v)

    def compose(self, other: "ProjectiveMap") -> "ProjectiveMap":
        """self after other."""
        return ProjectiveMap(self.matrix * other.matrix)

    def inverse(self) -> "ProjectiveMap":
        m = self.matrix
        f = m.field
        if m.rows == 2:
            a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
            return ProjectiveMap(Matrix.from_rows([[d, -b], [-c, a]], f))
        return ProjectiveMap(inverse(m))

    def proj_eq(self, other: "ProjectiveMap") -> bool:
        u = self.matrix.entries
        v = other.matrix.entries
        if len(u) != len(v):
            return False
        return projectively_equal(u, v)

    def is_identity(self) -> bool:
        m = self.matrix
        ident = Matrix.identity(m.field, m.rows)
        return projectively_equal(m.entries, ident.entries)

    def maps_to(self, v: Vector, w: Vector) -> bool:
        return projectively_equal(self.apply(v), w)

    def __eq__(self, other):
        if not isinstance(other, ProjectiveMap):
            return NotImplemented
        return self.proj_eq(other)

    def __hash__(self):
        # hash the projectively normalized entry tuple
        return hash(normalize_projective(self.matrix.entries))

    def __repr__(self):
        return f"ProjectiveMap({self.matrix!r})"


def projective_map_through(sources, targets) -> ProjectiveMap:
    """The unique map of P^1 taking the three sources to the three targets.

    sources and targets are triples of 2-vectors, each triple pairwise
    distinct projectively.
    """
    sources = tuple(sources)
    targets = tuple(targets)
    if len(sources) != 3 or len(targets) != 3:
        raise ValueError("exactly three source and three target points")

    def frame(p1, p2, p3):
        # scale columns p1, p2 so that the matrix sends (1,1) to p3
        d12 = det2(p1, p2)
        d13 = det2(p1, p3)
        d23 = det2(p2, p3)
        if d12.is_zero() or d13.is_zero() or d23.is_zero():
            raise DegeneratePoints("frame points are not pairwise distinct")
        # p3 = l1 p1 + l2 p2 by Cramer
        l1 = d23 / d12
        l2 = -d13 / d12
        f = p1[0].fd
        return Matrix.from_rows([[l1 * p1[0], l2 * p2[0]], [l1 * p1[1], l2 * p2[1]]], f)

    ms = frame(*sources)
    mt = frame(*targets)
    return ProjectiveMap(mt).compose(ProjectiveMap(ms).inverse())


class IndexFamily:
    """A family of index subsets, none a proper subset of another."""

    __slots__ = ("sets",)

    def __init__(self, sets):
        fam = tuple(sorted({tuple(sorted(set(s))) for s in sets}))
        if not fam:
            raise ValueError("family must contain at least one index set")
        for a, b in combinations(fam, 2):
            sa, sb = set(a), set(b)
            if sa < sb or sb < sa:
                raise ValueError(f"{a} and {b} are nested")
        self.sets = fam

    def __iter__(self):
        return iter(self.sets)

    def __len__(self):
        return len(self.sets)

    def __eq__(self, other):
        if not isinstance(other, IndexFamily):
            return NotImplemented
        return self.sets == other.sets

    def __hash__(self):
        return hash(self.sets)

    def __repr__(self):
        body = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.sets)
        return f"IndexFamily({body})"


def translate_solver(a: Arrangement, family) -> Vector | None:
    """Find a translation t making each family set concurrent, no extras.

    Returns t in K^n such that for every L in the family the hyperplanes
    {alpha_p . x = t_p : p in L} share a point and no hyperplane outside
    L passes through that point.  Returns None when no such t exists.
    Raises NoGenericWitness when the field has too few elements to avoid
    the finitely many forbidden subspaces.  The search runs on raw
    payloads; only the returned t is wrapped.
    """
    if not isinstance(family, IndexFamily):
        family = IndexFamily(family)
    if not is_generic(a):
        raise NotGeneric("translate solving requires a generic arrangement")
    f = a.field
    k, n = a.k, a.n
    for L in family:
        if len(L) < k + 1:
            raise ValueError(f"family set {L} smaller than k+1 = {k + 1}")
        if any(not 1 <= p <= n for p in L):
            raise ValueError(f"family set {L} has out-of-range indices")
    add, mul, is_zero = f._add, f._mul, f._is_zero
    zero, one = f._coerce_int(0), f._coerce_int(1)
    normals = [None] + [[e.payload for e in v] for v in a.normals]

    from .discriminantal import _normal_payloads

    minors = {}  # each k x k minor once, for the kernel rows and the incidences
    rows = [_normal_payloads(f, normals, sub, n, minors)
            for L in family for sub in combinations(L, k + 1)]
    basis = _Span.over(f, rows).kernel(n)
    if not basis:
        return None

    # extra incidences: hyperplane q outside L passes through L's common
    # point iff L's head and q are concurrent, i.e. t lies on D_{head + q};
    # each such normal is evaluated on the kernel basis
    evaluated = []
    for L in family:
        head = L[:k]
        for q in a.indices:
            if q in L:
                continue
            key = sorted(head + (q,))
            d = _normal_payloads(f, normals, key, n, minors)
            vals = []
            for b in basis:
                acc = zero
                for p in key:
                    acc = add(acc, mul(d[p - 1], b[p - 1]))
                vals.append(acc)
            if all(is_zero(v) for v in vals):
                return None  # the extra incidence holds on the whole kernel
            evaluated.append(vals)

    def admissible(coeffs) -> Vector | None:
        # coeffs combine the kernel basis; check every functional
        for vals in evaluated:
            acc = zero
            for c, v in zip(coeffs, vals):
                if c is not None:
                    acc = add(acc, mul(c, v))
            if is_zero(acc):
                return None
        t = [zero] * n
        for c, b in zip(coeffs, basis):
            if c is None:
                continue
            for i in range(n):
                t[i] = add(t[i], mul(c, b[i]))
        return tuple(FieldElement(f, x) for x in t)

    dim = len(basis)
    char = f.characteristic()
    if char == 0:
        for i in range(dim):
            coeffs = [None] * dim
            coeffs[i] = one
            t = admissible(coeffs)
            if t is not None:
                return t
        scalars = [f._coerce_int(c) for c in range(-8, 9)]
        for i, j in combinations(range(dim), 2):
            for ci, cj in product(scalars, repeat=2):
                coeffs = [None] * dim
                coeffs[i], coeffs[j] = ci, cj
                t = admissible(coeffs)
                if t is not None:
                    return t
        raise NoGenericWitness("no small kernel combination avoids the extra incidences")

    # finite field: enumerate the kernel outright
    try:
        elems = [e.payload for e in f.iter_elements()]
    except Exception as exc:  # pragma: no cover - descriptor without enumeration
        raise NoGenericWitness("cannot enumerate this field") from exc
    if len(elems) ** dim > 10 ** 6:
        raise NoGenericWitness("kernel too large to enumerate")
    for coeffs in product(elems, repeat=dim):
        if all(is_zero(c) for c in coeffs):
            continue
        t = admissible(list(coeffs))
        if t is not None:
            return t
    raise NoGenericWitness("every kernel vector hits an extra incidence")


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
    if not isinstance(k, int):
        raise ValueError("k must be an integer")
    normals = obj["normals"]
    if not isinstance(normals, list) or not all(
            isinstance(r, list) and all(isinstance(s, str) for s in r) for r in normals):
        raise ValueError("normals must be a list of lists of element strings")
    rows = [[parse_element(s, fd) for s in r] for r in normals]
    return Arrangement(fd, k, rows)
