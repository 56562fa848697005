"""Exact dense linear algebra over any field descriptor.

Determinants of size at most 3 are cofactor expansions on raw payloads,
with no inversions.  Larger ones use fraction-free (Bareiss) elimination
over the rationals and plain exact-division Gaussian elimination
everywhere else.  The library's one echelon is the span (_Span, and
_IntegerSpan on fraction-free integer rows over Q): an incremental row
echelon of raw payload rows.  The intersection lattice, the
discriminantal rank check and the translate solver build on it, and so
do rank, rank_of_rows, kernel, solve and inverse: the rank is the
span's, and a kernel basis, a solution of M x = b and M^-1 are null
vectors read off it by back-substitution.  inverse is the library's one
matrix inverse; the translate solver needs none, since its incidence
tests are discriminantal normals too.  The public functions unwrap
their field elements once and wrap the result once.  Pivots are the
first nonzero entry of a row; exact arithmetic needs no magnitude
heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactfield import FieldDescriptor, FieldElement, FieldMismatch, Rational


class NotSquare(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ZeroDivisionError):
    """A square matrix with no inverse."""


Vector = tuple[FieldElement, ...]


class Matrix:
    """Immutable row-major matrix of field elements sharing one descriptor."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldDescriptor, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        _check_field(entries, field)
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows, field: FieldDescriptor | None = None) -> "Matrix":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise DimensionMismatch("matrix needs at least one row")
        if field is None:
            field = rows[0][0].fd
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
        return cls(field, len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> "Matrix":
        zero, one = field.zero(), field.one()
        return cls(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[FieldElement]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("matrix product across fields")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.field.zero()
                for k in range(self.cols):
                    acc = acc + self[i, k] * other[k, j]
                out.append(acc)
        return Matrix(self.field, self.rows, other.cols, out)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        return NotImplemented

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} vs {self.cols} columns")
        return tuple(
            _dot(self.row(i), v, self.field) for i in range(self.rows))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix[{body}]"


def _check_field(elements, field: FieldDescriptor) -> None:
    for e in elements:
        if e.fd is not field and e.fd != field:
            raise FieldMismatch(f"entry field {e.fd!r} differs from {field!r}")


def _dot(u, v, field) -> FieldElement:
    acc = field.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


# ---------------------------------------------------------------------------
# determinant

def det(m: Matrix) -> FieldElement:
    """Determinant: cofactor expansion on payloads up to 3x3, then
    Bareiss over Q and Gaussian elimination over other fields."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    if m.rows == 0:
        return m.field.one()
    if m.rows <= 3:
        rows = [[e.payload for e in m.row(i)] for i in range(m.rows)]
        return FieldElement(m.field, _det_payloads(m.field, rows))
    if isinstance(m.field, Rational):
        return _det_bareiss_rational(m)
    return _det_gauss(m)


def _det_payloads(fd: FieldDescriptor, rows):
    """Payload of the determinant of a square matrix of payloads.  Up to
    3x3 it is a cofactor expansion through the descriptor hooks (at most
    nine products, no inversions); larger matrices go through det."""
    mul, add, neg = fd._mul, fd._add, fd._neg
    n = len(rows)
    if n > 3:
        return det(Matrix(fd, n, n, [FieldElement(fd, x) for r in rows for x in r])).payload
    if n == 1:
        return rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return add(mul(a, d), neg(mul(b, c)))
    (a, b, c), (d, e, f), (g, h, i) = rows
    return add(add(mul(a, add(mul(e, i), neg(mul(f, h)))),
                   mul(b, add(mul(f, g), neg(mul(d, i))))),
               mul(c, add(mul(d, h), neg(mul(e, g)))))


def _det_bareiss_rational(m: Matrix) -> FieldElement:
    # clear denominators row by row, then run integer Bareiss
    n = m.rows
    scale = Fraction(1)
    a: list[list[int]] = []
    for i in range(n):
        fracs = [e.payload for e in m.row(i)]
        mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
        scale *= mult
        a.append([int(f * mult) for f in fracs])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return m.field.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return m.field.from_fraction(Fraction(sign * a[n - 1][n - 1]) / scale)


def _det_gauss(m: Matrix) -> FieldElement:
    n = m.rows
    a = m.row_list()
    field = m.field
    result = field.one()
    for k in range(n):
        pivot_row = None
        for i in range(k, n):
            if not a[i][k].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return field.zero()
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            result = -result
        pivot = a[k][k]
        result = result * pivot
        inv = pivot.inv()
        for i in range(k + 1, n):
            factor = a[i][k] * inv
            if factor.is_zero():
                continue
            for j in range(k + 1, n):
                a[i][j] = a[i][j] - factor * a[k][j]
            a[i][k] = field.zero()
    return result


def det2(u: Vector, v: Vector) -> FieldElement:
    """Determinant of two 2-vectors; the workhorse of the plane sweeps."""
    if len(u) != 2 or len(v) != 2:
        raise DimensionMismatch("det2 needs 2-vectors")
    return u[0] * v[1] - u[1] * v[0]


# ---------------------------------------------------------------------------
# the span: echelon, rank, kernel, solve, inverse

class _Span:
    """Row echelon of a subspace of K^n, on raw field payloads.

    Rows are kept as (pivot, pivot entry, other nonzero entries) with the
    pivot the row's first nonzero coordinate; every row vanishes at the
    pivots of the rows before it, so the pivots are the leading positions
    of the row space.  reduced_key(v) reduces v modulo the echelon to the
    one vector of v + span that vanishes at every pivot, and returns its
    canonical projective class: two vectors span the same subspace
    together with self iff their keys are equal.  A key is a valid next
    row.  This class works through the descriptor's payload hooks and
    keys by the vector scaled to a leading one; over Q use _IntegerSpan
    (_Span.over picks).  Spans made by extended() share one memo of
    inverted leading entries, which repeat across a lattice.
    """

    __slots__ = ("field", "rows", "zero", "one", "inverses")

    def __init__(self, field: FieldDescriptor, rows=(), inverses=None):
        self.field = field
        self.rows = list(rows)
        self.zero = field._coerce_int(0)
        self.one = field._coerce_int(1)
        self.inverses = {} if inverses is None else inverses

    @staticmethod
    def over(field: FieldDescriptor, rows=()) -> "_Span":
        """The span of the given payload rows."""
        span = _IntegerSpan(field) if isinstance(field, Rational) else _Span(field)
        for row in rows:
            span.insert(span.row(row))
        return span

    def row(self, payloads) -> list:
        """The raw row of a payload vector."""
        return list(payloads)

    def _reduce(self, w: list) -> list:
        fd = self.field
        add, mul, neg, is_zero = fd._add, fd._mul, fd._neg, fd._is_zero
        for piv, _, rest in self.rows:
            c = w[piv]
            if not is_zero(c):
                nc = neg(c)
                for i, x in rest:
                    w[i] = add(w[i], mul(nc, x))
                w[piv] = self.zero
        return w

    def _scaled(self, w: list, j: int, lead) -> tuple:
        if lead == self.one:
            return tuple(w)
        inv = self.inverses.get(lead)
        if inv is None:
            inv = self.inverses[lead] = self.field._inv(lead)
        mul, is_zero = self.field._mul, self.field._is_zero
        w = [x if is_zero(x) else mul(x, inv) for x in w]
        w[j] = self.one
        return tuple(w)

    def reduced_key(self, row) -> tuple | None:
        """Canonical class of row reduced modulo the echelon; None when
        row lies in the span."""
        w = self._reduce(list(row))
        is_zero = self.field._is_zero
        for j, lead in enumerate(w):
            if not is_zero(lead):
                return self._scaled(w, j, lead)
        return None

    def _push(self, key) -> None:
        is_zero = self.field._is_zero
        nonzero = [(i, x) for i, x in enumerate(key) if not is_zero(x)]
        piv, lead = nonzero[0]
        self.rows.append((piv, lead, tuple(nonzero[1:])))

    def extended(self, key) -> "_Span":
        """A new span with the key of a vector outside this one added."""
        out = type(self)(self.field, self.rows, self.inverses)
        out._push(key)
        return out

    def insert(self, row) -> None:
        """Add row to the span; a row already inside changes nothing."""
        key = self.reduced_key(row)
        if key is not None:
            self._push(key)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> set[int]:
        return {piv for piv, _, _ in self.rows}

    def null_vector(self, ncols: int, col: int) -> list:
        """The payload vector v with v[col] = 1, zero at every other
        non-pivot column, on which every row vanishes: back-substitution
        in reverse insertion order, each row fixing its pivot from the
        later pivots and the free columns.  v is kept as a dict of its
        nonzero entries, so products with zero entries are never formed."""
        fd = self.field
        add, mul, neg, is_zero = fd._add, fd._mul, fd._neg, fd._is_zero
        one = self.one
        v = {col: one}
        for piv, _, rest in reversed(self.rows):  # keys lead with one
            acc = None
            for i, x in rest:
                y = v.get(i)
                if y is not None:
                    t = x if y == one else mul(x, y)
                    acc = t if acc is None else add(acc, t)
            if acc is not None and not is_zero(acc):
                v[piv] = neg(acc)
        return self._dense(v, ncols)

    def _dense(self, v: dict, ncols: int) -> list:
        out = [self.zero] * ncols
        for i, y in v.items():
            out[i] = y
        return out

    def kernel(self, ncols: int) -> list[list]:
        """Payload basis of the vectors on which every row vanishes, one
        per non-pivot column, as reduced row echelon form gives it."""
        pivots = self.pivots()
        return [self.null_vector(ncols, c) for c in range(ncols) if c not in pivots]


class _IntegerSpan(_Span):
    """_Span over Q on fraction-free integer rows: every row is primitive,
    a reduction step scales the vector instead of dividing, and the key
    is the primitive vector with a positive leading entry.  Null vectors
    come back as Fractions."""

    __slots__ = ()

    def row(self, payloads) -> list:
        den = lcm(*(q.denominator for q in payloads))
        return [q.numerator * (den // q.denominator) for q in payloads]

    def _reduce(self, w: list) -> list:
        for piv, a, rest in self.rows:
            c = w[piv]
            if c:
                g = gcd(a, c)
                a, c = a // g, c // g
                if a != 1:
                    w = [a * x for x in w]
                for i, x in rest:
                    w[i] -= c * x
                w[piv] = 0
        return w

    def _scaled(self, w: list, j: int, lead: int) -> tuple:
        g = gcd(*w)
        if lead < 0:
            g = -g
        return tuple(x // g for x in w) if g != 1 else tuple(w)

    def null_vector(self, ncols: int, col: int) -> list:
        v = {col: self.one}
        for piv, lead, rest in reversed(self.rows):
            acc = sum(x * v[i] for i, x in rest if i in v)
            if acc:
                v[piv] = -acc / lead
        return self._dense(v, ncols)


def _wrap(fd: FieldDescriptor, v) -> Vector:
    return tuple(FieldElement(fd, x) for x in v)


def _matrix_rows(m: Matrix) -> list[list]:
    return [[e.payload for e in m.row(i)] for i in range(m.rows)]


def rank(m: Matrix) -> int:
    return _Span.over(m.field, _matrix_rows(m)).rank


def rank_of_rows(vectors, field: FieldDescriptor) -> int:
    span = _Span.over(field)
    for v in vectors:
        _check_field(v, field)
        span.insert(span.row([e.payload for e in v]))
    return span.rank


def kernel(m: Matrix) -> list[Vector]:
    """Basis of the right null space {v : M v = 0}."""
    span = _Span.over(m.field, _matrix_rows(m))
    return [_wrap(m.field, v) for v in span.kernel(m.cols)]


def inverse(m: Matrix) -> Matrix:
    """M^-1, read off the kernel of [M | -I]; raises SingularMatrix when M
    has no inverse."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    fd, n = m.field, m.rows
    zero, minus_one = fd._coerce_int(0), fd._coerce_int(-1)
    span = _Span.over(fd, (row + [minus_one if j == i else zero for j in range(n)]
                           for i, row in enumerate(_matrix_rows(m))))
    # [M | -I] always has rank n; M is invertible iff no pivot lies in -I
    if any(piv >= n for piv in span.pivots()):
        raise SingularMatrix(f"singular {n}x{n} matrix")
    # column j of M^-1 is u in the null vector (u, e_j) of column n + j
    cols = [span.null_vector(2 * n, n + j) for j in range(n)]
    return Matrix(fd, n, n, [FieldElement(fd, col[i]) for i in range(n) for col in cols])


def solve(m: Matrix, b: Vector):
    """Solve M x = b; returns (particular solution or None, kernel basis).
    The solution is the null vector (x, 1) of [M | -b], which exists iff
    the last column is not a pivot."""
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} vs {m.rows} rows")
    fd = m.field
    rows = _matrix_rows(m)
    span = _Span.over(fd, (row + [fd._neg(e.payload)] for row, e in zip(rows, b)))
    null = kernel(m)
    if m.cols in span.pivots():
        return None, null
    return _wrap(fd, span.null_vector(m.cols + 1, m.cols)[:m.cols]), null


# ---------------------------------------------------------------------------
# 3-space cross product

def cross3(u: Vector, v: Vector) -> Vector:
    if len(u) != 3 or len(v) != 3:
        raise DimensionMismatch("cross3 needs 3-vectors")
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
