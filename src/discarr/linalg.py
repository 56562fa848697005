"""Exact dense linear algebra over any field descriptor.

Determinants of size at most 3 are cofactor expansions on raw payloads,
with no inversions.  Larger ones use fraction-free (Bareiss) elimination
over the rationals and plain exact-division Gaussian elimination
everywhere else.  Rank, kernel, solve and inverse share one reduced
row echelon routine that works on raw payloads through the descriptor
hooks; the public functions unwrap their field elements once and wrap
the result once.  Pivots are the first nonzero entry in a column; exact
arithmetic needs no magnitude heuristics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
        for e in entries:
            if e.fd is not field and e.fd != field:
                raise FieldMismatch(f"entry field {e.fd!r} differs from {field!r}")
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
# echelon form, rank, kernel, solve, inverse

def _rref(rows: list[list], fd: FieldDescriptor) -> list[int]:
    """In-place reduced row echelon form of payload rows, through the
    descriptor hooks; returns the pivot column list."""
    add, mul, neg, inv, is_zero = fd._add, fd._mul, fd._neg, fd._inv, fd._is_zero
    zero, one = fd._coerce_int(0), fd._coerce_int(1)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if not is_zero(rows[i][c])), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        # rows r and below vanish left of column c, so only the tail changes
        lead = rows[r][c]
        tail = rows[r][c + 1:]
        if lead != one:
            s = inv(lead)
            tail = [x if is_zero(x) else mul(x, s) for x in tail]
            rows[r] = rows[r][:c] + [one] + tail
        for i in range(nrows):
            f = rows[i][c]
            if i != r and not is_zero(f):
                nf = neg(f)
                rows[i] = rows[i][:c] + [zero] + [
                    x if is_zero(y) else add(x, mul(nf, y))
                    for x, y in zip(rows[i][c + 1:], tail)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _payload_rows(vectors) -> list[list]:
    return [[e.payload for e in v] for v in vectors]


def _wrap(fd: FieldDescriptor, v) -> Vector:
    return tuple(FieldElement(fd, x) for x in v)


def _kernel_payloads(fd: FieldDescriptor, rows: list[list], ncols: int) -> list[list]:
    """Payload basis of {v : M v = 0} for M given as payload rows with
    ncols columns, which are reduced in place."""
    pivots = _rref(rows, fd)
    zero, one, neg = fd._coerce_int(0), fd._coerce_int(1), fd._neg
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = neg(rows[r][fc])
        basis.append(v)
    return basis


def _inverse_payloads(fd: FieldDescriptor, rows) -> list[list]:
    """Payload rows of M^-1 from one reduction of [M | I]; raises
    SingularMatrix when M has no inverse."""
    n = len(rows)
    zero, one = fd._coerce_int(0), fd._coerce_int(1)
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(rows)]
    pivots = _rref(aug, fd)
    # [M | I] always has rank n; M is invertible iff no pivot lies in I
    if pivots and pivots[-1] >= n:
        raise SingularMatrix(f"singular {n}x{n} matrix")
    return [row[n:] for row in aug]


def rank(m: Matrix) -> int:
    return len(_rref(_payload_rows(m.row_list()), m.field))


def rank_of_rows(vectors, field: FieldDescriptor) -> int:
    return len(_rref(_payload_rows(vectors), field))


def kernel(m: Matrix) -> list[Vector]:
    """Basis of the right null space {v : M v = 0}."""
    rows = _payload_rows(m.row_list())
    return [_wrap(m.field, v) for v in _kernel_payloads(m.field, rows, m.cols)]


def inverse(m: Matrix) -> Matrix:
    """M^-1 from one reduction of [M | I]; raises SingularMatrix when M
    has no inverse."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    fd = m.field
    inv_rows = _inverse_payloads(fd, _payload_rows(m.row_list()))
    return Matrix(fd, m.rows, m.cols, [FieldElement(fd, x) for row in inv_rows for x in row])


def solve(m: Matrix, b: Vector):
    """Solve M x = b; returns (particular solution or None, kernel basis)."""
    if len(b) != m.rows:
        raise DimensionMismatch(f"rhs length {len(b)} vs {m.rows} rows")
    fd = m.field
    aug = _payload_rows(m.row(i) + (b[i],) for i in range(m.rows))
    pivots = _rref(aug, fd)
    if m.cols in pivots:
        return None, kernel(m)
    x = [fd._coerce_int(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][m.cols]
    return _wrap(fd, x), kernel(m)


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
