"""Exact linear algebra on raw field payloads, over any field descriptor.

The one determinant, _det_payloads, works through the descriptor hooks:
a cofactor expansion up to 3x3, with no inversions, and the span above
that; its one caller is Arrangement.minors, each k x k minor of an
arrangement, once.  The library's one echelon is the span (_Span, and
_IntegerSpan on fraction-free integer rows over Q, read off the
numerators of Q's ((n,), d) payloads): an incremental row echelon of
raw payload rows.  Determinants above 3x3, the intersection lattice and
the translate solver build on it; the solver's kernel basis is null
vectors read off the span by back-substitution.  Pivots are the first
nonzero entry of a row; exact arithmetic needs no magnitude heuristics.
"""

from __future__ import annotations

import operator
from math import gcd

from .exactfield import FieldDescriptor, FieldElement, Rational


class DimensionMismatch(ValueError):
    pass


Vector = tuple[FieldElement, ...]


# ---------------------------------------------------------------------------
# determinant

def _det_payloads(fd: FieldDescriptor, rows):
    """Payload of the determinant of a square matrix of payloads.  2x2
    and 3x3 are a cofactor expansion through the descriptor hooks (at
    most nine products, no inversions); other sizes are read off the
    span of their rows."""
    mul, add, neg = fd._mul, fd._add, fd._neg
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        return add(mul(a, d), neg(mul(b, c)))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return add(add(mul(a, add(mul(e, i), neg(mul(f, h)))),
                       mul(b, add(mul(f, g), neg(mul(d, i))))),
                   mul(c, add(mul(d, h), neg(mul(e, g)))))
    # above 3x3: reducing a row only adds multiples of earlier rows, and
    # each key is 1 at its own pivot and 0 at every earlier pivot, so det
    # is the product of the leads the keys scale away, negated on an odd
    # pivot order.  A plain _Span, not _Span.over: _IntegerSpan rescales.
    span = _Span(fd)
    result = span.one
    for row in rows:
        w = span._reduce(list(row))
        j = next((j for j, x in enumerate(w) if not fd._is_zero(x)), None)
        if j is None:
            return span.zero
        result = mul(result, w[j])
        if sum(piv > j for piv, _, _ in span.rows) % 2:
            result = neg(result)
        span._push(span._scaled(w, j, w[j]))
    return result


# ---------------------------------------------------------------------------
# the span: echelon and kernel

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

    def _zero_test(self):  # of a row entry
        return self.field._is_zero

    def reduced_key(self, row) -> tuple | None:
        """Canonical class of row reduced modulo the echelon; None when
        row lies in the span."""
        w = self._reduce(list(row))
        is_zero = self._zero_test()
        for j, lead in enumerate(w):
            if not is_zero(lead):
                return self._scaled(w, j, lead)
        return None

    def _push(self, key) -> None:
        is_zero = self._zero_test()
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
    is the primitive vector with a positive leading entry.  Row entries
    are ints, not payloads; null vectors come back as Q payloads."""

    __slots__ = ()

    def row(self, payloads) -> list:
        return [c for (c,) in self.field._integral(payloads)]

    def _zero_test(self):
        return operator.not_

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
        # numerators over one denominator, scaled by each pivot entry used
        v, den = {col: 1}, 1
        for piv, lead, rest in reversed(self.rows):
            acc = sum(x * v[i] for i, x in rest if i in v)
            if acc:
                v = {i: y * lead for i, y in v.items()}
                den *= lead
                v[piv] = -acc
        norm = self.field._norm
        return self._dense({i: norm([y], den) for i, y in v.items()}, ncols)
