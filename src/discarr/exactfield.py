"""Exact arithmetic over the ground fields used by the library.

Supported fields: the rationals, quadratic extensions Q(sqrt(d)), prime
fields F_p, small Galois fields F_{p^m}, and cyclotomic fields Q(zeta_m).
Every element carries its field descriptor; equality and zero tests are
exact (no epsilon anywhere).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable


class FieldMismatch(TypeError):
    """Two operands belong to different fields."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of the additive identity."""


class ParseError(ValueError):
    """Element string rejected; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# small integer helpers

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        if n % f == 0:
            n //= f
        f += 1
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def _totient(m: int) -> int:
    result = m
    for f in _prime_factors(m):
        result -= result // f
    return result


def _divisors(m: int) -> list[int]:
    small, large = [], []
    f = 1
    while f * f <= m:
        if m % f == 0:
            small.append(f)
            if f != m // f:
                large.append(m // f)
        f += 1
    return small + large[::-1]


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)

def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; division must leave no remainder
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of
    the proper divisors of m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m in _CYCLO_CACHE:
        return _CYCLO_CACHE[m]
    num = [-1] + [0] * (m - 1) + [1]
    for d in _divisors(m):
        if d < m:
            num = _poly_div_exact(num, list(cyclotomic_polynomial(d)))
    result = tuple(num)
    _CYCLO_CACHE[m] = result
    return result


# ---------------------------------------------------------------------------
# descriptors

class FieldDescriptor:
    """Identifies a concrete field and implements its payload arithmetic."""

    kind: str = "abstract"

    # subclasses override all payload hooks below
    def _add(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _fmt(self, a) -> str:
        raise NotImplementedError

    def _coerce_int(self, n: int):
        raise NotImplementedError

    def characteristic(self) -> int:
        return 0

    def generator(self) -> "FieldElement":
        raise ParseError("field has no generator symbol", 0)

    def iter_elements(self):
        """Iterate every element; only finite fields support this."""
        raise FieldMismatch(f"{self.kind} is not a finite field")

    # element factories ----------------------------------------------------
    def element(self, payload) -> "FieldElement":
        return FieldElement(self, payload)

    def zero(self) -> "FieldElement":
        return self.element(self._coerce_int(0))

    def one(self) -> "FieldElement":
        return self.element(self._coerce_int(1))

    def from_int(self, n: int) -> "FieldElement":
        return self.element(self._coerce_int(n))

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()

    def __repr__(self):
        return self.kind


class Rational(FieldDescriptor):
    kind = "rational"

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("1/0 in Q")
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _fmt(self, a):
        return _fmt_fraction(a)

    def _coerce_int(self, n):
        return Fraction(n)

    def from_fraction(self, q: Fraction) -> "FieldElement":
        return self.element(Fraction(q))


class Quadratic(FieldDescriptor):
    """Q(g) with g*g = d, d a squarefree integer other than 0 and 1."""

    kind = "quadratic"

    def __init__(self, d: int):
        if d in (0, 1) or not _is_squarefree(d):
            raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
        self.d = d

    def _key(self):
        return (self.d,)

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _neg(self, a):
        return (-a[0], -a[1])

    def _mul(self, a, b):
        return (a[0] * b[0] + self.d * a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def _inv(self, a):
        # norm a0^2 - d*a1^2 vanishes only at zero because d is not a square
        norm = a[0] * a[0] - self.d * a[1] * a[1]
        if norm == 0:
            raise DivisionByZero("1/0 in quadratic field")
        return (a[0] / norm, -a[1] / norm)

    def _is_zero(self, a):
        return a[0] == 0 and a[1] == 0

    def _fmt(self, a):
        return _fmt_terms([(a[0], 0), (a[1], 1)])

    def _coerce_int(self, n):
        return (Fraction(n), Fraction(0))

    def generator(self):
        return self.element((Fraction(0), Fraction(1)))

    def __repr__(self):
        return f"quadratic(d={self.d})"


class Prime(FieldDescriptor):
    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p

    def _key(self):
        return (self.p,)

    def characteristic(self):
        return self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def _is_zero(self, a):
        return a == 0

    def _fmt(self, a):
        return str(a)

    def _coerce_int(self, n):
        return n % self.p

    def iter_elements(self):
        for a in range(self.p):
            yield self.element(a)

    def __repr__(self):
        return f"prime(p={self.p})"


# Fields with at most this many elements add, multiply and invert
# through exp/log/Zech tables over a primitive element; larger ones add
# and multiply as polynomials and invert as a^(q-2).
_GALOIS_TABLE_LIMIT = 1 << 12


class Galois(FieldDescriptor):
    """F_{p^m} as F_p[x]/(modulus); payload is a coefficient tuple.

    Payloads stay canonical coefficient tuples (constant term first).
    For fields of at most _GALOIS_TABLE_LIMIT elements the constructor
    finds a primitive element g (the order test on the prime factors of
    q - 1) and tabulates g^i, its inverse map and the Zech logarithms
    zech[d] = log(1 + g^d) (None where 1 + g^d = 0), so a product is one
    addition of logarithms, an inverse or a negation one subtraction or
    shift of a logarithm, and a sum g^i + g^j = g^(i + zech[j - i]) one
    lookup.  Larger fields add coefficientwise, multiply polynomials
    modulo the modulus and invert as a^(q-2) by square-and-multiply.
    """

    kind = "galois"

    def __init__(self, p: int, modulus: Iterable[int]):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        mod = [c % p for c in modulus]
        while mod and mod[-1] == 0:
            mod.pop()
        if len(mod) < 3:
            raise ValueError("modulus must have degree >= 2")
        lead_inv = pow(mod[-1], p - 2, p)
        mod = [c * lead_inv % p for c in mod]
        self.p = p
        self.modulus = tuple(mod)
        self.deg = len(mod) - 1
        if not self._irreducible():
            raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")
        self.q = p ** self.deg
        self._zero = (0,) * self.deg
        self._exp = self._log = self._zech = None
        if self.q <= _GALOIS_TABLE_LIMIT:
            self._build_tables()

    def _irreducible(self) -> bool:
        # brute force: trial-divide by every monic polynomial of degree
        # 1..deg/2 (field sizes here are tiny)
        from itertools import product

        for d in range(1, self.deg // 2 + 1):
            for tail in product(range(self.p), repeat=d):
                trial = list(tail) + [1]
                if not any(self._poly_mod(list(self.modulus), trial)):
                    return False
        return True

    def _poly_mod(self, num: list[int], den: list[int]) -> list[int]:
        p = self.p
        dd = len(den) - 1
        num = [c % p for c in num]
        lead_inv = pow(den[-1], p - 2, p)
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i] * lead_inv % p
            if c:
                for j in range(dd + 1):
                    num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
        return num[:dd]

    def _pad(self, coeffs: list[int]) -> tuple[int, ...]:
        coeffs = coeffs + [0] * (self.deg - len(coeffs))
        return tuple(c % self.p for c in coeffs[: self.deg])

    def _poly_mul(self, a, b) -> tuple[int, ...]:
        prod = [0] * (2 * self.deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return self._pad(self._poly_mod(prod, list(self.modulus)))

    def _poly_pow(self, a, e: int) -> tuple[int, ...]:
        result = self._pad([1])
        while e:
            if e & 1:
                result = self._poly_mul(result, a)
            a = self._poly_mul(a, a)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        # g is primitive iff g^((q-1)/r) != 1 for every prime r | q-1
        from itertools import product

        n = self.q - 1
        one = self._pad([1])
        cofactors = [n // r for r in _prime_factors(n)]
        for g in product(range(self.p), repeat=self.deg):
            if g != self._zero and all(self._poly_pow(g, c) != one for c in cofactors):
                break
        exp = [one]
        for _ in range(n - 1):
            exp.append(self._poly_mul(exp[-1], g))
        self._log = {x: i for i, x in enumerate(exp)}
        # doubled so a sum of two logarithms needs no reduction
        self._exp = tuple(exp + exp)
        sums = (self._poly_add(one, x) for x in exp)
        self._zech = tuple(None if s == self._zero else self._log[s] for s in sums)

    def _key(self):
        return (self.p, self.modulus)

    def characteristic(self):
        return self.p

    def _poly_add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _add(self, a, b):
        zech = self._zech
        if zech is None:
            return self._poly_add(a, b)
        zero = self._zero
        if a == zero:
            return b
        if b == zero:
            return a
        la, lb = self._log[a], self._log[b]
        z = zech[lb - la]  # a negative index wraps modulo q - 1
        return zero if z is None else self._exp[la + z]

    def _neg(self, a):
        if self.p == 2:
            return a
        if self._log is None or a == self._zero:
            return tuple((-x) % self.p for x in a)
        # -1 = g^((q-1)/2)
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def _mul(self, a, b):
        log = self._log
        if log is None:
            return self._poly_mul(a, b)
        zero = self._zero
        if a == zero or b == zero:
            return zero
        return self._exp[log[a] + log[b]]

    def _inv(self, a):
        if self._is_zero(a):
            raise DivisionByZero(f"1/0 in F_{self.p}^{self.deg}")
        if self._log is None:
            return self._poly_pow(a, self.q - 2)
        return self._exp[self.q - 1 - self._log[a]]

    def _is_zero(self, a):
        # payloads are canonical padded tuples
        return a == self._zero

    def _fmt(self, a):
        return _fmt_terms([(Fraction(c), i) for i, c in enumerate(a)])

    def _coerce_int(self, n):
        return self._pad([n % self.p])

    def generator(self):
        return self.element(self._pad([0, 1]))

    def iter_elements(self):
        from itertools import product as _product

        for coeffs in _product(range(self.p), repeat=self.deg):
            yield self.element(tuple(coeffs))

    def __repr__(self):
        return f"galois(p={self.p}, modulus={list(self.modulus)})"


class Cyclotomic(FieldDescriptor):
    """Q(zeta_m): payload is (integer coefficient tuple, positive denominator).

    Coefficients represent a polynomial in the generator reduced mod the
    m-th cyclotomic polynomial, so the tuple has length phi(m).  Keeping a
    single shared denominator keeps sweeps over integral elements in pure
    integer arithmetic.  A product reduces its high terms through a table
    of the powers x^e in the power basis; an inverse is the product of
    the other conjugates of a divided by the rational norm N(a), with each
    conjugate zeta -> zeta^j read off the same table.
    """

    kind = "cyclotomic"

    def __init__(self, m: int):
        if m < 3:
            raise ValueError(f"m must be >= 3, got {m}")
        self.m = m
        self.phi = _totient(m)
        self.poly = cyclotomic_polynomial(m)
        # power table: x^e in the power basis for every e < max(m, 2phi-1);
        # rows phi..2phi-2 reduce a product, rows i*j mod m conjugate
        powers = [tuple(int(i == e) for i in range(self.phi)) for e in range(self.phi)]
        top = [-c for c in self.poly[:-1]]  # x^phi
        while len(powers) < max(m, 2 * self.phi - 1):
            prev = powers[-1]  # times x: shift up and fold x^phi back in
            powers.append(tuple(lo + prev[-1] * t for lo, t in zip((0,) + prev[:-1], top)))
        self._powers = tuple(powers)

    def _key(self):
        return (self.m,)

    def _norm(self, vec: list[int], den: int):
        if den < 0:
            vec = [-v for v in vec]
            den = -den
        g = den
        for v in vec:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            vec = [v // g for v in vec]
            den //= g
        if all(v == 0 for v in vec):
            return ((0,) * self.phi, 1)
        return (tuple(vec), den)

    def _add(self, a, b):
        (va, da), (vb, db) = a, b
        if da == db:
            return self._norm([x + y for x, y in zip(va, vb)], da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return self._norm([x * ma + y * mb for x, y in zip(va, vb)], da * ma)

    def _neg(self, a):
        return (tuple(-v for v in a[0]), a[1])

    def _mul(self, a, b):
        (va, da), (vb, db) = a, b
        n = self.phi
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(va):
            if ai:
                for j, bj in enumerate(vb):
                    conv[i + j] += ai * bj
        out = conv[:n]
        for i in range(n, 2 * n - 1):
            c = conv[i]
            if c:
                row = self._powers[i]
                for j in range(n):
                    out[j] += c * row[j]
        return self._norm(out, da * db)

    def _inv(self, a):
        # a^-1 = P / N(a) with P the product of the conjugates sigma_j(a),
        # zeta -> zeta^j for 1 < j < m coprime to m; a * P = N(a) is rational
        if self._is_zero(a):
            raise DivisionByZero("1/0 in cyclotomic field")
        va, da = a
        m, powers = self.m, self._powers
        prod = self._coerce_int(1)
        for j in range(2, m):
            if gcd(j, m) == 1:
                conj = [0] * self.phi
                for i, v in enumerate(va):
                    if v:
                        for t, r in enumerate(powers[i * j % m]):
                            conj[t] += v * r
                prod = self._mul(prod, (tuple(conj), 1))
        norm = self._mul((va, 1), prod)[0][0]
        return self._norm([da * v for v in prod[0]], norm)

    def _is_zero(self, a):
        return all(v == 0 for v in a[0])

    def _fmt(self, a):
        va, da = a
        return _fmt_terms([(Fraction(v, da), i) for i, v in enumerate(va)])

    def _coerce_int(self, n):
        vec = [0] * self.phi
        vec[0] = n
        return self._norm(vec, 1)

    def from_fraction(self, q: Fraction) -> "FieldElement":
        vec = [0] * self.phi
        vec[0] = q.numerator
        return self.element(self._norm(vec, q.denominator))

    def generator(self):
        vec = [0] * self.phi
        vec[1] = 1
        return self.element((tuple(vec), 1))

    def coefficients(self, x: "FieldElement") -> tuple[Fraction, ...]:
        va, da = x.payload
        return tuple(Fraction(v, da) for v in va)

    def __repr__(self):
        return f"cyclotomic(m={self.m})"


# ---------------------------------------------------------------------------
# elements

class FieldElement:
    __slots__ = ("fd", "payload")

    def __init__(self, fd: FieldDescriptor, payload):
        self.fd = fd
        self.payload = payload

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.fd is not self.fd and other.fd != self.fd:
                raise FieldMismatch(f"{self.fd!r} vs {other.fd!r}")
            return other
        if isinstance(other, int):
            return self.fd.from_int(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.fd, self.fd._add(self.payload, o.payload))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.fd, self.fd._neg(self.payload))

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.fd, self.fd._add(self.payload, self.fd._neg(o.payload)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.fd, self.fd._add(o.payload, self.fd._neg(self.payload)))

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.fd, self.fd._mul(self.payload, o.payload))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.fd, self.fd._mul(self.payload, self.fd._inv(o.payload)))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.fd, self.fd._mul(o.payload, self.fd._inv(self.payload)))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        result = self.fd.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inv(self) -> "FieldElement":
        return FieldElement(self.fd, self.fd._inv(self.payload))

    def is_zero(self) -> bool:
        return self.fd._is_zero(self.payload)

    def __eq__(self, other):
        # an element equals only elements: equality with a bare int would
        # need that int's hash too; compare with fd.from_int(n)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if other.fd is not self.fd and other.fd != self.fd:
            raise FieldMismatch(f"{self.fd!r} vs {other.fd!r}")
        return self.payload == other.payload

    def __hash__(self):
        return hash((self.fd, self.payload))

    def __repr__(self):
        return self.fd._fmt(self.payload)

    def __bool__(self):
        return not self.is_zero()


def embed(value, fd: FieldDescriptor) -> FieldElement:
    """Embed an integer, Fraction, or rational FieldElement into fd.

    Only characteristic-0 targets accept fractional values; use
    fd.from_int for finite fields.
    """
    if isinstance(value, FieldElement):
        if value.fd == fd:
            return value
        if value.fd != Rational():
            raise FieldMismatch(f"cannot embed {value.fd!r} into {fd!r}")
        value = value.payload
    if isinstance(value, int):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        raise FieldMismatch(f"cannot embed {type(value).__name__} into {fd!r}")
    if fd.characteristic() != 0:
        raise FieldMismatch("rational embedding requires characteristic 0")
    if isinstance(fd, (Rational, Cyclotomic)):
        return fd.from_fraction(value)
    return fd.from_int(value.numerator) / fd.from_int(value.denominator)


# ---------------------------------------------------------------------------
# formatting and parsing

def _fmt_fraction(q: Fraction) -> str:
    return str(q)


def _fmt_terms(terms: list[tuple[Fraction, int]]) -> str:
    """Render sum of coeff * g^power, omitting zero terms."""
    parts = []
    for coeff, power in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        if power == 0:
            body = _fmt_fraction(mag)
        else:
            gpart = "g" if power == 1 else f"g^{power}"
            body = gpart if mag == 1 else f"{_fmt_fraction(mag)}*{gpart}"
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


_TOKEN_RE = re.compile(r"\s*(\d+|[g+\-*/^])")


def _tokenize(s: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {s[pos:].strip()[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_element(s: str, fd: FieldDescriptor) -> FieldElement:
    """Parse an element string: signed rationals plus terms in g.

    Grammar: term ((+|-) term)* where term is `a`, `a/b`, `a*g^k`, `g^k`,
    or `g`.  Whitespace is insignificant.
    """
    tokens = _tokenize(s)
    if not tokens:
        raise ParseError("empty element", 0)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_number() -> tuple[Fraction, int]:
        tok, pos = take()
        if not tok.isdigit():
            raise ParseError("expected a number", pos)
        value = Fraction(int(tok))
        if peek() == "/":
            take()
            tok2, pos2 = take() if idx < len(tokens) else (None, pos)
            if tok2 is None or not tok2.isdigit():
                raise ParseError("expected denominator", pos2)
            if int(tok2) == 0:
                raise ParseError("zero denominator", pos2)
            value /= int(tok2)
        return value, pos

    def parse_gpower() -> int:
        tok, pos = take()
        assert tok == "g"
        if peek() == "^":
            take()
            if idx >= len(tokens) or not tokens[idx][0].isdigit():
                raise ParseError("expected exponent", tokens[idx - 1][1])
            etok, _ = take()
            return int(etok)
        return 1

    result = fd.zero()
    first = True
    while idx < len(tokens):
        sign = 1
        if peek() in ("+", "-"):
            tok, pos = take()
            sign = -1 if tok == "-" else 1
        elif not first:
            raise ParseError("expected + or - between terms", tokens[idx][1])
        first = False
        if peek() is None:
            raise ParseError("dangling sign", tokens[idx - 1][1])
        if peek() == "g":
            power = parse_gpower()
            coeff = Fraction(1)
        else:
            coeff, pos = parse_number()
            power = 0
            if peek() == "*":
                take()
                if peek() != "g":
                    raise ParseError("expected g after *", tokens[idx - 1][1])
                power = parse_gpower()
        if power > 10**6:
            raise ParseError("exponent too large", 0)
        if fd.characteristic() == 0:
            term = embed(sign * coeff, fd)
        else:
            if coeff.denominator != 1:
                raise ParseError("fractional coefficient in finite field", 0)
            term = fd.from_int(sign * coeff.numerator)
        if power:
            term = term * (fd.generator() ** power)
        result = result + term
    return result


def format_element(x: FieldElement) -> str:
    return x.fd._fmt(x.payload)


# ---------------------------------------------------------------------------
# descriptor (de)serialization

def descriptor_to_json(fd: FieldDescriptor) -> dict:
    if isinstance(fd, Rational):
        return {"kind": "rational"}
    if isinstance(fd, Quadratic):
        return {"kind": "quadratic", "d": fd.d}
    if isinstance(fd, Prime):
        return {"kind": "prime", "p": fd.p}
    if isinstance(fd, Galois):
        return {"kind": "galois", "p": fd.p, "modulus": list(fd.modulus)}
    if isinstance(fd, Cyclotomic):
        return {"kind": "cyclotomic", "m": fd.m}
    raise ValueError(f"unknown descriptor {fd!r}")


def descriptor_from_json(obj: dict) -> FieldDescriptor:
    try:
        kind = obj["kind"]
        if kind == "rational":
            return Rational()
        if kind == "quadratic":
            return Quadratic(int(obj["d"]))
        if kind == "prime":
            return Prime(int(obj["p"]))
        if kind == "galois":
            return Galois(int(obj["p"]), [int(c) for c in obj["modulus"]])
        if kind == "cyclotomic":
            return Cyclotomic(int(obj["m"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad field descriptor: {exc}", 0) from exc
    raise ParseError(f"unknown field kind {kind!r}", 0)
