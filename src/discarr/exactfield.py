"""Exact arithmetic over the ground fields used by the library.

Supported fields: the rationals, quadratic extensions Q(sqrt(d)), prime
fields F_p, small Galois fields F_{p^m}, and cyclotomic fields Q(zeta_m).
Every element carries its field descriptor; equality and zero tests are
exact (no epsilon anywhere).  There are three arithmetics, one per
kind of field: characteristic 0, F_p and F_{p^m}.  Q, Q(sqrt(d)) and
Q(zeta_m) are the one characteristic-0 arithmetic, _PowerBasis, on
Q[x]/(f) for f monic over the integers (f = x for Q); they differ only
in f and in their conjugates.  An F_p payload is its residue and an
F_{p^m} payload the int whose base-p digits are its coefficients, so
both compare and hash as ints and a small F_{p^m} multiplies by table
lookups.  _poly_divmod is the one polynomial long division, for the
cyclotomic polynomials and F_{p^m}.  _Value is the base of the
library's other value classes: each names its key once.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm, prod
from operator import attrgetter
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


class _Value:
    """An immutable value identified by the attributes its class names in
    _fields: equality (with instances of the same class only), hashing,
    order and the keyword repr all read that one key.  A subclass
    declares __slots__, so it has no instance dict."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        # one name gives the attribute itself, several give a tuple;
        # attrgetter is no descriptor, so self._key(self) reads the key
        cls._key = attrgetter(*cls._fields)

    @classmethod
    def _from_key(cls, key):
        """The instance whose _key is key, built without __init__, for a
        caller that has proven key canonical (what __init__ would have
        made of it).  Only a class whose own __slots__ are its _fields
        takes this route, so every slot is filled and nothing else is."""
        fields = cls._fields
        if cls.__dict__.get("__slots__") != fields:
            raise TypeError(f"{cls.__name__}: __slots__ are not _fields")
        obj = object.__new__(cls)
        if len(fields) == 1:
            setattr(obj, fields[0], key)
        else:
            for name, value in zip(fields, key):
                setattr(obj, name, value)
        return obj

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __lt__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) < self._key(other)

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


# ---------------------------------------------------------------------------
# small integer helpers

# Miller-Rabin on the first 13 prime bases is deterministic below this
# bound (J. Sorenson and J. Webster, Math. Comp. 86 (2017)); Prime and
# Galois refuse larger p
_PRIME_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Primality of 0 <= n < _PRIME_LIMIT, decided by strong probable-prime
    tests to the bases _MR_BASES."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if p >= _PRIME_LIMIT:
        raise ValueError(f"p must be below {_PRIME_LIMIT}, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


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


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, low degree first)

def _poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by a monic den, over the integers."""
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            quot[i - dd] = c
            for j, dj in enumerate(den):
                rem[i - dd + j] -= c * dj
    return quot, rem[:dd]


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, constant term first.

    Computed by exact division of x^m - 1 by the cyclotomic polynomials of
    the proper divisors of m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num = [-1] + [0] * (m - 1) + [1]
    for e in range(1, m):
        if m % e == 0:
            num, rem = _poly_divmod(num, cyclotomic_polynomial(e))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(num)


# ---------------------------------------------------------------------------
# descriptors

class FieldDescriptor:
    """Identifies a concrete field and implements its payload arithmetic.

    A subclass declares its kind, its params (the names of its
    constructor's arguments, in order, each kept as an attribute), which
    of them are lists of integers rather than integers, and _label, its
    report label formatted from its attributes.  Equality, hashing, repr
    and the JSON form (descriptor_to_json) derive from these.  Each
    concrete descriptor also defines the seven payload hooks _add, _neg,
    _mul, _inv, _is_zero, _fmt and _coerce_int."""

    kind: str = "abstract"
    params: tuple[str, ...] = ()
    _list_params: tuple[str, ...] = ()
    _label: str

    def characteristic(self) -> int:
        return 0

    def generator(self) -> "FieldElement":
        raise ParseError("field has no generator symbol", 0)

    def iter_elements(self):
        """Iterate every element; only finite fields support this."""
        return (FieldElement(self, x) for x in self._payloads())

    def _payloads(self):
        """Every payload, in iter_elements order, unwrapped."""
        raise FieldMismatch(f"{self.kind} is not a finite field")

    # element factories ----------------------------------------------------
    def zero(self) -> "FieldElement":
        return FieldElement(self, self._coerce_int(0))

    def one(self) -> "FieldElement":
        return FieldElement(self, self._coerce_int(1))

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, self._coerce_int(n))

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return tuple(getattr(self, name) for name in self.params)

    def _json_params(self) -> dict:
        return {name: list(v) if name in self._list_params else v
                for name, v in zip(self.params, self._key())}

    @property
    def label(self) -> str:
        return self._label.format_map(vars(self))

    def __repr__(self):
        args = ", ".join(f"{name}={v!r}" for name, v in self._json_params().items())
        return f"{self.kind}({args})" if args else self.kind


class _PowerBasis(FieldDescriptor):
    """Q[x]/(f) for a monic irreducible integer f of degree phi: payload is
    (integer coefficient tuple, positive denominator).

    Coefficients represent a polynomial in the generator reduced mod f, so
    the tuple has length phi.  Keeping a single shared denominator keeps
    sweeps over integral elements in pure integer arithmetic.  A product
    reduces its high terms through a table of the powers x^e in the power
    basis; an inverse is the product of the other conjugates of a divided
    by the rational norm N(a) (H. Cohen, A Course in Computational
    Algebraic Number Theory, 4.2).  A subclass passes f and how many
    powers it reads, then sets _conjugates: for each other conjugate, the
    images of x^0..x^(phi-1) in the power basis.  Q is the degree-1 case
    f = x, whose payloads are ((n,), d) and which has no other conjugate.
    """

    def __init__(self, poly, npowers: int = 0):
        self.poly = tuple(poly)
        self.phi = len(self.poly) - 1
        # power table: x^e in the power basis for every e < npowers, and
        # at least through 2phi-2, the rows that reduce a product
        powers = [tuple(int(i == e) for i in range(self.phi)) for e in range(self.phi)]
        top = [-c for c in self.poly[:-1]]  # x^phi
        while len(powers) < max(npowers, 2 * self.phi - 1):
            prev = powers[-1]  # times x: shift up and fold x^phi back in
            powers.append(tuple(lo + prev[-1] * t for lo, t in zip((0,) + prev[:-1], top)))
        self._powers = tuple(powers)

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
        if not any(vec):
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
        # a^-1 = P / N(a) with P the product of the other conjugates of a;
        # a * P = N(a) is rational
        if self._is_zero(a):
            raise DivisionByZero(f"1/0 in {self.kind} field")
        va, da = a
        prod = None
        for images in self._conjugates:
            conj = [0] * self.phi
            for i, v in enumerate(va):
                if v:
                    for t, r in enumerate(images[i]):
                        conj[t] += v * r
            prod = (tuple(conj), 1) if prod is None else self._mul(prod, (tuple(conj), 1))
        if prod is None:  # Q: a is its own norm
            return self._norm([da], va[0])
        norm = self._mul((va, 1), prod)[0][0]
        return self._norm([da * v for v in prod[0]], norm)

    def _is_zero(self, a):
        return not any(a[0])

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
        return FieldElement(self, self._norm(vec, q.denominator))

    def generator(self):
        vec = [0] * self.phi
        vec[1] = 1
        return FieldElement(self, (tuple(vec), 1))

    def coefficients(self, x: "FieldElement") -> tuple[Fraction, ...]:
        va, da = x.payload
        return tuple(Fraction(v, da) for v in va)

    def _integral(self, payloads) -> list[tuple[int, ...]]:
        """The coefficient tuples of a vector of payloads, scaled by the
        lcm of their denominators."""
        den = lcm(*(d for _, d in payloads))
        return [tuple(c * (den // d) for c in vec) for vec, d in payloads]


class Rational(_PowerBasis):
    """Q as Q[x]/(x): the power basis of degree 1, payload ((n,), d), with
    no other conjugates (N(a) = a) and no generator symbol."""

    kind = "rational"
    _label = "Q"

    def __init__(self):
        super().__init__((0, 1))
        self._conjugates = ()

    generator = FieldDescriptor.generator


# |d| below this keeps the squarefree test to 2^16 trial divisors
_QUADRATIC_LIMIT = 1 << 32


class Quadratic(_PowerBasis):
    """Q(g) with g*g = d, d a squarefree integer other than 0 and 1 with
    |d| < 2^32: the power basis over x^2 - d, with the one other conjugate
    g -> -g."""

    kind = "quadratic"
    params = ("d",)
    _label = "Q(sqrt({d}))"

    def __init__(self, d: int):
        if abs(d) >= _QUADRATIC_LIMIT:
            raise ValueError(f"|d| must be below {_QUADRATIC_LIMIT}, got {d}")
        # squarefree: |d| is the product of its distinct prime factors
        if d in (0, 1) or prod(_prime_factors(abs(d))) != abs(d):
            raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
        self.d = d
        super().__init__((-d, 0, 1))
        self._conjugates = (((1, 0), (0, -1)),)


class Prime(FieldDescriptor):
    """F_p for a prime p below _PRIME_LIMIT; _certified builds a larger
    one that the caller has proven prime."""

    kind = "prime"
    params = ("p",)
    _label = "F{p}"

    def __init__(self, p: int):
        _check_prime(p)
        self.p = p

    @classmethod
    def _certified(cls, p: int) -> "Prime":
        """F_p for p of any size proven prime by the caller; only the
        modular image's Lucas-certified prime takes this route, and no
        field JSON reaches it."""
        fd = cls.__new__(cls)
        fd.p = p
        return fd

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
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def _fmt(self, a):
        return str(a)

    def _coerce_int(self, n):
        return n % self.p

    def _payloads(self):
        return range(self.p)


# Fields with at most this many elements multiply and invert through
# exp/log tables over a primitive element, and at odd p add through Zech
# logarithms; larger ones multiply as polynomials and invert as a^(q-2).
_GALOIS_TABLE_LIMIT = 1 << 12
# The most operations Galois may spend testing its modulus (0.15 s).
_TRIAL_DIVISION_BUDGET = 10 ** 6


class Galois(FieldDescriptor):
    """F_{p^m} as F_p[x]/(modulus); payload is an int in range(q).

    The payload of c_0 + c_1 x + ... + c_{m-1} x^(m-1) is the int whose
    base-p digits are c_0, ..., c_{m-1}, constant term lowest, so 0 and 1
    are the field's zero and one and p is the generator x.  For fields of
    at most _GALOIS_TABLE_LIMIT elements the constructor finds a
    primitive element g (the order test on the prime factors of q - 1)
    and tabulates _exp[i] = g^i, doubled so a sum of two logarithms needs
    no reduction, its inverse map _log, a list indexed by payload, and at
    odd p the Zech logarithms zech[d] = log(1 + g^d) (None where
    1 + g^d = 0).  So a product is one addition of logarithms, an inverse
    or a negation one subtraction or shift of a logarithm, and at odd p a
    sum g^i + g^j = g^(i + zech[j - i]) one lookup (Lidl and
    Niederreiter, Finite Fields, ch. 10).  _log[0] points past the
    doubled table into a run of zeros, so a product or negation of zero
    needs no test.  At p = 2 a sum is a ^ b, the digitwise sum.  Larger
    fields multiply and raise to powers on digit lists through
    _poly_divmod, add digitwise and invert as a^(q-2) by
    square-and-multiply.
    """

    kind = "galois"
    params = ("p", "modulus")
    _list_params = ("modulus",)
    _label = "F{q}"

    def __init__(self, p: int, modulus: Iterable[int]):
        _check_prime(p)
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
        self._places = tuple(p ** i for i in range(self.deg))
        self._exp = self._log = self._zech = None
        if self.q <= _GALOIS_TABLE_LIMIT:
            self._build_tables()

    def _irreducible(self) -> bool:
        # brute force: trial-divide by every monic polynomial of degree
        # d = 1..deg/2, p^d of them at (deg - d + 1)(d + 1) multiply-
        # subtracts plus 16 for the call each: at most p = 49999 at
        # degree 2 and degree 23 at p = 2 fit the budget
        work = 0
        for d in range(1, self.deg // 2 + 1):
            work += self.p ** d * ((self.deg - d + 1) * (d + 1) + 16)
            if work > _TRIAL_DIVISION_BUDGET:
                raise ValueError(f"testing irreducibility of degree {self.deg} over "
                                 f"F_{self.p} exceeds the budget")
        for d in range(1, self.deg // 2 + 1):
            for tail in product(range(self.p), repeat=d):
                trial = list(tail) + [1]
                if not any(c % self.p for c in _poly_divmod(self.modulus, trial)[1]):
                    return False
        return True

    def _digits(self, a: int) -> list[int]:
        """The deg coefficients of payload a, constant term first."""
        p, out = self.p, []
        for _ in range(self.deg):
            out.append(a % p)
            a //= p
        return out

    def _payload(self, digits) -> int:
        """The payload of coefficients in range(p), constant term first."""
        p, a = self.p, 0
        for c in reversed(digits):
            a = a * p + c
        return a

    def _poly_mul(self, a: list[int], b: list[int]) -> list[int]:
        """The digits of the product of two digit lists."""
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        p = self.p
        return [c % p for c in _poly_divmod(prod, self.modulus)[1]]

    def _poly_pow(self, a: int, e: int) -> int:
        # on digit lists throughout, so a is decoded once
        base, result = self._digits(a), self._digits(1)
        while e:
            if e & 1:
                result = self._poly_mul(result, base)
            base = self._poly_mul(base, base)
            e >>= 1
        return self._payload(result)

    def _digit_add(self, a: int, b: int) -> int:
        # a // w % p is the digit of a at place w
        p = self.p
        return sum((a // w + b // w) % p * w for w in self._places)

    def _build_tables(self) -> None:
        # g is primitive iff g^((q-1)/r) != 1 for every prime r | q-1; the
        # payloads below p are F_p, so the search starts at x
        n = self.q - 1
        cofactors = [n // r for r in _prime_factors(n)]
        g = next(g for g in range(self.p, self.q)
                 if all(self._poly_pow(g, c) != 1 for c in cofactors))
        exp, power, step = [1], self._digits(1), self._digits(g)
        for _ in range(n - 1):
            power = self._poly_mul(power, step)
            exp.append(self._payload(power))
        log = [2 * n] * self.q
        for i, x in enumerate(exp):
            log[x] = i
        self._log = log
        # a logarithm sum that reads log[0] lands in the zeros
        self._exp = tuple(exp + exp + [0] * (2 * n + 1))
        if self.p != 2:
            sums = (self._digit_add(1, x) for x in exp)
            self._zech = tuple(None if s == 0 else log[s] for s in sums)

    def characteristic(self):
        return self.p

    def _add(self, a, b):
        if self.p == 2:
            return a ^ b
        zech = self._zech
        if zech is None:
            return self._digit_add(a, b)
        if a == 0:
            return b
        if b == 0:
            return a
        la, lb = self._log[a], self._log[b]
        z = zech[lb - la]  # a negative index wraps modulo q - 1
        return 0 if z is None else self._exp[la + z]

    def _neg(self, a):
        if self.p == 2:
            return a
        if self._log is None:
            p = self.p
            return sum(-(a // w) % p * w for w in self._places)
        # -1 = g^((q-1)/2)
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def _mul(self, a, b):
        log = self._log
        if log is None:
            return self._payload(self._poly_mul(self._digits(a), self._digits(b)))
        return self._exp[log[a] + log[b]]

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}^{self.deg}")
        if self._log is None:
            return self._poly_pow(a, self.q - 2)
        return self._exp[self.q - 1 - self._log[a]]

    def _is_zero(self, a):
        # payloads are ints in range(q), and zero is 0
        return a == 0

    def _fmt(self, a):
        return _fmt_terms([(Fraction(c), i) for i, c in enumerate(self._digits(a))])

    def _coerce_int(self, n):
        return n % self.p

    def generator(self):
        return FieldElement(self, self.p)

    def _payloads(self):
        """In coefficient-list product order (constant term first), not payload order."""
        return (self._payload(coeffs) for coeffs in product(range(self.p), repeat=self.deg))


# the power table has m rows of phi(m) entries and the conjugates phi(m)
# rows each: at m = 509, a prime, construction takes about 0.12 s
_CYCLOTOMIC_LIMIT = 512


class Cyclotomic(_PowerBasis):
    """Q(zeta_m) for 3 <= m <= 512: the power basis over the m-th
    cyclotomic polynomial, of degree phi(m), with the conjugates
    zeta -> zeta^j for 1 < j < m coprime to m, x^i -> x^(i*j mod m) read
    off the power table."""

    kind = "cyclotomic"
    params = ("m",)
    _label = "Q(zeta{m})"

    def __init__(self, m: int):
        if not 3 <= m <= _CYCLOTOMIC_LIMIT:
            raise ValueError(f"m must be in 3..{_CYCLOTOMIC_LIMIT}, got {m}")
        self.m = m
        super().__init__(cyclotomic_polynomial(m), m)
        self._conjugates = tuple(tuple(self._powers[i * j % m] for i in range(self.phi))
                                 for j in range(2, m) if gcd(j, m) == 1)


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
    if isinstance(value, FieldElement) and value.fd != fd:
        if not isinstance(value.fd, Rational):
            raise FieldMismatch(f"cannot embed {value.fd!r} into {fd!r}")
        value = value.fd.coefficients(value)[0]
    if fd.characteristic() != 0 and not isinstance(value, FieldElement):
        raise FieldMismatch("rational embedding requires characteristic 0")
    return _as_element(fd, value)


def _as_element(fd: FieldDescriptor, value) -> FieldElement:
    """value as an element of fd: an element of fd itself, an int, or a
    Fraction (numerator over denominator in characteristic p)."""
    if isinstance(value, FieldElement):
        if value.fd is not fd and value.fd != fd:
            raise FieldMismatch(f"{value.fd!r} vs {fd!r}")
        return value
    if isinstance(value, int):
        return fd.from_int(value)
    if isinstance(value, Fraction):
        if fd.characteristic() == 0:
            return fd.from_fraction(value)
        return fd.from_int(value.numerator) / fd.from_int(value.denominator)
    raise FieldMismatch(f"cannot embed {type(value).__name__} into {fd!r}")


# ---------------------------------------------------------------------------
# formatting and parsing

def _fmt_terms(terms: list[tuple[Fraction, int]]) -> str:
    """Render sum of coeff * g^power, omitting zero terms."""
    parts = []
    for coeff, power in terms:
        if coeff == 0:
            continue
        mag = abs(coeff)
        if power == 0:
            body = str(mag)
        else:
            gpart = "g" if power == 1 else f"g^{power}"
            body = gpart if mag == 1 else f"{mag}*{gpart}"
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out


# one whole term of parse_element's grammar, with its surrounding
# whitespace; groups: sign, a, b, then g and k after a coefficient, or g
# and k alone
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*\*\s*(g)(?:\s*\^\s*(\d+))?)?"
                   r"|(g)(?:\s*\^\s*(\d+))?)\s*")


def parse_element(s: str, fd: FieldDescriptor) -> FieldElement:
    """Parse an element string: signed rationals plus terms in g.

    Grammar: term ((+|-) term)* where term is `a`, `a/b`, `a*g^k`,
    `a/b*g^k`, `a*g`, `g^k` or `g`.  Whitespace is insignificant.
    """
    if not s.strip():
        raise ParseError("empty element", 0)
    result, pos = fd.zero(), 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m:
            raise ParseError("expected a term", pos)
        sign, num, den, g, k, lone_g, lone_k = m.groups()
        if pos and not sign:
            raise ParseError("expected + or - between terms", pos)
        if den is not None and int(den) == 0:
            raise ParseError("zero denominator", m.start(3))
        coeff = Fraction(int(num or 1), int(den or 1))
        power = int(k or lone_k or 1)
        if power > 10**6:
            raise ParseError("exponent too large", pos)
        if fd.characteristic() and coeff.denominator != 1:
            raise ParseError("fractional coefficient in finite field", pos)
        term = _as_element(fd, -coeff if sign == "-" else coeff)
        if g or lone_g:  # even g^0 needs a field with a generator
            term = term * fd.generator() ** power
        result = result + term
        pos = m.end()
    return result


def format_element(x: FieldElement) -> str:
    return x.fd._fmt(x.payload)


# ---------------------------------------------------------------------------
# descriptor (de)serialization

_FIELD_KINDS = {cls.kind: cls for cls in (Rational, Quadratic, Prime, Galois, Cyclotomic)}


def descriptor_to_json(fd: FieldDescriptor) -> dict:
    return {"kind": fd.kind, **fd._json_params()}


def _json_int(value) -> int:
    # int() would truncate 5.9 and parse "7"; bool is an int subclass
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def descriptor_from_json(obj: dict) -> FieldDescriptor:
    try:
        kind = obj["kind"]
        cls = _FIELD_KINDS.get(kind) if isinstance(kind, str) else None
        if cls is not None:
            args = [[_json_int(c) for c in obj[name]] if name in cls._list_params
                    else _json_int(obj[name]) for name in cls.params]
            return cls(*args)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad field descriptor: {exc}", 0) from exc
    raise ParseError(f"unknown field kind {kind!r}", 0)
