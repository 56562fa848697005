"""Zero tests over Q(sqrt d) and Q(zeta_m) decided in one certified prime.

Every answer of the detectors and of the lattice is the vanishing
pattern of integer polynomials in the normals' entries: products of 2 x 2 minors,
cross-ratio equalities, [a b e][c d f] - [a b f][c d e] (which is
det(a x b, c x d, e x f)) and the minors of the discriminantal normals.
After each normal is scaled to integral coefficients (every test is
homogeneous in each normal), such a value alpha lies in Z[x]/(f).
Reducing x to a root r of f modulo a prime p sends Z[x]/(f) onto F_p
with a kernel P of index p; a nonzero alpha in P has p dividing
|N(alpha)|, since alpha Z[x]/(f) lies in P.  So when p
exceeds a bound on |N(alpha)| for every alpha tested, each test answers
the same in F_p as in K: this is the "big prime" modular method (von zur
Gathen and Gerhard, Modern Computer Algebra, ch. 5).

The bound: every embedding sends x to a root of modulus at most R (1 for
zeta_m, sqrt|d| for sqrt d), so |sigma(alpha)| is at most the l1 norm of
alpha's coefficients weighted by R^i, and |N(alpha)| is at most the
phi-th power of a bound on that.  The prime is p = 1 + c*M*3^a with c
odd and M = lcm(8, m) (m = 1 for Q(sqrt d)), so p - 1 is fully factored
and its 2-adic valuation s is that of M: 3 over Q(sqrt d), at most 9
over Q(zeta_m).  The Lucas n - 1 test (Crandall and Pomerance, Prime
Numbers, 4.1.1) proves p prime, and its primitive root g gives
zeta -> g^((p-1)/m).  Over Q(sqrt d), p has (d/p) = 1, and sqrt d mod p
is read off the 2-Sylow subgroup that g^((p-1)/2^s) generates, in at
most 2^(s-1) = 4 steps.  p = 1 mod 8 makes -1, 2 and -2 squares (and,
with 3 | p - 1, 3 and -3) for every c; under p = 3 mod 4 no prime would
admit Q(i).

Q is the degree-1 case of the same power basis, but modular_image
leaves it in place: its bound, and so the prime, grows with the input's
entries, and certifying a prime above a 2,000-bit bound takes seconds.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, lcm, prod

from .arrangement import Arrangement
from .exactfield import Cyclotomic, Prime, Quadratic, _PowerBasis, _prime_factors

# bases tried for the primitive root; the least one is small for every
# prime, and a candidate none of them certifies is skipped
_LUCAS_TRIES = 1000


def modular_image(a: Arrangement, lattice: bool = False) -> Arrangement:
    """An arrangement over a certified prime field on which the detectors
    for a.k (lattice=False) or the discriminantal lattice (lattice=True)
    give the same answers as on a.  Over Q and the finite fields, a itself.

    The bound covers, for k = 2, the quint equality
    |c t1||t0 t2||c s2||s0 s1| - |c s1||s0 s2||c t2||t0 t1| (degree 4 in
    the 2 x 2 minors, so also the quadral products and the minors); for
    k = 3, the six-element relation's value (good6_condition), which is
    det(a x b, c x d, e x f) (so also each minor); for the lattice,
    Hadamard's bound on every minor of size at most n - k of the
    discriminantal normals, whose entries are the k x k minors of the
    base normals (so also the genericity minors).  The lattice reduces
    the normals on coordinates k+1..n only, so the minors its echelon
    decides are a subset of those and the same bound covers them.
    """
    fd = a.field
    if not isinstance(fd, (Quadratic, Cyclotomic)):
        return a
    rows = [fd._integral([e.payload for e in v]) for v in a.normals]
    r = isqrt(abs(fd.d) - 1) + 1 if isinstance(fd, Quadratic) else 1
    b = max(sum(abs(c) * r ** i for i, c in enumerate(vec)) for row in rows for vec in row)
    k = a.k
    if lattice:
        s = a.n - k
        bound = (isqrt((k + 1) ** s * k ** (k * s)) + 1) * b ** (k * s)
    elif k == 2:
        bound = 2 * (2 * b * b) ** 4
    else:
        bound = 6 * (2 * b * b) ** 3
    p, root = _certified_prime(fd, bound ** fd.phi)
    powers = [pow(root, i, p) for i in range(fd.phi)]
    image = Prime._certified(p)
    return Arrangement(image, k, [[sum(c * w for c, w in zip(vec, powers)) for vec in row]
                                  for row in rows])


def _certified_prime(fd: _PowerBasis, bound: int) -> tuple[int, int]:
    """The least prime p = 1 + c*M*3^a above bound, c odd, M = lcm(8, m)
    and a >= 1 the least with M*3^a > bound, that the Lucas test proves
    prime and that has a root of fd's polynomial; returns p and that
    root."""
    m = fd.m if isinstance(fd, Cyclotomic) else 1
    step = 3 * lcm(8, m)
    while step <= bound:
        step *= 3
    base = [2, 3] + [q for q in _prime_factors(m) if q > 3]
    # a candidate sharing a factor with the primes from 5 to 3000 is
    # skipped before any modular power is spent on it (2 and 3 never
    # divide p)
    sieve = bytearray([1]) * 3000
    for q in range(3, 55, 2):
        sieve[q * q::2 * q] = bytes(len(range(q * q, 3000, 2 * q)))
    small = prod(q for q in range(5, 3000, 2) if sieve[q])
    for c in count(1, 2):
        p = 1 + c * step
        if gcd(p, small) != 1:
            continue
        if isinstance(fd, Quadratic) and pow(fd.d % p, (p - 1) // 2, p) != 1:
            continue
        factors = base + [q for q in _prime_factors(c) if q not in base]
        g = _lucas_root(p, factors)
        if g is None:
            continue
        if isinstance(fd, Quadratic):
            return p, _sqrt_mod(fd.d % p, p, g)
        return p, pow(g, (p - 1) // m, p)


def _lucas_root(n: int, factors) -> int | None:
    """A primitive root modulo the odd n, given every prime factor of
    n - 1: a g with g^(n-1) = 1 and g^((n-1)/q) != 1 for each of them has
    order n - 1, which proves n prime.  None when n is shown composite,
    or when no base below _LUCAS_TRIES passes.

    y = g^((n-1)/2) stands for the Fermat test g^(n-1) = y^2 = 1, so each
    base costs one modular power fewer.  y = -1 gives g^(n-1) = 1 and
    passes the test of q = 2.  y = 1 fails that test, so g is no
    primitive root and the next base is tried.  Any other y proves n
    composite: modulo a prime, y^2 = g^(n-1) = 1 (Fermat) leaves y = +-1
    only.  So the search returns what the full Fermat test before each
    base would: that test returns None at the same y unless y^2 = 1, and
    then no later base can pass it either, since n is composite."""
    half = (n - 1) // 2
    for g in range(2, min(n, 2 + _LUCAS_TRIES)):
        y = pow(g, half, n)
        if y == 1:
            continue
        if y != n - 1:
            return None
        if all(pow(g, (n - 1) // q, n) != 1 for q in factors if q != 2):
            return g
    return None


def _sqrt_mod(d: int, p: int, g: int) -> int:
    """A square root of the quadratic residue d modulo the prime p, given
    a primitive root g.  With p - 1 = q*2^s, q odd, z = g^q generates the
    2-Sylow subgroup, and d^q, a square there, is z^(2j) for one
    j < 2^(s-1); then (d^((q+1)/2) z^(-j))^2 = d * d^q * z^(-2j) = d."""
    s = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> s
    z, t = pow(g, q, p), pow(d, q, p)
    j = next(j for j in range(1 << (s - 1)) if pow(z, 2 * j, p) == t)
    return pow(d, (q + 1) // 2, p) * pow(z, -j, p) % p
