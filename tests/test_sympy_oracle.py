"""The one determinant (_det_payloads) and the span's rank against sympy's
DomainMatrix, an independent exact oracle.

sympy is optional: without it the module is skipped.  Matrices are
seeded over Q, Q(sqrt 5) and Q(sqrt -3), as lists of rows: dense ones
for the determinant at sizes 1-5 (so both the cofactor and the span
paths run), and products
B * C with a short inner dimension, singular ones for det and mostly
rank deficient ones for rank.
"""

import random
from fractions import Fraction

import pytest

from discarr import Quadratic, Rational

from _helpers import oracle_matmul, payload_det, payload_span

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

FIELDS = {"Q": Rational(), "sqrt5": Quadratic(5), "sqrt-3": Quadratic(-3)}


def _domain(fd):
    if isinstance(fd, Rational):
        return sympy.QQ
    return sympy.QQ.algebraic_field(sympy.sqrt(fd.d))


def _to_oracle(K, x):
    """x in K; the generator g of Q(sqrt d) goes to K.ext, a root of x^2 - d."""
    c0, *c1 = (sympy.QQ(c.numerator, c.denominator) for c in x.fd.coefficients(x))
    if isinstance(x.fd, Rational):
        return c0
    return K.new([c1[0], c0])


def _oracle_matrix(fd, m):
    K = _domain(fd)
    rows = [[_to_oracle(K, e) for e in r] for r in m]
    return K, DomainMatrix(rows, (len(m), len(m[0])), K)


def _draw(fd, rng):
    x = fd.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    if isinstance(fd, Quadratic) and rng.random() < 0.7:
        x = x + fd.from_int(rng.randint(-3, 3)) * fd.generator()
    return x


def _random_matrix(fd, rng, rows, cols):
    return [[_draw(fd, rng) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("name", FIELDS)
def test_det_matches_sympy(name):
    fd = FIELDS[name]
    rng = random.Random(f"sympy-det-{name}")
    for n in range(1, 6):
        cases = [_random_matrix(fd, rng, n, n) for _ in range(4)]
        if n > 1:  # singular: the elimination runs out of pivots
            cases.append(oracle_matmul(_random_matrix(fd, rng, n, n - 1),
                                       _random_matrix(fd, rng, n - 1, n)))
        for m in cases:
            K, oracle = _oracle_matrix(fd, m)
            assert _to_oracle(K, payload_det(m, fd)) == oracle.det()


@pytest.mark.parametrize("name", FIELDS)
def test_rank_matches_sympy(name):
    fd = FIELDS[name]
    rng = random.Random(f"sympy-rank-{name}")
    for _ in range(12):
        rows, cols, inner = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 4)
        m = oracle_matmul(_random_matrix(fd, rng, rows, inner),
                          _random_matrix(fd, rng, inner, cols))
        assert payload_span(m, fd).rank == _oracle_matrix(fd, m)[1].rank()
