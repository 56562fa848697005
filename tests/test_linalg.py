"""Exact linear algebra over the field layer: the one determinant
(_det_payloads, read through payload_det), the span's rank and kernel
(_Span.over), and the cross product oracle the good 6-partition tests
compare against."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from discarr import (
    Arrangement,
    Cyclotomic,
    FieldMismatch,
    Galois,
    Prime,
    Quadratic,
    Rational,
)
from discarr.linalg import _Span

from _helpers import (
    cofactor_det,
    oracle_apply,
    oracle_cross3,
    oracle_matmul,
    oracle_rank,
    payload_det,
    payload_span,
    projective_map,
    span_kernel,
    span_solution,
)


def _mat(rows, field=None):
    f = field or Rational()
    return [[f.from_int(x) for x in r] for r in rows]


def _det(rows):
    return payload_det(rows, rows[0][0].fd)


def _times(rows, v):
    """The matrix of rows times the column vector v."""
    return tuple(sum((a * b for a, b in zip(r, v)), v[0].fd.zero()) for r in rows)


def test_det_known_values():
    q = Rational()
    assert _det(_mat([[1, 2], [3, 4]])) == q.from_int(-2)
    assert _det(_mat([[int(i == j) for j in range(4)] for i in range(4)])) == q.one()
    assert _det(_mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == q.zero()


def test_det_matches_cofactor_oracle():
    rng = random.Random("det-oracle")
    q = Rational()
    for n in (2, 3, 4, 5):
        for _ in range(12):
            rows = [[q.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                     for _ in range(n)] for _ in range(n)]
            assert _det(rows) == cofactor_det(rows)


DET_FIELDS = {"F7": Prime(7), "GF9": Galois(3, (1, 0, 1)),
              "sqrt5": Quadratic(5), "zeta5": Cyclotomic(5)}


def _pool(fd):
    """Every element of a finite field, else small combinations of 1, g, g^2."""
    if fd.characteristic():
        return list(fd.iter_elements())
    g = fd.generator()
    return [fd.from_int(a) + fd.from_int(b) * g + fd.from_int(c) * g * g
            for a, b, c in product(range(-2, 3), repeat=3)]


def _sign(perm):
    return (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])


@pytest.mark.parametrize("name", DET_FIELDS)
def test_det_above_3x3_matches_cofactor_oracle(name):
    # random, singular (a row the sum of two others), zero-row and
    # row-permuted triangular matrices, whose pivots come out of order
    fd = DET_FIELDS[name]
    pool = _pool(fd)
    nonzero = [x for x in pool if not x.is_zero()]
    rng = random.Random(f"det-{name}")
    zero = fd.zero()
    cases = []
    for n in (4, 5):
        for _ in range(5):
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            c = rng.choice(nonzero)
            i = rng.randrange(n)
            triangular = [[zero] * j + [rng.choice(nonzero)] + [rng.choice(pool) for _ in range(n - j - 1)]
                          for j in range(n)]
            perm = rng.sample(range(n), n)
            cases += [rows,
                      rows[:-1] + [[x + c * y for x, y in zip(rows[0], rows[1])]],
                      rows[:i] + [[zero] * n] + rows[i + 1:],
                      [triangular[j] for j in perm]]
    singular = 0
    for rows in cases:
        expected = cofactor_det(rows)
        singular += expected.is_zero()
        assert _det(rows) == expected
    assert singular >= 20


@pytest.mark.parametrize("name", DET_FIELDS)
def test_det_of_permutation_matrices_is_their_sign(name):
    fd = DET_FIELDS[name]
    zero, one = fd.zero(), fd.one()
    odd = 0
    for n in (4, 5):
        for perm in permutations(range(n)):
            rows = [[one if j == perm[i] else zero for j in range(n)] for i in range(n)]
            sign = one if _sign(perm) == 1 else -one
            odd += _sign(perm) == -1
            assert _det(rows) == sign == cofactor_det(rows)
    assert odd == 12 + 60


def test_det_over_nonrational_fields():
    f = Quadratic(5)
    g = f.generator()
    rows = [[g, f.one()], [f.one(), g]]
    assert _det(rows) == g * g - f.one()
    p = Prime(7)
    rows = [[p.from_int(2), p.from_int(3)], [p.from_int(4), p.from_int(5)]]
    assert _det(rows) == p.from_int(-2)


def test_det_multiplicativity():
    rng = random.Random("det-mult")
    f = Quadratic(-1)
    g = f.generator()

    def elem():
        x = f.from_int(rng.randint(-4, 4))
        return x + g * f.from_int(rng.randint(-4, 4))

    for _ in range(10):
        a = [[elem() for _ in range(3)] for _ in range(3)]
        b = [[elem() for _ in range(3)] for _ in range(3)]
        assert _det(oracle_matmul(a, b)) == _det(a) * _det(b)


def test_det2():
    # the 2 x 2 cofactor branch, which the k = 2 minors table runs
    q = Rational()
    u = (q.from_int(2), q.from_int(5))
    v = (q.from_int(1), q.from_int(4))
    assert _det([u, v]) == q.from_int(3) == cofactor_det([u, v])
    assert _det([v, u]) == q.from_int(-3)


def test_rank_and_transpose():
    q = Rational()
    rows = _mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert payload_span(rows, q).rank == 2
    assert payload_span(list(zip(*rows)), q).rank == 2
    identity = _mat([[int(i == j) for j in range(5)] for i in range(5)])
    assert payload_span(identity, q).rank == 5
    assert _Span.over(q).rank == 0


def test_rank_of_rows_matches_matrix_rank():
    # the span's rank, _IntegerSpan's over Q, against the FieldElement echelon
    rng = random.Random("rank")
    for fd in (Rational(), Prime(7)):
        for _ in range(20):
            rows = [tuple(fd.from_int(rng.randint(-3, 3)) for _ in range(4))
                    for _ in range(rng.randint(1, 5))]
            assert payload_span(rows, fd).rank == oracle_rank(rows)


def test_rank_of_rows_rejects_foreign_elements():
    # rational rows read under another field: (1,2),(4,1) would read as
    # rank 1 over F_7, and 1/2 has no payload in F_7 or GF(4); the
    # arrangement, whose minors and discriminantal rows are the only
    # payload rows the library builds, refuses them before any payload
    # is read
    q = Rational()
    whole = [(q.from_int(1), q.from_int(2)), (q.from_int(4), q.from_int(1))]
    half = [(q.from_fraction(Fraction(1, 2)), q.one()), (q.one(), q.one())]
    for rows, fd in ((whole, Prime(7)), (half, Prime(7)), (half, Galois(2, (1, 1, 1)))):
        with pytest.raises(FieldMismatch):
            Arrangement(fd, 2, rows + [(1, 0)])


def test_kernel_annihilates():
    # the kernel translate_solver reads off the span: one null vector per
    # non-pivot column, each annihilated by every row, independent
    rng = random.Random("kernel")
    for fd in (Rational(), Prime(7)):
        for _ in range(20):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[fd.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
                    for _ in range(nrows)]
            basis = span_kernel(rows, fd, ncols)
            assert len(basis) == ncols - oracle_rank(rows)
            for v in basis:
                assert all(e.is_zero() for e in _times(rows, v))
            assert oracle_rank(basis) == len(basis)


def test_solve_consistent_and_inconsistent():
    q = Rational()
    m = _mat([[1, 1], [1, -1]])
    assert span_solution(m, (q.from_int(3), q.from_int(1))) == (q.from_int(2), q.from_int(1))
    assert span_kernel(m, q, 2) == []
    # rank-1 system with incompatible right side
    m2 = _mat([[1, 2], [2, 4]])
    assert span_solution(m2, (q.from_int(1), q.from_int(3))) is None
    assert len(span_kernel(m2, q, 2)) == 1


def test_solve_random_systems():
    rng = random.Random("solve")
    q = Rational()
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[q.from_int(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)]
        b = tuple(q.from_int(rng.randint(-4, 4)) for _ in range(nrows))
        x = span_solution(rows, b)
        if x is not None:
            assert _times(rows, x) == b
            for v in span_kernel(rows, q, ncols):
                assert _times(rows, tuple(a + c for a, c in zip(x, v))) == b


def test_cross3_properties():
    # the oracle good6_condition is compared against: u x v is orthogonal
    # to u and v, antisymmetric, and u . (v x w) is det(u, v, w)
    rng = random.Random("cross")
    q = Rational()
    for _ in range(20):
        u, v, x = (tuple(q.from_int(rng.randint(-5, 5)) for _ in range(3)) for _ in range(3))
        w = oracle_cross3(u, v)
        dot_u = sum((a * b for a, b in zip(u, w)), q.zero())
        dot_v = sum((a * b for a, b in zip(v, w)), q.zero())
        assert dot_u.is_zero() and dot_v.is_zero()
        assert oracle_cross3(v, u) == tuple(-e for e in w)
        assert sum((a * b for a, b in zip(x, w)), q.zero()) == cofactor_det([u, v, x])


def test_matrix_multiplication_and_apply():
    # the FieldElement product and action the projective-map tests
    # compare against
    q = Rational()
    a = projective_map([[1, 2], [3, 4]], q)
    b = projective_map([[0, 1], [1, 0]], q)
    assert oracle_matmul(a, b) == projective_map([[2, 1], [4, 3]], q)
    assert oracle_apply(a, (q.from_int(1), q.from_int(1))) == (q.from_int(3), q.from_int(7))
