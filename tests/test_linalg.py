"""Exact linear algebra over the field layer."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from discarr import (
    Cyclotomic,
    FieldMismatch,
    Galois,
    Matrix,
    Prime,
    Quadratic,
    Rational,
    cross3,
    det,
    det2,
    kernel,
    rank,
    rank_of_rows,
    solve,
)
from discarr.linalg import DimensionMismatch, NotSquare, SingularMatrix, inverse

from _helpers import cofactor_det


def _mat(rows, field=None):
    f = field or Rational()
    return Matrix.from_rows([[f.from_int(x) for x in r] for r in rows], f)


def test_det_known_values():
    q = Rational()
    assert det(_mat([[1, 2], [3, 4]])) == q.from_int(-2)
    assert det(Matrix.identity(q, 4)) == q.one()
    assert det(_mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == q.zero()


def test_det_matches_cofactor_oracle():
    rng = random.Random("det-oracle")
    q = Rational()
    for n in (2, 3, 4, 5):
        for _ in range(12):
            rows = [[q.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
                     for _ in range(n)] for _ in range(n)]
            assert det(Matrix.from_rows(rows, q)) == cofactor_det(rows)


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
        assert det(Matrix.from_rows(rows, fd)) == expected
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
            assert det(Matrix.from_rows(rows, fd)) == sign == cofactor_det(rows)
    assert odd == 12 + 60


@pytest.mark.parametrize("fd", [Prime(7), Galois(2, (1, 1, 0, 1))], ids=["F7", "GF8"])
def test_matmul_of_non_square_matrices_matches_element_loop(fd):
    rng = random.Random(f"matmul-{fd!r}")
    pool = _pool(fd)
    for _ in range(10):
        a = Matrix.from_rows([[rng.choice(pool) for _ in range(3)] for _ in range(2)], fd)
        b = Matrix.from_rows([[rng.choice(pool) for _ in range(4)] for _ in range(3)], fd)
        expected = []
        for i in range(2):
            for j in range(4):
                acc = fd.zero()
                for k in range(3):
                    acc = acc + a[i, k] * b[k, j]
                expected.append(acc)
        ab = a * b
        assert (ab.rows, ab.cols, ab.entries) == (2, 4, tuple(expected))
        assert ab.transpose() == b.transpose() * a.transpose()
    with pytest.raises(DimensionMismatch):
        b * a


def test_det_over_nonrational_fields():
    f = Quadratic(5)
    g = f.generator()
    rows = [[g, f.one()], [f.one(), g]]
    assert det(Matrix.from_rows(rows, f)) == g * g - f.one()
    p = Prime(7)
    rows = [[p.from_int(2), p.from_int(3)], [p.from_int(4), p.from_int(5)]]
    assert det(Matrix.from_rows(rows, p)) == p.from_int(-2)


def test_det_multiplicativity():
    rng = random.Random("det-mult")
    f = Quadratic(-1)
    g = f.generator()

    def elem():
        x = f.from_int(rng.randint(-4, 4))
        return x + g * f.from_int(rng.randint(-4, 4))

    for _ in range(10):
        a = Matrix.from_rows([[elem() for _ in range(3)] for _ in range(3)], f)
        b = Matrix.from_rows([[elem() for _ in range(3)] for _ in range(3)], f)
        assert det(a * b) == det(a) * det(b)


def test_det_requires_square():
    with pytest.raises(NotSquare):
        det(_mat([[1, 2, 3], [4, 5, 6]]))


def test_det2():
    q = Rational()
    u = (q.from_int(2), q.from_int(5))
    v = (q.from_int(1), q.from_int(4))
    assert det2(u, v) == q.from_int(3)
    assert det2(v, u) == q.from_int(-3)


def test_rank_and_transpose():
    m = _mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(m) == 2
    assert rank(m.transpose()) == 2
    assert rank(Matrix.identity(Rational(), 5)) == 5
    assert rank_of_rows([], Rational()) == 0


def test_rank_of_rows_matches_matrix_rank():
    rng = random.Random("rank")
    q = Rational()
    for _ in range(20):
        rows = [tuple(q.from_int(rng.randint(-3, 3)) for _ in range(4))
                for _ in range(rng.randint(1, 5))]
        assert rank_of_rows(rows, q) == rank(Matrix.from_rows([list(r) for r in rows], q))


def test_rank_of_rows_rejects_foreign_elements():
    # rational rows read under another field: (1,2),(4,1) would read as
    # rank 1 over F_7, and 1/2 has no payload in F_7 or GF(4)
    q = Rational()
    whole = [(q.from_int(1), q.from_int(2)), (q.from_int(4), q.from_int(1))]
    half = [(q.from_fraction(Fraction(1, 2)), q.one()), (q.one(), q.one())]
    for rows, fd in ((whole, Prime(7)), (half, Prime(7)), (half, Galois(2, (1, 1, 1)))):
        with pytest.raises(FieldMismatch):
            rank_of_rows(rows, fd)


def test_kernel_annihilates():
    rng = random.Random("kernel")
    q = Rational()
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        m = Matrix.from_rows(
            [[q.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
             for _ in range(nrows)], q)
        basis = kernel(m)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(e.is_zero() for e in m.apply(v))
        assert rank_of_rows(basis, q) == len(basis)


def test_solve_consistent_and_inconsistent():
    q = Rational()
    m = _mat([[1, 1], [1, -1]])
    x, null = solve(m, (q.from_int(3), q.from_int(1)))
    assert x == (q.from_int(2), q.from_int(1))
    assert null == []

    # rank-1 system with incompatible right side
    m2 = _mat([[1, 2], [2, 4]])
    x2, null2 = solve(m2, (q.from_int(1), q.from_int(3)))
    assert x2 is None
    assert len(null2) == 1

    with pytest.raises(DimensionMismatch):
        solve(m, (q.one(),))


def test_solve_random_systems():
    rng = random.Random("solve")
    q = Rational()
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix.from_rows(
            [[q.from_int(rng.randint(-4, 4)) for _ in range(ncols)]
             for _ in range(nrows)], q)
        b = tuple(q.from_int(rng.randint(-4, 4)) for _ in range(nrows))
        x, null = solve(m, b)
        if x is not None:
            assert m.apply(x) == b
            for v in null:
                shifted = tuple(a + c for a, c in zip(x, v))
                assert m.apply(shifted) == b


def test_inverse_random_matrices():
    rng = random.Random("inverse")
    singular = 0
    for field in (Rational(), Prime(7)):
        for n in (1, 2, 3, 4):
            for _ in range(10):
                m = _mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], field)
                if det(m).is_zero():
                    singular += 1
                    with pytest.raises(SingularMatrix):
                        inverse(m)
                else:
                    assert m * inverse(m) == Matrix.identity(field, n)
                    assert inverse(m) * m == Matrix.identity(field, n)
    assert singular
    with pytest.raises(NotSquare):
        inverse(_mat([[1, 2]]))


def test_cross3_properties():
    rng = random.Random("cross")
    q = Rational()
    for _ in range(20):
        u = tuple(q.from_int(rng.randint(-5, 5)) for _ in range(3))
        v = tuple(q.from_int(rng.randint(-5, 5)) for _ in range(3))
        w = cross3(u, v)
        dot_u = sum((a * b for a, b in zip(u, w)), q.zero())
        dot_v = sum((a * b for a, b in zip(v, w)), q.zero())
        assert dot_u.is_zero() and dot_v.is_zero()
        assert cross3(v, u) == tuple(-e for e in w)
    with pytest.raises(DimensionMismatch):
        cross3((q.one(), q.one()), (q.one(), q.one(), q.one()))


def test_matrix_multiplication_and_apply():
    q = Rational()
    a = _mat([[1, 2], [3, 4]])
    b = _mat([[0, 1], [1, 0]])
    assert (a * b).row_list() == _mat([[2, 1], [4, 3]]).row_list()
    v = (q.from_int(1), q.from_int(1))
    assert a.apply(v) == (q.from_int(3), q.from_int(7))
