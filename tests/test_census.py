"""The six-plane and six-line types over small finite fields, counted
exhaustively.

Every labeled generic six-plane arrangement is projectively equivalent
to exactly one parametrized(w, x, y, z): the first four normals are a
frame, and normals 5 and 6 have a nonzero third coordinate.  So running
arrangement_type over every tuple of F_q^4 that is_parameter_generic
passes counts the labeled projective classes of each type, with no
sampling.

What is derived and what is only pinned:
- The per-type counts in CENSUS are regression pins only: they record
  what the classifier gives today, not an independent count.
- The starred types (2^3, 2^1 4^1, 6^1) occur only in characteristic 2;
  gallery's blocked core says why (2x(x - 1) has no admissible root).
- In odd characteristic p != 5, 1^1 5^1 has exactly 12 classes when 5
  is a square and none otherwise (its witness needs a root of
  x^2 + x - 1); over F_5 the two roots coincide and it has 6.
- In odd characteristic, 3^2 has exactly 20 classes when -3 is a
  nonzero square and none otherwise (its witness needs a root of
  x^2 - x + 1).
Both square conditions are decided here by Euler's criterion, apart
from the classifier.  No ClosureViolation occurs on any class.

Six lines are counted the same way: every labeled generic six-line
arrangement is projectively equivalent to exactly one (1,0), (0,1),
(1,1), (x,1), (y,1), (z,1) with x, y, z distinct and outside {0, 1},
since the first three points of P^1 are a frame.  The per-type counts
in LINE_CENSUS are regression pins only.  Derived from the paper: no
six lines have type 6^1, m(A) <= 20 on every class (upper_bound_check),
and every m(A) is twice the m of its type.  m(A) = 20 is reached only
over F_5, where 1^1 5^1 is the only type.
"""

from collections import Counter
from functools import cache
from itertools import permutations, product

import pytest

from discarr import (
    Arrangement,
    ClosureViolation,
    Galois,
    Prime,
    arrangement_type,
    upper_bound_check,
)
from discarr.gallery import is_parameter_generic, parametrized, starred_types

from _helpers import oracle_arrangement_type

FIELDS = {
    "F5": Prime(5),
    "F7": Prime(7),
    "F11": Prime(11),
    "F13": Prime(13),
    "GF4": Galois(2, (1, 1, 1)),
    "GF8": Galois(2, (1, 1, 0, 1)),
    "GF9": Galois(3, (1, 0, 1)),
}

# regression pins: labeled classes per type
CENSUS = {
    "F5": {"1^1 5^1": 6},
    "F7": {"1^1 2^1 3^1": 60, "1^2 4^1": 60, "3^2": 20},
    "F11": {"1^1 2^1 3^1": 300, "1^1 5^1": 12, "1^2 2^2": 1260, "1^2 4^1": 60,
            "1^3 3^1": 600, "1^4 2^1": 720, "1^6": 144},
    "F13": {"1^1 2^1 3^1": 420, "1^2 2^2": 2160, "1^2 4^1": 150, "1^3 3^1": 960,
            "1^4 2^1": 3600, "1^6": 720, "3^2": 20},
    "GF4": {"6^1": 2},
    "GF8": {"1^3 3^1": 120, "2^1 4^1": 90, "2^3": 180},
    "GF9": {"1^1 2^1 3^1": 240, "1^1 5^1": 12, "1^2 2^2": 360, "1^2 4^1": 30,
            "1^3 3^1": 240},
}

STARRED = {"2^3", "2^1 4^1", "6^1"}


def plane_classes(name):
    """(params, parametrized(fd, *params)) for every generic tuple of the
    named field: one arrangement per labeled class of six planes."""
    fd = FIELDS[name]
    elements = tuple(fd.iter_elements())
    for params in product(elements, repeat=4):
        if is_parameter_generic(fd, *params):
            yield params, parametrized(fd, *params)


@cache
def census(name):
    """(type label -> labeled classes, tuples whose classification
    raised ClosureViolation, tuples whose TypeReport differs from the
    union-find oracle's) over every generic tuple of the field."""
    counts = Counter()
    violations, mismatches = [], []
    for params, a in plane_classes(name):
        try:
            rep = arrangement_type(a)
        except ClosureViolation:
            violations.append(params)
            continue
        counts[rep.type.label()] += 1
        if rep != oracle_arrangement_type(a):
            mismatches.append(params)
    return dict(counts), violations, mismatches


def _is_nonzero_square(fd, n):
    """Euler's criterion in F_q, q odd: a nonzero a is a square iff
    a^((q - 1)/2) = 1."""
    q = sum(1 for _ in fd.iter_elements())
    a = fd.from_int(n)
    return not a.is_zero() and a ** ((q - 1) // 2) == fd.one()


ODD = sorted(name for name, fd in FIELDS.items() if fd.characteristic() != 2)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_census_counts(name):
    counts, violations, _ = census(name)
    assert violations == []
    assert counts == CENSUS[name]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_census_types_equal_the_union_find_oracle(name):
    assert census(name)[2] == []


def test_starred_types_only_in_characteristic_two():
    assert STARRED == {nu.label() for nu in starred_types()}
    for name, fd in FIELDS.items():
        if fd.characteristic() != 2:
            assert not STARRED & set(census(name)[0]), name
    assert STARRED <= set(census("GF4")[0]) | set(census("GF8")[0])


@pytest.mark.parametrize("name", [n for n in ODD if FIELDS[n].characteristic() != 5])
def test_golden_type_needs_sqrt5(name):
    expected = 12 if _is_nonzero_square(FIELDS[name], 5) else 0
    assert census(name)[0].get("1^1 5^1", 0) == expected


@pytest.mark.parametrize("name", ODD)
def test_hexagonal_type_needs_sqrt_minus3(name):
    expected = 20 if _is_nonzero_square(FIELDS[name], -3) else 0
    assert census(name)[0].get("3^2", 0) == expected


def test_euler_criterion_on_small_fields():
    # -3 = 4 = 2^2 in F_7, where 5 is not a square; in GF(9), 5 = -1 = i^2
    # and -3 = 0
    assert _is_nonzero_square(FIELDS["F7"], -3)
    assert not _is_nonzero_square(FIELDS["F7"], 5)
    assert _is_nonzero_square(FIELDS["GF9"], 5)
    assert not _is_nonzero_square(FIELDS["GF9"], -3)


# ---------------------------------------------------------------------------
# six lines

LINE_FIELDS = ("F5", "F7", "F11", "F13", "GF8", "GF9")

# regression pins: labeled classes per type
LINE_CENSUS = {
    "F5": {"1^1 5^1": 6},
    "F7": {"1^1 2^1 3^1": 60},
    "F11": {"1^1 2^1 3^1": 60, "1^2 2^2": 180, "1^3 3^1": 120, "1^6": 144},
    "F13": {"1^1 2^1 3^1": 60, "1^2 2^2": 180, "1^2 4^1": 30, "1^4 2^1": 720},
    "GF8": {"1^3 3^1": 120},
    "GF9": {"1^2 2^2": 180, "1^2 4^1": 30},
}


def line_classes(name):
    """((x, y, z), arrangement) for every six-line representative of the
    named field: (1,0), (0,1), (1,1), (x,1), (y,1), (z,1)."""
    fd = FIELDS[name]
    zero, one = fd.zero(), fd.one()
    rest = [e for e in fd.iter_elements() if e != zero and e != one]
    for xyz in permutations(rest, 3):
        yield xyz, Arrangement(fd, 2, ((one, zero), (zero, one), (one, one))
                               + tuple((x, one) for x in xyz))


@cache
def line_census(name):
    """(the TypeReport of every six-line representative, representatives
    whose classification raised ClosureViolation, representatives whose
    TypeReport differs from the union-find oracle's) over the field."""
    reports, violations, mismatches = [], [], []
    for xyz, a in line_classes(name):
        try:
            reports.append(arrangement_type(a))
        except ClosureViolation:
            violations.append(xyz)
            continue
        if reports[-1] != oracle_arrangement_type(a):
            mismatches.append(xyz)
    return reports, violations, mismatches


@pytest.mark.parametrize("name", LINE_FIELDS)
def test_line_census_counts(name):
    reports, violations, _ = line_census(name)
    assert violations == []
    q = len(list(FIELDS[name].iter_elements()))
    assert len(reports) == (q - 2) * (q - 3) * (q - 4)
    assert Counter(r.type.label() for r in reports) == LINE_CENSUS[name]


@pytest.mark.parametrize("name", LINE_FIELDS)
def test_line_census_types_equal_the_union_find_oracle(name):
    assert line_census(name)[2] == []


def test_lines_obey_the_upper_bound():
    peaks = {}
    for name in LINE_FIELDS:
        reports = line_census(name)[0]
        assert upper_bound_check(reports), name
        assert all(r.type.label() != "6^1" and r.m_formula_consistent for r in reports), name
        peaks[name] = max(r.m_a for r in reports)
    assert max(peaks.values()) == 20
    assert [name for name, m in peaks.items() if m == 20] == ["F5"]
