"""The parametrized family's genericity conditions against their
FieldElement oracle: on every tuple of small finite fields and on a grid
of rationals, gallery._conditions equals the oracle element for element,
and is_parameter_generic equals both the oracle's verdict and
is_generic(parametrized(...)).  A work pin holds the early stop."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from _helpers import count_payload_calls, oracle_parameter_conditions
from discarr import FieldElement, Galois, Prime, Quadratic, Rational, is_generic
from discarr.exactfield import FieldMismatch
from discarr.gallery import _conditions, is_parameter_generic, parametrized

Q = Rational()

FINITE = {
    "F2": Prime(2),
    "F3": Prime(3),
    "F5": Prime(5),
    "F7": Prime(7),
    "GF4": Galois(2, (1, 1, 1)),
    "GF8": Galois(2, (1, 1, 0, 1)),
    "GF9": Galois(3, (1, 0, 1)),
    "F11": Prime(11),
}

# the grid of test_gallery.test_parameter_conditions_match_genericity
Q_GRID = (Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
          Fraction(1, 2), Fraction(3))


def _library_conditions(fd, *params):
    return tuple(FieldElement(fd, c) for c in _conditions(fd, *params))


def _tuples(name):
    if name == "Q":
        return Q, product(Q_GRID, repeat=4)
    fd = FINITE[name]
    return fd, product(tuple(fd.iter_elements()), repeat=4)


@pytest.mark.parametrize("name", ["Q"] + sorted(FINITE))
def test_conditions_match_oracle(name):
    fd, tuples = _tuples(name)
    generic = 0
    for params in tuples:
        oracle = oracle_parameter_conditions(fd, *params)
        assert _library_conditions(fd, *params) == oracle, params
        expected = all(not c.is_zero() for c in oracle)
        assert is_parameter_generic(fd, *params) == expected, params
        generic += expected
    assert generic > 0 or name in ("F2", "F3")


# over Q, test_gallery.test_parameter_conditions_match_genericity
@pytest.mark.parametrize("name", sorted(FINITE))
def test_parameter_generic_is_arrangement_generic(name):
    fd, tuples = _tuples(name)
    for params in tuples:
        assert is_parameter_generic(fd, *params) == is_generic(parametrized(fd, *params)), params


def test_wrong_field_parameter_raises_before_the_first_condition():
    # w = 0 already decides the answer; the coercion of x must still run
    with pytest.raises(FieldMismatch):
        is_parameter_generic(Q, 0, Quadratic(5).generator(), 1, 1)
    with pytest.raises(FieldMismatch):
        next(_conditions(Q, 0, Quadratic(5).generator(), 1, 1))


@pytest.mark.parametrize("params, products", [
    ((2, 3, 4, 10), 2),  # generic: wz and xy, each once
    ((0, 3, 4, 10), 0),  # stops at w
    ((1, 3, 4, 10), 0),  # stops at w - 1
])
def test_early_stop_work_is_pinned(monkeypatch, params, products):
    calls = count_payload_calls(monkeypatch, Q)
    is_parameter_generic(Q, *params)
    assert calls == Counter(_mul=products)
