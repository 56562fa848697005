"""Value semantics of the library's value classes.

Each class names its key once (_fields, on the exactfield._Value base):
an instance equals and hashes like a rebuilt copy, compares unequal to
any other class without raising, and the dataclass-style classes keep
their keyword repr.
"""

import pytest

from discarr import (
    Arrangement,
    Flat,
    FourSet,
    Good6Partition,
    IndexFamily,
    PartitionType,
    QuintFamily,
    TypeReport,
    VertexPartition,
    WitnessSpec,
    arrangement_type,
)
from discarr.exactfield import Prime, Rational
from discarr.gallery import crapo, witness_spec


BUILDERS = {
    Arrangement: crapo,
    IndexFamily: lambda: IndexFamily([(1, 2, 3), (1, 4, 5)]),
    FourSet: lambda: FourSet([(3, 4, 5), (1, 2, 3), (1, 5, 6), (2, 4, 6)]),
    QuintFamily: lambda: QuintFamily(7, (1, 3, 5), (6, 4, 2)),
    Good6Partition: lambda: Good6Partition([(3, 6), (1, 4), (5, 2)]),
    Flat: lambda: Flat(((1, 2, 3), (1, 2, 4)), 2),
    WitnessSpec: lambda: witness_spec(PartitionType.from_string("3^2")),
    VertexPartition: lambda: VertexPartition([(1,), (2, 6), (3,), (4,), (5,)]),
    PartitionType: lambda: PartitionType.from_string("1^4 2^1"),
    TypeReport: lambda: arrangement_type(crapo()),
}


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
def test_equals_and_hashes_like_a_rebuilt_copy(cls):
    x, y = BUILDERS[cls](), BUILDERS[cls]()
    assert type(x) is cls and x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
def test_unequal_to_any_other_class(cls):
    x = BUILDERS[cls]()
    assert x != object() and not x == object()
    others = [BUILDERS[c]() for c in BUILDERS if c is not cls]
    assert all(x != o for o in others)


def test_kept_minors_stay_out_of_the_key():
    a = crapo()
    a.minors()
    fresh = crapo()
    assert a == fresh and hash(a) == hash(fresh)


def test_arrangements_over_different_fields_differ_without_field_mismatch():
    # field comes first in the key, so the normals, whose comparison
    # would raise FieldMismatch, are never compared
    normals = ((1, 0), (0, 1), (1, 1))
    over_q, over_f7 = Arrangement(Rational(), 2, normals), Arrangement(Prime(7), 2, normals)
    assert over_q != over_f7 and not over_q == over_f7


REPRS = {
    Flat: "Flat(support=((1, 2, 3), (1, 2, 4)), rank=2)",
    TypeReport:
        "TypeReport(type=PartitionType(1^4 2^1), partition=VertexPartition(1|26|3|4|5), "
        "matchings=(frozenset({frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6})}),), "
        "edges=frozenset({(2, 6)}), m_a=2, m_formula_consistent=True)",
    WitnessSpec:
        "WitnessSpec(nu=PartitionType(3^2), field=quadratic(d=-3), "
        "parameters=(-1/2+1/2*g, 1/2+1/2*g, 1/2+1/2*g, 3/2+1/2*g))",
}


@pytest.mark.parametrize("cls", REPRS, ids=lambda c: c.__name__)
def test_keyword_repr(cls):
    assert repr(BUILDERS[cls]()) == REPRS[cls]
