"""The quint closure laws on hand-built violating lists, and against the
frozenset-keyed original kept in _helpers as an oracle.

quint_closure_checks groups the families on the canonical tuples each
QuintFamily holds.  Its messages, and their order, must be the
oracle's on every list: the three-cycle groups come in key order and
walk each group's families as a set built in input order, the split
groups come in input order of their first member, and a family given
twice counts once.
"""

import random

import pytest

from discarr import QuintFamily, quint_closure_checks, quintuple_points
from discarr.gallery import regular_polygon
from discarr.modular import modular_image

from _helpers import oracle_quint_closure_checks

A = QuintFamily(1, (2, 3, 4), (5, 6, 7))
B = QuintFamily(1, (2, 3, 4), (6, 7, 5))
C = QuintFamily(1, (2, 3, 4), (7, 5, 6))

# the four splits of the rim pairing (2,5)(3,6)(4,7) around center 1
SPLITS = [QuintFamily(1, (2, 3, 4), (5, 6, 7)), QuintFamily(1, (2, 3, 7), (5, 6, 4)),
          QuintFamily(1, (2, 6, 4), (5, 3, 7)), QuintFamily(1, (2, 6, 7), (5, 3, 4))]
# three splits of the rim pairing (2,6)(3,7)(4,5)
OTHER_SPLITS = [QuintFamily(1, (2, 3, 4), (6, 7, 5)), QuintFamily(1, (2, 3, 5), (6, 7, 4)),
                QuintFamily(1, (2, 7, 4), (6, 3, 5))]

CYCLE_AB = ("three-cycle closure fails: QuintFamily(center=1, (2, 3, 4) | (5, 6, 7)) "
            "and QuintFamily(center=1, (2, 3, 4) | (6, 7, 5)) "
            "detected but center=1 tb=(7, 5, 6) is not")
CYCLE_BA = ("three-cycle closure fails: QuintFamily(center=1, (2, 3, 4) | (6, 7, 5)) "
            "and QuintFamily(center=1, (2, 3, 4) | (5, 6, 7)) "
            "detected but center=1 tb=(7, 5, 6) is not")
SPLIT_257 = ("split closure fails: center=1 pairing=[[2, 5], [3, 6], [4, 7]] "
             "has 3 of 4 splits detected")
SPLIT_267 = ("split closure fails: center=1 pairing=[[2, 6], [3, 7], [4, 5]] "
             "has 3 of 4 splits detected")

CASES = {
    "three-cycle break": ([A, B], [CYCLE_AB, CYCLE_BA]),
    "three-cycle closed": ([A, B, C], []),
    "transposition skipped": ([A, QuintFamily(1, (2, 3, 4), (5, 7, 6))], []),
    "three of four splits": (SPLITS[:3], [SPLIT_257]),
    "all four splits": (SPLITS, []),
    "duplicate counts once": ([SPLITS[0], SPLITS[1], SPLITS[1]], []),
    "duplicate in a cycle": ([A, A], []),
    "both laws": (SPLITS[:3] + OTHER_SPLITS,
                  [CYCLE_AB, CYCLE_BA, SPLIT_257, SPLIT_267]),
    # split groups follow input order; the three-cycle pair keeps its
    # set order although B now comes first
    "both laws reversed": ((SPLITS[:3] + OTHER_SPLITS)[::-1],
                           [CYCLE_AB, CYCLE_BA, SPLIT_267, SPLIT_257]),
}


@pytest.mark.parametrize("name", CASES)
def test_hand_built_lists_give_literal_messages(name):
    families, expected = CASES[name]
    assert quint_closure_checks(families) == expected
    assert oracle_quint_closure_checks(families) == expected


def _random_families(rng, n):
    """Families over 1..n that reuse (center, ta) with permuted tb, add
    splits of a shared rim pairing, repeat some and come shuffled."""
    out = []
    for _ in range(rng.randint(1, 6)):
        center, *rim = rng.sample(range(1, n + 1), 7)
        ta, tb = rim[:3], rim[3:]
        for _ in range(rng.randint(1, 4)):
            out.append(QuintFamily(center, ta, rng.sample(tb, 3)))
        for _ in range(rng.randint(0, 4)):
            swap = [rng.random() < 0.5 for _ in range(3)]
            out.append(QuintFamily(center,
                                   [y if s else x for x, y, s in zip(ta, tb, swap)],
                                   [x if s else y for x, y, s in zip(ta, tb, swap)]))
    out += rng.choices(out, k=rng.randint(0, 3))
    rng.shuffle(out)
    return out


def test_random_lists_match_oracle():
    rng = random.Random("quint-closure")
    cycles = splits = 0
    for n in (7, 8, 9):
        for _ in range(150):
            families = _random_families(rng, n)
            expected = oracle_quint_closure_checks(families)
            assert quint_closure_checks(families) == expected
            cycles += any(m.startswith("three-cycle") for m in expected)
            splits += any(m.startswith("split") for m in expected)
    assert cycles > 20 and splits > 20


@pytest.mark.parametrize("n", range(7, 13))
def test_polygon_families_with_drops_match_oracle(n):
    found = quintuple_points(modular_image(regular_polygon(n)))
    assert quint_closure_checks(found) == oracle_quint_closure_checks(found) == []
    rng = random.Random(f"quint-drops-{n}")
    violating = 0
    for rate in (0.05, 0.2, 0.5):
        kept = [q for q in found if rng.random() > rate]
        expected = oracle_quint_closure_checks(kept)
        assert quint_closure_checks(kept) == expected
        violating += bool(expected)
    assert violating
