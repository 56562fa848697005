"""Very generic flats against the reference comparison they replaced.

The oracle below is the original test: a flat is non-very-generic when
its (support, rank) pair is missing from the lattice of the seed-0
random reference arrangement of the same (n, k), built to the same
rank.  The library decides each flat by the Bayer-Brandt criterion
instead; both must flag the same flats.
"""

import pytest

from discarr import intersection_lattice, nvg_flats
from discarr.gallery import build_gallery

from _helpers import flat_key, reference_very_generic


def oracle_nvg(lattice, reference):
    ref_keys = {flat_key(f) for f in reference.flats()}
    return {flat_key(f) for f in lattice.flats() if flat_key(f) not in ref_keys}


@pytest.fixture(scope="module")
def references():
    """(n, k, max_rank) -> lattice of the seed-0 reference, built once."""
    cache = {}

    def get(n, k, max_rank):
        key = (n, k, max_rank)
        if key not in cache:
            cache[key] = intersection_lattice(reference_very_generic(n, k, 0),
                                              max_rank=max_rank)
        return cache[key]

    return get


WITNESS_COUNTS = {
    "1^6": 0, "1^4,2^1": 1, "1^3,3^1": 3, "1^2,2^2": 2,
    "1^2,4^1": 6, "1^1,2^1,3^1": 4, "1^1,5^1": 10, "3^2": 6,
}

# name -> (arrangement, max_rank, nvg count)
CASES = {
    "crapo": (lambda: build_gallery("crapo"), None, 2),
    "f5": (lambda: build_gallery("f5"), None, 20),
    "octahedral": (lambda: build_gallery("octahedral"), None, 12),
    "dodecahedral": (lambda: build_gallery("dodecahedral"), None, 10),
    "f4": (lambda: build_gallery("f4"), None, 15),
    **{f"witness-{t}": (lambda t=t: build_gallery(f"witness-{t}"), None, m)
       for t, m in WITNESS_COUNTS.items()},
    "polygon-6": (lambda: build_gallery("polygon-6"), None, 8),
    "polygon-7": (lambda: build_gallery("polygon-7"), 3, 14),
    "reference-7-2-seed1": (lambda: reference_very_generic(7, 2, 1), 3, 0),
    "reference-7-3-seed1": (lambda: reference_very_generic(7, 3, 1), 3, 0),
    "reference-8-2-seed1": (lambda: reference_very_generic(8, 2, 1), 2, 0),
}


@pytest.mark.parametrize("name", CASES)
def test_nvg_flats_match_reference_oracle(name, references):
    make, max_rank, count = CASES[name]
    a = make()
    lat = intersection_lattice(a, max_rank=max_rank)
    got = nvg_flats(lat)
    expected = oracle_nvg(lat, references(a.n, a.k, lat.max_rank()))
    assert {flat_key(f) for f in got} == expected
    assert len(got) == count
    assert got == sorted(got, key=lambda f: (f.rank, f.support))


# the full (6,2) and (6,3) references: test_discriminantal
@pytest.mark.parametrize("n, k, max_rank", [(7, 2, 3), (7, 3, 3), (8, 2, 2)])
def test_reference_flats_are_very_generic(n, k, max_rank, references):
    lat = references(n, k, max_rank)
    assert nvg_flats(lat) == []
