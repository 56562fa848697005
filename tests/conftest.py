"""Session fixtures sharing the expensive constructions: random pools,
polygon sweeps, gallery arrangements, and reference lattices."""

import random

import pytest

from discarr import (
    arrangement_type,
    good6_points,
    intersection_lattice,
    quadral_points,
    quintuple_points,
)
from discarr.gallery import (
    crapo,
    dodecahedral,
    f4_arrangement,
    f5_arrangement,
    octahedral,
    predicted_polygon_sets,
    regular_polygon,
    witness_spec,
)
from discarr.permtype import TYPE_ORDER

from _helpers import (
    imposed_k2,
    imposed_k3,
    random_k2,
    random_k3,
    reference_very_generic,
)


@pytest.fixture(scope="session")
def fixed_gallery():
    return {
        "crapo": crapo(),
        "octahedral": octahedral(),
        "dodecahedral": dodecahedral(),
        "f4": f4_arrangement(),
        "f5": f5_arrangement(),
    }


@pytest.fixture(scope="session")
def witnesses():
    """label -> (WitnessSpec, Arrangement) for the realizable types."""
    out = {}
    for nu in TYPE_ORDER:
        spec = witness_spec(nu)
        if spec is not None:
            out[nu.label()] = (spec, spec.arrangement())
    return out


@pytest.fixture(scope="session")
def k2_pool():
    """200 seeded generic line arrangements: 70 plain n=6, 30 plain n=7,
    100 built around one exact pairing condition."""
    pool = []
    rng = random.Random("k2-pool")
    for _ in range(70):
        pool.append(("plain", random_k2(rng, n=6)))
    for _ in range(30):
        pool.append(("plain", random_k2(rng, n=7)))
    for _ in range(100):
        pool.append(("imposed", imposed_k2(rng)))
    return pool


@pytest.fixture(scope="session")
def k3_pool():
    """200 seeded generic plane arrangements, half with z = x*y."""
    pool = []
    rng = random.Random("k3-pool")
    for _ in range(100):
        pool.append(("plain", random_k3(rng)))
    for _ in range(100):
        pool.append(("imposed", imposed_k3(rng)))
    return pool


@pytest.fixture(scope="session")
def k2_detections(k2_pool):
    """(kind, arrangement, quadral list, quint list) per pool member."""
    out = []
    for kind, a in k2_pool:
        quads = quadral_points(a)
        quints = quintuple_points(a) if a.n >= 7 else []
        out.append((kind, a, quads, quints))
    return out


@pytest.fixture(scope="session")
def k3_detections(k3_pool):
    return [(kind, a, good6_points(a)) for kind, a in k3_pool]


@pytest.fixture(scope="session")
def k2_reports(k2_pool):
    """TypeReports for the n=6 members of the k=2 pool."""
    return [arrangement_type(a) for _, a in k2_pool if a.n == 6]


@pytest.fixture(scope="session")
def k3_reports(k3_pool):
    return [arrangement_type(a) for _, a in k3_pool]


@pytest.fixture(scope="session")
def polygon_data():
    """Exact detection results and reflection predictions for n = 6..10."""
    out = {}
    for n in range(6, 11):
        a = regular_polygon(n)
        pred4, pred5 = predicted_polygon_sets(n)
        out[n] = {
            "arrangement": a,
            "quadral": quadral_points(a),
            "quint": quintuple_points(a) if n >= 7 else [],
            "pred4": pred4,
            "pred5": pred5,
        }
    return out


@pytest.fixture(scope="session")
def reference_lattices():
    """Full lattices of the seed-0 reference arrangements, per k."""
    out = {}
    for k in (2, 3):
        ref = reference_very_generic(6, k, seed=0)
        out[k] = intersection_lattice(ref)
    return out
