"""Named arrangements, classification witnesses, and polygon families.

Six-line and six-plane arrangements with known coincidence patterns:
the minimal configuration with a single 4-set pattern, the octahedron
and dodecahedron face arrangements, two finite-field extremes, and one
witness arrangement for each realizable type of the eleven.  Regular
polygons supply an infinite family whose reflection symmetries predict
patterns combinatorially.

Every constructor returns a fresh generic Arrangement with 1-based
hyperplane indices matching the documented column order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from .arrangement import Arrangement
from .detectors import FourSet, QuintFamily
from .discriminantal import discriminantal_normal
from .exactfield import (
    Cyclotomic,
    FieldDescriptor,
    FieldElement,
    Galois,
    Prime,
    Quadratic,
    Rational,
    _as_element,
    _Value,
)
from .linalg import Vector
from .permtype import TYPE_ORDER, PartitionType


class UnknownGalleryName(ValueError):
    """No built-in arrangement answers to this name."""


# ---------------------------------------------------------------------------
# fixed six-element arrangements

def crapo() -> Arrangement:
    """Six lines admitting exactly one complementary pair of 4-set
    patterns: the sixth slope closes the relation (1-l5)*l4 = (1-l4)*l6
    on slopes (l4, l5, l6) = (2, 5, 8) and no other pairing relation."""
    q = Rational()
    return Arrangement(q, 2, ((1, 0), (0, 1), (1, 1), (2, 1), (5, 1), (8, 1)))


def octahedral() -> Arrangement:
    """Six lines parallel to the edges of the regular octahedron,
    normals (1,0), (0,1), (1,1), (-1,1), (i,1), (-i,1) over Q(i)."""
    f = Quadratic(-1)
    i = f.generator()
    return Arrangement(f, 2, ((1, 0), (0, 1), (1, 1), (-1, 1), (i, 1), (-i, 1)))


def dodecahedral() -> Arrangement:
    """Six planes parallel to the faces of the regular dodecahedron,
    normals built from the golden ratio t = (1+sqrt(5))/2."""
    f = Quadratic(5)
    t = (f.one() + f.generator()) / 2
    cols = ((1, 0, t), (1, 0, -t), (0, t, 1), (0, -t, 1), (t, 1, 0), (-t, 1, 0))
    return Arrangement(f, 3, cols)


def f4_arrangement() -> Arrangement:
    """The six-plane arrangement over F_4 on which every pairing
    condition holds; w = z = g and x = y = g^2 for a generator g."""
    f = Galois(2, (1, 1, 1))
    g = f.generator()
    return parametrized(f, g, g * g, g * g, g)


def f5_arrangement() -> Arrangement:
    """All six points of the projective line over F_5 as line normals;
    the pairing count reaches the k=2 maximum of 20."""
    f = Prime(5)
    return Arrangement(f, 2, ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (4, 1)))


# ---------------------------------------------------------------------------
# the four-parameter plane family and its genericity conditions

def parametrized(field: FieldDescriptor, w, x, y, z) -> Arrangement:
    """The six-plane arrangement with normals e1, e2, e3, (1,1,1),
    (w,x,1), (y,z,1); every 6-plane type question reduces to this
    family up to projective change of coordinates."""
    w, x, y, z = (_as_element(field, v) for v in (w, x, y, z))
    one, zero = field.one(), field.zero()
    cols = ((one, zero, zero), (zero, one, zero), (zero, zero, one),
            (one, one, one), (w, x, one), (y, z, one))
    return Arrangement(field, 3, cols)


def _conditions(field: FieldDescriptor, w, x, y, z):
    """The payloads of the 14 genericity conditions, one at a time: w, x,
    y, z, the four v - 1, w - x, w - y, x - z, y - z, d = wz - xy, and
    w - x - y + z - d.  All four parameters are coerced before the first
    yield, so a parameter from another field raises FieldMismatch even
    when w = 0."""
    w, x, y, z = (_as_element(field, v).payload for v in (w, x, y, z))
    add, neg, mul = field._add, field._neg, field._mul
    yield from (w, x, y, z)
    minus_one = field._coerce_int(-1)
    for v in (w, x, y, z):
        yield add(v, minus_one)
    w_x, neg_y, neg_z = add(w, neg(x)), neg(y), neg(z)
    yield w_x
    yield add(w, neg_y)
    yield add(x, neg_z)
    yield add(y, neg_z)
    d = add(mul(w, z), neg(mul(x, y)))
    yield d
    yield add(add(add(w_x, neg_y), z), neg(d))


def is_parameter_generic(field: FieldDescriptor, w, x, y, z) -> bool:
    """Whether parametrized(field, w, x, y, z) is generic, that is,
    equal to is_generic(parametrized(field, w, x, y, z)).  It is iff
    none of the 14 _conditions vanishes: the four parameters, their
    distances from 1, and the six combinations that vanish exactly on
    degenerate column triples.  They are tested in order (w, x, y, z,
    the v - 1, the four differences, wz - xy, then the last) and the
    test stops at the first that vanishes, so most rejected tuples cost
    no product."""
    return not any(map(field._is_zero, _conditions(field, w, x, y, z)))


# ---------------------------------------------------------------------------
# classification witnesses

class WitnessSpec(_Value):
    """A realizable type with frozen parameters over its smallest field."""

    __slots__ = ("nu", "field", "parameters")
    _fields = __slots__

    def __init__(self, nu: PartitionType, field: FieldDescriptor,
                 parameters: tuple[FieldElement, FieldElement, FieldElement, FieldElement]):
        self.nu = nu
        self.field = field
        self.parameters = parameters

    def arrangement(self) -> Arrangement:
        w, x, y, z = self.parameters
        return parametrized(self.field, w, x, y, z)


def _rational_witness(*vals):
    q = Rational()
    return q, tuple(q.from_fraction(Fraction(v)) for v in vals)


def _sqrt5_witness():
    # x a root of x^2 + x - 1, then w = z = x^2 and y = x
    f = Quadratic(5)
    x = (f.generator() - 1) / 2
    w = x * x
    return f, (w, x, x, w)


def _sqrt_minus3_witness():
    # x a root of x^2 - x + 1, then w = x^2, y = x, z = 2x - x^2
    f = Quadratic(-3)
    x = (f.generator() + 1) / 2
    w = x * x
    return f, (w, x, x, 2 * x - w)


# (w, x, y, z) per realizable type; rational rows were found by search
# over small values satisfying exactly the intended pairing relations
_WITNESS_SOURCES = {
    "1^6": lambda: _rational_witness(2, 3, 4, 10),
    "1^4 2^1": lambda: _rational_witness(2, 3, 5, 2),
    "1^3 3^1": lambda: _rational_witness(10, 2, 5, 10),
    "1^2 2^2": lambda: _rational_witness(4, 2, 6, 4),
    "1^2 4^1": lambda: _rational_witness(Fraction(2, 3), 2, 2, 4),
    "1^1 2^1 3^1": lambda: _rational_witness(4, 2, 2, 4),
    "1^1 5^1": _sqrt5_witness,
    "3^2": _sqrt_minus3_witness,
}


def witness_spec(nu) -> WitnessSpec | None:
    """The frozen witness for a type, or None for the three types with
    no characteristic-0 realization (2^3, 2^1 4^1, 6^1)."""
    if isinstance(nu, str):
        nu = PartitionType.from_string(nu)
    source = _WITNESS_SOURCES.get(nu.label())
    if source is None:
        return None
    field, params = source()
    return WitnessSpec(nu=nu, field=field, parameters=params)


def starred_types() -> tuple[PartitionType, ...]:
    """The types with no witness in characteristic 0."""
    return tuple(nu for nu in TYPE_ORDER if nu.label() not in _WITNESS_SOURCES)


# The smallest starred type forces the three matchings below (the edges
# (1,2), (3,4), (5,6) of the labeled K_6).  Eliminating y and z from
# their determinants leaves 2x(x-1), which has no root compatible with
# is_parameter_generic away from characteristic 2; the other two starred
# types induce these same three edges, so they inherit the obstruction.
BLOCKED_CORE_TYPE = "2^3"
BLOCKED_CORE_EDGES = ((1, 2), (3, 4), (5, 6))
BLOCKED_CORE_MATCHINGS = (((1, 5), (2, 6), (3, 4)),
                          ((1, 5), (2, 4), (3, 6)),
                          ((1, 5), (2, 3), (4, 6)))


def blocked_core_dets():
    """Determinants of the three blocked matchings as callables in
    (w, x, y, z); each equals the pairing condition of parametrized()."""
    def d1(w, x, y, z):
        return x - y

    def d2(w, x, y, z):
        return x * y - z

    def d3(w, x, y, z):
        return x * y - x - y + z

    return (d1, d2, d3)


def classification_rows() -> list[tuple[PartitionType, int, FieldDescriptor | None]]:
    """(type, edge count, smallest field or None) in table order."""
    return [(nu, nu.m(), spec.field if spec else None)
            for nu in TYPE_ORDER
            for spec in (witness_spec(nu),)]


# ---------------------------------------------------------------------------
# regular polygons

def regular_polygon(n: int) -> Arrangement:
    """n lines normal to the directions p*pi/n, p = 1..n, encoded in
    Q(zeta) for zeta a primitive 4n-th root of unity: with i = zeta^n,
    cos and sin become (zeta^2p + zeta^-2p)/2 and (zeta^2p - zeta^-2p)/2i.
    The arrangement is generic with no check: the n directions lie in
    [0, pi) and are distinct, so no two lines are parallel."""
    if n < 3:
        raise ValueError(f"regular polygon family needs n >= 3, got {n}")
    field = Cyclotomic(4 * n)
    zeta = field.generator()
    half = field.from_fraction(Fraction(1, 2))
    inv_i = zeta ** (3 * n)
    normals = []
    for p in range(1, n + 1):
        zp = zeta ** (2 * p)
        zm = zeta ** (4 * n - 2 * p)
        normals.append(((zp + zm) * half, (zp - zm) * half * inv_i))
    return Arrangement(field, 2, normals)


def quadral_lower_bound(n: int) -> int:
    """Guaranteed 4-set pattern count for the regular n-gon lines."""
    if n % 2 == 0:
        h = n // 2
        return (n + 2) * comb(h, 3) + n * comb(h - 1, 3)
    return 2 * n * comb((n - 1) // 2, 3)


def quint_lower_bound(n: int) -> int:
    """Guaranteed five-triple pattern count for the regular n-gon lines."""
    if n % 2 == 0:
        return 4 * n * comb(n // 2 - 1, 3)
    return 4 * n * comb((n - 1) // 2, 3)


def _reflection_orbits(n: int):
    """(pairs, fixed) per symmetry of the n-gon normal set: each
    reflection or the antipodal map pairs up the n directions, fixing
    none, one, or two of them."""
    def wrap(x: int) -> int:
        return (x - 1) % n + 1

    maps = []
    if n % 2 == 0:
        h = n // 2
        for p in range(1, h + 1):
            # axis through directions p and p+h
            pairs = tuple(frozenset((wrap(p - q), wrap(p + q))) for q in range(1, h))
            maps.append((pairs, (wrap(p), wrap(p + h))))
        for p in range(1, h + 1):
            # axis between consecutive directions
            pairs = tuple(frozenset((wrap(p - 1 - q), wrap(p + q))) for q in range(h))
            maps.append((pairs, ()))
        # the antipodal map
        maps.append((tuple(frozenset((p, p + h)) for p in range(1, h + 1)), ()))
    else:
        for p in range(1, n + 1):
            pairs = tuple(frozenset((wrap(p - q), wrap(p + q)))
                          for q in range(1, (n - 1) // 2 + 1))
            maps.append((pairs, (p,)))
    return maps


def predicted_polygon_sets(n: int) -> tuple[list[FourSet], list[QuintFamily]]:
    """Candidate coincidence families of the regular n-gon, generated
    from its reflection orbits.

    Any three pairs of one symmetry give a matching, hence two
    complementary 4-sets; when the symmetry also fixes a direction,
    that direction serves as the center of a five-triple family for
    each of the four rim splits.  Exact arithmetic confirms every
    candidate, so these are lower bounds for the detectors."""
    if n < 6:
        raise ValueError(f"predictions need n >= 6, got {n}")
    four_sets = set()
    quints = set()
    for pairs, fixed in _reflection_orbits(n):
        for trio in combinations(pairs, 3):
            four_sets.update(FourSet.of_matching(trio))
            (a1, b1), (a2, b2), (a3, b3) = (tuple(sorted(p)) for p in trio)
            for center in fixed:
                for c2, d2 in ((a2, b2), (b2, a2)):
                    for c3, d3 in ((a3, b3), (b3, a3)):
                        quints.add(QuintFamily(center, (a1, c2, c3), (b1, d2, d3)))
    return sorted(four_sets), sorted(quints)


# ---------------------------------------------------------------------------
# dodecahedral dependency table

# For each detected pairing of the dodecahedral planes: the three
# 4-subsets it spans and the signed combination of their discriminantal
# normals that vanishes identically.
DODECAHEDRAL_DEPENDENCIES = (
    (((1, 2), (3, 5), (4, 6)), ((1, (1, 2, 3, 5)), (-1, (1, 2, 4, 6)), (-1, (3, 4, 5, 6)))),
    (((1, 2), (3, 6), (4, 5)), ((1, (1, 2, 3, 6)), (-1, (1, 2, 4, 5)), (-1, (3, 4, 5, 6)))),
    (((1, 3), (2, 6), (4, 5)), ((1, (1, 2, 3, 6)), (1, (1, 3, 4, 5)), (1, (2, 4, 5, 6)))),
    (((1, 3), (2, 4), (5, 6)), ((1, (1, 3, 5, 6)), (-1, (1, 2, 3, 4)), (-1, (2, 4, 5, 6)))),
    (((1, 4), (2, 3), (5, 6)), ((1, (1, 4, 5, 6)), (-1, (1, 2, 3, 4)), (-1, (2, 3, 5, 6)))),
    (((1, 4), (2, 5), (3, 6)), ((1, (1, 3, 4, 6)), (-1, (1, 2, 4, 5)), (-1, (2, 3, 5, 6)))),
    (((1, 5), (2, 3), (4, 6)), ((1, (1, 4, 5, 6)), (-1, (1, 2, 3, 5)), (-1, (2, 3, 4, 6)))),
    (((1, 5), (2, 6), (3, 4)), ((1, (2, 3, 4, 6)), (-1, (1, 2, 5, 6)), (-1, (1, 3, 4, 5)))),
    (((1, 6), (2, 4), (3, 5)), ((1, (1, 2, 4, 6)), (-1, (1, 3, 5, 6)), (-1, (2, 3, 4, 5)))),
    (((1, 6), (2, 5), (3, 4)), ((1, (1, 3, 4, 6)), (-1, (1, 2, 5, 6)), (-1, (2, 3, 4, 5)))),
)


def dependency_residual(a: Arrangement, terms) -> Vector:
    """Signed sum of the discriminantal normals of B(n,k,a), read by
    discriminantal_normal; the zero vector certifies the dependency.
    terms is a sequence of (sign, subset)."""
    total = None
    for sign, subset in terms:
        vec = discriminantal_normal(a, subset)
        if sign < 0:
            vec = tuple(-e for e in vec)
        total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
    return total


# ---------------------------------------------------------------------------
# registry

_FIXED_BUILDERS = {
    "crapo": crapo,
    "octahedral": octahedral,
    "dodecahedral": dodecahedral,
    "f4": f4_arrangement,
    "f5": f5_arrangement,
}


def gallery_names() -> list[str]:
    """Addressable arrangement names; polygon-<n> takes any n >= 3."""
    names = list(_FIXED_BUILDERS)
    names.append("polygon-<n>")
    names.extend("witness-" + nu.cli_token()
                 for nu in TYPE_ORDER if nu.label() in _WITNESS_SOURCES)
    return names


def build_gallery(name: str) -> Arrangement:
    """Resolve a gallery name: a fixed builder, polygon-<n>, or
    witness-<type> with the type written like 1^2,4^1."""
    builder = _FIXED_BUILDERS.get(name)
    if builder is not None:
        return builder()
    if name.startswith("polygon-"):
        try:
            n = int(name[len("polygon-"):])
        except ValueError:
            raise UnknownGalleryName(f"bad polygon size in {name!r}") from None
        return regular_polygon(n)
    if name.startswith("witness-"):
        token = name[len("witness-"):]
        try:
            nu = PartitionType.from_string(token)
        except ValueError:
            raise UnknownGalleryName(f"bad type token in {name!r}") from None
        spec = witness_spec(nu)
        if spec is None:
            raise UnknownGalleryName(f"type {nu.label()} has no witness")
        return spec.arrangement()
    raise UnknownGalleryName(f"unknown gallery name {name!r}")
