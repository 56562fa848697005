"""Shared constructors for the test suite: seeded random arrangements,
the random very generic reference, the lattice closure oracle,
the six-element pairing and conjugation closure oracles, the quint
closure oracle, the FieldElement projective map through three points,
the FieldElement genericity conditions of the parametrized family,
the cofactor determinant and the incidence check of a translation
built on it, the payload work counter, the validating constructions of
the detected patterns, the full Fermat-then-Lucas test, candidate-family
enumeration, and small number-theory checks."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

from discarr import (
    Arrangement,
    FourSet,
    Good6Partition,
    Matrix,
    NotGeneric,
    ProjectiveMap,
    QuintFamily,
    Rational,
    det2,
    detectors,
    is_generic,
    perfect_matchings,
)
from discarr.arrangement import DegeneratePoints
from discarr.exactfield import _as_element
from discarr.gallery import is_parameter_generic, parametrized


def rand_fraction(rng, span=12, max_den=6):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_k2(rng, n=6, tries=400):
    """Generic n lines with small integer normals."""
    q = Rational()
    for _ in range(tries):
        normals = [(rng.randint(-25, 25), rng.randint(-25, 25)) for _ in range(n)]
        if any(u == (0, 0) for u in normals):
            continue
        a = Arrangement(q, 2, normals)
        if is_generic(a):
            return a
    raise RuntimeError("no generic k=2 sample found")


def imposed_k2(rng, tries=400):
    """Six lines with slopes (inf, 0, 1, l4, l5, l6) where l6 is chosen
    so one pairing condition holds exactly."""
    q = Rational()
    for _ in range(tries):
        l4 = rand_fraction(rng, span=9, max_den=4)
        l5 = rand_fraction(rng, span=9, max_den=4)
        if l4 in (0, 1) or l5 in (0, 1) or l4 == l5:
            continue
        l6 = l4 * (l5 - 1) / (l4 - 1)
        lams = (l4, l5, l6)
        if l6 in (0, 1) or len(set(lams)) < 3:
            continue
        a = Arrangement(q, 2, ((1, 0), (0, 1), (1, 1),
                               (l4, 1), (l5, 1), (l6, 1)))
        if is_generic(a):
            return a
    raise RuntimeError("no imposed k=2 sample found")


def random_k3(rng, tries=400):
    q = Rational()
    for _ in range(tries):
        w, x, y, z = (rand_fraction(rng, span=9, max_den=4) for _ in range(4))
        if is_parameter_generic(q, w, x, y, z):
            return parametrized(q, w, x, y, z)
    raise RuntimeError("no generic k=3 sample found")


def imposed_k3(rng, tries=400):
    """Parametrized planes with z = x*y, making one pairing condition
    hold exactly while staying generic."""
    q = Rational()
    for _ in range(tries):
        w, x, y = (rand_fraction(rng, span=9, max_den=4) for _ in range(3))
        z = x * y
        if is_parameter_generic(q, w, x, y, z):
            return parametrized(q, w, x, y, z)
    raise RuntimeError("no imposed k=3 sample found")


def reference_very_generic(n: int, k: int, seed: int = 0) -> Arrangement:
    """Random integer arrangement over the rationals passing every
    coincidence detector; deterministic in (n, k, seed).  The library
    decides very generic flats combinatorially; this arrangement is the
    differential oracle for that decision."""
    if k not in (2, 3):
        raise ValueError(f"reference construction supports k in {{2, 3}}, got {k}")
    if not k < n <= 9:
        raise ValueError(f"need k < n <= 9, got n={n}")
    rng = random.Random(f"reference-{n}-{k}-{seed}")
    field = Rational()
    for _ in range(64):
        normals = [tuple(field.from_int(rng.randint(-99, 99)) for _ in range(k))
                   for _ in range(n)]
        try:
            a = Arrangement(field, k, normals)
        except ValueError:
            continue
        if not is_generic(a):
            continue
        if k == 2:
            if detectors.quadral_points(a):
                continue
            if n >= 7 and detectors.quintuple_points(a):
                continue
        else:
            if n >= 6 and detectors.good6_points(a):
                continue
        return a
    raise RuntimeError(f"no very generic candidate in 64 draws for (n={n}, k={k})")


# ---------------------------------------------------------------------------
# the lattice closure oracle

class _OracleSpan:
    """Incremental row echelon over FieldElement rows."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def _reduce(self, v):
        w = list(v)
        for row, piv in zip(self.rows, self.pivots):
            c = w[piv]
            if not c.is_zero():
                for i in range(piv, len(w)):
                    w[i] = w[i] - c * row[i]
        return w

    def contains(self, v):
        return all(x.is_zero() for x in self._reduce(v))

    def insert(self, v):
        w = self._reduce(v)
        for i, x in enumerate(w):
            if not x.is_zero():
                inv = x.inv()
                self.rows.append([y * inv for y in w])
                self.pivots.append(i)
                return


def oracle_closure(normals, supports):
    """(closed support, rank) of the span of the given hyperplanes, by an
    echelon of FieldElement rows; the oracle for lattice flats."""
    span = _OracleSpan()
    for L in supports:
        span.insert(normals[L])
    members = tuple(L for L in sorted(normals) if span.contains(normals[L]))
    return members, len(span.rows)


# ---------------------------------------------------------------------------
# the incidence check of a translation

def cofactor_det(rows):
    """Determinant of FieldElement rows by Laplace expansion along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, x in enumerate(rows[0]):
        term = x * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def translation_problems(a, family, t) -> list[str]:
    """What the translation t gets wrong, by cofactor determinants of
    the augmented rows (alpha_p, t_p): a (k+1)-subset of a family set
    that is not concurrent, or a hyperplane outside a set through the
    set's point."""
    k = a.k

    def det_of(indices):
        return cofactor_det([list(a.normal(p)) + [t[p - 1]] for p in indices])

    problems = []
    for L in family:
        for sub in combinations(L, k + 1):
            if not det_of(sub).is_zero():
                problems.append(f"{sub} is not concurrent")
        for q in a.indices:
            if q not in L and det_of(L[:k] + (q,)).is_zero():
                problems.append(f"hyperplane {q} passes through the point of {L}")
    return problems


# ---------------------------------------------------------------------------
# the projective map oracle

def oracle_projective_map_through(sources, targets):
    """The map of P^1 taking three sources to three targets, built on
    FieldElements: the targets' frame after the inverse (the adjugate)
    of the sources' frame, each frame a ProjectiveMap; a frame's columns
    are l1 p1 and l2 p2 with p3 = l1 p1 + l2 p2, by Cramer."""
    sources = tuple(sources)
    targets = tuple(targets)
    if len(sources) != 3 or len(targets) != 3:
        raise ValueError("exactly three source and three target points")

    def frame(p1, p2, p3):
        d12 = det2(p1, p2)
        d13 = det2(p1, p3)
        d23 = det2(p2, p3)
        if d12.is_zero() or d13.is_zero() or d23.is_zero():
            raise DegeneratePoints("frame points are not pairwise distinct")
        l1 = d23 / d12
        l2 = -d13 / d12
        f = p1[0].fd
        return Matrix.from_rows([[l1 * p1[0], l2 * p2[0]], [l1 * p1[1], l2 * p2[1]]], f)

    ms = ProjectiveMap(frame(*sources)).matrix
    mt = ProjectiveMap(frame(*targets)).matrix
    a, b, c, d = ms[0, 0], ms[0, 1], ms[1, 0], ms[1, 1]
    adjugate = ProjectiveMap(Matrix.from_rows([[d, -b], [-c, a]], ms.field)).matrix
    return ProjectiveMap(mt * adjugate)


# ---------------------------------------------------------------------------
# work counting

def count_payload_calls(monkeypatch, fd):
    """A Counter of the products and inverses of fd's class, and of the
    perfect_matchings walks of the detectors, made while the test runs."""
    calls = Counter()
    cls = type(fd)
    for hook in ("_mul", "_inv"):
        fn = getattr(cls, hook)

        def counting(self, *args, fn=fn, hook=hook):
            calls[hook] += 1
            return fn(self, *args)
        monkeypatch.setattr(cls, hook, counting)
    for helper in ("perfect_matchings",):
        fn = getattr(detectors, helper)

        def counting_helper(*args, fn=fn, helper=helper):
            calls[helper] += 1
            return fn(*args)
        monkeypatch.setattr(detectors, helper, counting_helper)
    return calls


# ---------------------------------------------------------------------------
# the parametrized family's conditions oracle

def oracle_parameter_conditions(field, w, x, y, z):
    """The 14 genericity conditions of parametrized(), built on
    FieldElements with every expression written out in full."""
    w, x, y, z = (_as_element(field, v) for v in (w, x, y, z))
    one = field.one()
    return (w, x, y, z,
            w - one, x - one, y - one, z - one,
            w - x, w - y, x - z, y - z,
            w * z - x * y,
            w - x - y + z - w * z + x * y)


# ---------------------------------------------------------------------------
# the six-element oracles: the signed-minor walk detectors._pairings
# replaced, and the conjugation closure over Good6Partition objects

def oracle_det_table(a):
    """Payload of every ordered k-tuple of distinct indices: the minor of
    the sorted tuple, negated on odd orderings (2 entries per minor at
    k = 2, 6 at k = 3)."""
    neg = a.field._neg
    parities = [sum(x > y for x, y in combinations(o, 2)) % 2
                for o in permutations(range(a.k))]
    table = {}
    for key, d in a.minors().items():
        signed = (d, neg(d))
        for order, odd in zip(permutations(key), parities):
            table[order] = signed[odd]
    return table


def oracle_pairings(a):
    """The matchings of every 6-subset whose pairs are related, walking
    perfect_matchings per subset over the signed table: at k = 2
    |x y2||y z2||z x2| == |x z2||y x2||z y2|, at k = 3
    [x x2 z][y y2 z2] == [x x2 z2][y y2 z]."""
    if not is_generic(a):
        raise NotGeneric("parallel or repeated lines" if a.k == 2
                         else "dependent normal triple")
    mul = a.field._mul
    dets = oracle_det_table(a)
    found = []
    for subset in combinations(a.indices, 6):
        for pairs in perfect_matchings(subset):
            (x, x2), (y, y2), (z, z2) = pairs
            if a.k == 2:
                related = (mul(mul(dets[x, y2], dets[y, z2]), dets[z, x2])
                           == mul(mul(dets[x, z2], dets[y, x2]), dets[z, y2]))
            else:
                related = (mul(dets[x, x2, z], dets[y, y2, z2])
                           == mul(dets[x, x2, z2], dets[y, y2, z]))
            if related:
                found.append(pairs)
    return found


def oracle_good6_closure_checks(found):
    """Partitions sharing a support but no pair must be closed under
    conjugation of their involutions; each conjugate built as a
    Good6Partition and looked up among the detected ones."""
    detected = set(found)
    by_support: dict = {}
    for g in found:
        by_support.setdefault(g.support, []).append(g)
    violations = []
    for support, gs in sorted(by_support.items()):
        for g1, g2 in combinations(gs, 2):
            if set(g1.matching) & set(g2.matching):
                continue
            s1 = {x: y for p in g1.matching for x, y in (p, p[::-1])}
            s2 = {x: y for p in g2.matching for x, y in (p, p[::-1])}
            s3 = {x: s1[s2[s1[x]]] for x in support}
            g3 = Good6Partition(frozenset(frozenset((x, y)) for x, y in s3.items()))
            if g3 not in detected:
                violations.append(
                    f"conjugation closure fails: {g1!r} and {g2!r} "
                    f"detected but {g3!r} is not")
    return violations


def oracle_quint_closure_checks(families: list[QuintFamily]) -> list[str]:
    """Composition laws among the families quintuple_points detected on
    one arrangement.

    Same center and same unordered triple pair: two detected pairings
    differing by a 3-cycle force the third power.  Same center and same
    rim pairing: three detected splits force the fourth.  Returns the
    violations found (expected none)."""
    violations = []

    by_triples: dict = {}
    for q in families:
        key = (q.center, frozenset((frozenset(q.ta), frozenset(q.tb))))
        by_triples.setdefault(key, set()).add(q)
    for (center, _), fams in sorted(by_triples.items(),
                                    key=lambda kv: (kv[0][0], sorted(map(sorted, kv[0][1])))):
        # canonical form aligns every family on the same sorted ta
        bijections = {q.tb: q for q in fams}
        for tb1 in bijections:
            m1_inv = {tb1[i]: i for i in range(3)}
            for tb2 in bijections:
                if tb2 == tb1:
                    continue
                cycle = {tb1[i]: tb2[i] for i in range(3)}
                if any(cycle[b] == b for b in cycle):
                    continue
                tb3 = tuple(cycle[tb2[i]] for i in range(3))
                if tb3 not in bijections:
                    q1, q2 = bijections[tb1], bijections[tb2]
                    violations.append(
                        f"three-cycle closure fails: {q1!r} and {q2!r} "
                        f"detected but center={center} tb={tb3} is not")

    by_pairing: dict = {}
    for q in families:
        key = (q.center, frozenset(frozenset((q.ta[i], q.tb[i])) for i in range(3)))
        by_pairing.setdefault(key, set()).add(q)
    for (center, pairing), fams in by_pairing.items():
        if len(fams) == 3:
            violations.append(
                f"split closure fails: center={center} pairing="
                f"{sorted(map(sorted, pairing))} has 3 of 4 splits detected")
    return violations


# ---------------------------------------------------------------------------
# the validating constructions the detectors replaced: every pattern
# built through FourSet, Good6Partition and QuintFamily's __init__, then
# sorted as objects

def oracle_of_matching(pairs):
    """FourSet.of_matching through the validating constructor: the
    4-set of the pairs as given, then its complement."""
    (a1, b1), (a2, b2), (a3, b3) = pairs
    four = FourSet(((a1, a2, a3), (a1, b2, b3), (b1, a2, b3), (b1, b2, a3)))
    return four, oracle_complement(four)


def oracle_complement(four):
    sup = set(four.support)
    return FourSet(tuple(sup - set(s)) for s in four.sets)


def oracle_quadral_points(a):
    return sorted({four for pairs in detectors._pairings(a)
                   for four in oracle_of_matching(pairs)})


def oracle_good6_points(a):
    return sorted(Good6Partition(pairs) for pairs in detectors._pairings(a))


def oracle_quintuple_points(a):
    """Every canonical family [c; ta] = [c; tb] found on the signed
    ratio table, each built by QuintFamily(c, ta, tb) and the list
    sorted by QuintFamily._sort_key."""
    detectors._check_k2(a)
    fd = a.field
    mul, neg = fd._mul, fd._neg
    dets, inverses = {}, {}
    for (x, y), d in a.minors().items():
        dets[x, y], dets[y, x] = d, neg(d)
        inverses[x, y] = fd._inv(d)
        inverses[y, x] = neg(inverses[x, y])
    triples = list(permutations(a.indices, 3))
    ratio = {(x, y, z): mul(dets[x, z], inverses[x, y]) for x, y, z in triples}
    found = []
    for c in a.indices:
        groups: dict = {}
        for t in triples:
            if c not in t:
                value = mul(ratio[c, t[2], t[1]], ratio[t])
                groups.setdefault(value, []).append(t)
        for members in groups.values():
            for ta in members:
                if ta[0] < ta[1] < ta[2]:
                    found += [QuintFamily(c, ta, tb) for tb in members
                              if min(tb) > ta[0] and set(ta).isdisjoint(tb)]
    return sorted(found, key=QuintFamily._sort_key)


# ---------------------------------------------------------------------------
# the Lucas test modular._lucas_root replaced

def oracle_lucas_root(n, factors):
    """A primitive root modulo n by the full Fermat test g^(n-1) = 1 and
    then g^((n-1)/q) != 1 for every prime q | n - 1, on the bases below
    1002; None at the first Fermat witness or when no base passes."""
    for g in range(2, min(n, 1002)):
        if pow(g, n - 1, n) != 1:
            return None
        if all(pow(g, (n - 1) // q, n) != 1 for q in factors):
            return g
    return None


# ---------------------------------------------------------------------------
# candidate families (detected or not), for the rank-equivalence sweeps

def matching_foursets(pairs):
    """The complementary pair of 4-sets determined by three index pairs."""
    (a1, b1), (a2, b2), (a3, b3) = sorted(tuple(sorted(p)) for p in pairs)
    return (FourSet(((a1, a2, a3), (a1, b2, b3), (b1, a2, b3), (b1, b2, a3))),
            FourSet(((b1, b2, b3), (b1, a2, a3), (a1, b2, a3), (a1, a2, b3))))


def fourset_candidates(indices):
    """All 4-sets over every 6-subset of the given indices."""
    out = []
    for subset in combinations(sorted(indices), 6):
        for pairs in perfect_matchings(subset):
            out.extend(matching_foursets(pairs))
    return out


def quint_candidates(indices):
    """All canonical five-triple families over every 7-subset."""
    out = []
    for subset in combinations(sorted(indices), 7):
        for center in subset:
            rim = [p for p in subset if p != center]
            for pairs in perfect_matchings(rim):
                (x1, y1), (x2, y2), (x3, y3) = pairs
                for c2, d2 in ((x2, y2), (y2, x2)):
                    for c3, d3 in ((x3, y3), (y3, x3)):
                        out.append(QuintFamily(center, (x1, c2, c3), (y1, d2, d3)))
    return out


def good6_candidates(indices):
    out = []
    for subset in combinations(sorted(indices), 6):
        for pairs in perfect_matchings(subset):
            out.append(Good6Partition(pairs))
    return out


# ---------------------------------------------------------------------------
# rationality checks used by the classification certificate

def is_rational_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    for part in (q.numerator, q.denominator):
        r = int(part ** 0.5)
        while r * r > part:
            r -= 1
        while (r + 1) * (r + 1) <= part:
            r += 1
        if r * r != part:
            return False
    return True


def monic_quadratic_irreducible_over_q(c1, c0) -> bool:
    """x^2 + c1 x + c0 with integer coefficients: irreducible over the
    rationals iff the discriminant is not a perfect square (equivalently,
    by Gauss, iff there is no integer root)."""
    disc = Fraction(c1) ** 2 - 4 * Fraction(c0)
    return not is_rational_square(disc)
