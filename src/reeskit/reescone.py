"""Rees cones and their unique irreducible facet descriptions.

The Rees cone of a monomial ideal with exponent vectors v_1..v_q in N^n is
the cone in R^(n+1) spanned by the coordinate units e_1..e_n together with
the lifted generators (v_i, 1). It always has full dimension n+1, is pointed,
and its irreducible inner description splits into unit normals e_i and
integer normals with nonnegative leading entries and negative last entry.

Facet enumeration runs an incremental double description pass on the dual
cone (extreme rays of {y : <g, y> >= 0}), seeded from a simplicial subcone
of n+1 independent generators, with the combinatorial adjacency test of
Fukuda and Prodon (1996) pruning non-adjacent ray pairs. A brute-force oracle
over generator subsets provides an independent cross-check for small
instances. All arithmetic is exact.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_, mul

from .errors import CapExceeded, DegenerateCone, IntegrityError, Record
from .exactlat import _bareiss, adjugate, dot, primitive, rank
from .exactlat import parity_mask, rank_mod_2
from .matroid import Matroid, MonomialIdeal, basis_monomial_ideal

ORACLE_CAP = 12


def _unit(i: int, dim: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(dim))


def _distinct_rows(rows) -> list[tuple[int, ...]]:
    """Rows as int tuples, repeats dropped, first occurrences in input order."""
    return list(dict.fromkeys(tuple(int(e) for e in r) for r in rows))


def _unit_index(v) -> int | None:
    """1-based index when v is a coordinate unit vector, else None."""
    hits = [k for k, e in enumerate(v) if e]
    if len(hits) == 1 and v[hits[0]] == 1:
        return hits[0] + 1
    return None


class ReesCone(Record):
    """Generators of a Rees cone: units first, then lifted exponent vectors.

    Generators live in dimension n+1 with last coordinate 0 (unit part) or
    1 (lifted part) and nonnegative entries, so the cone sits in the first
    orthant and is automatically pointed. Spanning the full dimension is
    NOT enforced here; facet enumeration raises DegenerateCone when it
    fails, which makes deliberately flat cones constructible in tests.
    """

    n: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise DegenerateCone("ambient dimension must be at least 2")
        gens = tuple(tuple(int(e) for e in g) for g in self.generators)
        for g in gens:
            if len(g) != self.n + 1:
                raise DegenerateCone(f"generator {g} not of dimension {self.n + 1}")
            if any(e < 0 for e in g):
                raise DegenerateCone(f"generator {g} leaves the first orthant")
            if not any(g):
                raise DegenerateCone("the zero vector is not a generator")
            if g[-1] not in (0, 1):
                raise DegenerateCone(f"generator {g} has last coordinate outside {{0,1}}")
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return self.n + 1


def rees_generators(ideal: MonomialIdeal) -> ReesCone:
    """e_1..e_n followed by (v, 1) for each exponent vector v, in lex order."""
    units = [_unit(i, ideal.n + 1) for i in range(ideal.n)]
    lifted = [(*v, 1) for v in ideal.exponents]
    return ReesCone(ideal.n, tuple(units + lifted))


def basis_rees_cone(m: Matroid) -> ReesCone:
    return rees_generators(basis_monomial_ideal(m))


class Verdict(str, Enum):
    IDEAL = "ideal"
    QUASI_IDEAL = "quasi_ideal"
    NEITHER = "neither"


class FacetSystem(Record):
    """Irreducible inner description of a full-dimensional Rees-type cone.

    unit_normals: ascending 1-based indices i with e_i a facet normal.
    ell_normals: lex-sorted primitive normals with nonnegative leading
    entries and last entry <= -1.
    slack: the facet-ray value matrix, computed once per cone (as in
    Normaliz, Bruns and Ichim, J. Algebra 2010): slack[i] is the tuple of
    <b, rays[i]> over b in normals(), in that order (empty when not given).
    rays: the primitive generators that span extreme rays, in pulling order:
    units first, then the rays on more facets, then lex.
    masks: for each normal, in normals() order, the bitmask of the rays it
    is tight on, bit i for rays[i].
    The last three take no part in equality, so facet systems found by
    different routes compare equal.
    """

    dim: int
    unit_normals: tuple[int, ...]
    ell_normals: tuple[tuple[int, ...], ...]
    slack: tuple[tuple[int, ...], ...] = ()
    rays: tuple[tuple[int, ...], ...] = ()
    masks: tuple[int, ...] = ()
    _uncompared = ("slack", "rays", "masks")
    _json = ("unit_normals", "ell_normals")

    def __post_init__(self):
        units = tuple(_unit(i - 1, self.dim) for i in self.unit_normals)
        object.__setattr__(self, "_normals", units + self.ell_normals)

    def normals(self) -> tuple[tuple[int, ...], ...]:
        """Unit normals e_i in index order, then the ell-normals."""
        return self._normals

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError(f"point of dimension {len(point)}, cone of {self.dim}")
        return all(point[i - 1] >= 0 for i in self.unit_normals) and all(
            dot(b, point) >= 0 for b in self.ell_normals)


class ConeClassification(Record):
    verdict: Verdict
    offending_normal: tuple[int, ...] | None = None


def _dual_extreme_rays(ineqs, dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y in R^dim : <a, y> >= 0 for every row a}.

    The rows must span R^dim (the cone is then pointed); otherwise
    DegenerateCone. Incremental double description: seed on the first dim
    rows independent of those before them, the pivot columns of the
    transposed rows (one _bareiss pass); their dual simplicial cone has the
    adjugate columns as rays. Then cut with the remaining rows one at a
    time. A (pos, neg) pair contributes a new ray only when the two rays are
    adjacent, decided by the combinatorial test of Fukuda and Prodon,
    "Double description method revisited" (1996): at least dim-2 processed
    rows are tight at both, and no third ray is tight on all of them. That
    test is exact only while the ray list holds each extreme ray exactly
    once, so a repeated ray is an IntegrityError rather than something to
    dedupe.
    """
    rows = _distinct_rows(ineqs)
    seed = _bareiss(list(zip(*rows)))[1]
    if len(seed) < dim:
        raise DegenerateCone(f"rows span rank {len(seed)} < {dim}")

    adj, det = adjugate([rows[i] for i in seed])
    sgn = 1 if det > 0 else -1
    rays = [primitive(sgn * adj[i][j] for i in range(dim)) for j in range(dim)]
    # seed ray j is tight on every seed row but its own
    masks = [((1 << dim) - 1) ^ (1 << j) for j in range(dim)]

    # bit k of a mask is the k-th row cut: the seed rows, then the rest in order
    for k, a in enumerate((row for idx, row in enumerate(rows) if idx not in seed), dim):
        if len(a) != dim:
            raise ValueError(f"dimension mismatch: {len(a)} vs {dim}")
        vals = [sum(map(mul, a, r)) for r in rays]
        pos = [t for t, v in enumerate(vals) if v > 0]
        neg = [t for t, v in enumerate(vals) if v < 0]
        new_rays, new_masks = [], []
        for t, v in enumerate(vals):
            if v > 0:
                new_rays.append(rays[t])
                new_masks.append(masks[t])
            elif v == 0:
                new_rays.append(rays[t])
                new_masks.append(masks[t] | (1 << k))
        for p in pos:
            for q in neg:
                common = masks[p] & masks[q]
                if common.bit_count() < dim - 2 or any(
                    mk & common == common and t != p and t != q
                    for t, mk in enumerate(masks)
                ):
                    continue
                # positive combination vals[p]*ray_q - vals[q]*ray_p lands on <a,.>=0
                w = primitive(
                    vals[p] * rays[q][i] - vals[q] * rays[p][i] for i in range(dim)
                )
                new_rays.append(w)
                new_masks.append(common | (1 << k))
        rays, masks = new_rays, new_masks
    if len(set(rays)) != len(rays):
        raise IntegrityError("double description produced a repeated ray")
    return sorted(rays)


def _facet_system(dim: int, normals, generators) -> FacetSystem:
    """Check and split the normals; each normal's values on the distinct
    primitive generators are summed once, inline after one length check of
    each normal and generator, and serve every check. Those on the extreme
    rays are kept, per ray in normals() order, as the system's slack, and
    each normal's tight set on the rays as its mask. The most constrained
    rays come first, after the units, so W4 pulls unimodularly.

    A normal b != 0 annihilates its tight set, so the tight set's rank over Q
    is at most dim - 1, and at least its rank mod 2: a rank mod 2 of dim - 1
    (rank_mod_2 on parity masks) certifies the rank, and only a lower one
    falls back to the exact rank().

    The minimal face of a generator g is cut out by the facets g is tight
    on, and it is spanned by the generators tight on all of them. So g spans
    an extreme ray iff the meet of the tight sets that hold g (every
    generator when there is none) is g alone."""
    gens = _distinct_rows(primitive(g) for g in generators)
    if any(len(g) != dim for g in gens):
        raise ValueError(f"dimension mismatch: a generator not of dimension {dim}")
    parity = [parity_mask(g) for g in gens]
    units, ells, columns, tight_sets = [], [], {}, []
    for b in normals:
        if gcd(*b) != 1:
            raise IntegrityError(f"normal {b} is not primitive")
        if len(b) != dim:
            raise ValueError(f"dimension mismatch: {len(b)} vs {dim}")
        values = [sum(map(mul, b, g)) for g in gens]
        if min(values, default=0) < 0:
            raise IntegrityError(f"normal {b} cuts off a generator")
        tight = [k for k, v in enumerate(values) if v == 0]
        if rank_mod_2(parity[k] for k in tight) != dim - 1 and (
            rank([gens[k] for k in tight]) != dim - 1
        ):
            raise IntegrityError(f"normal {b} is not tight on a rank-{dim - 1} subset")
        tight_sets.append(sum(1 << k for k in tight))
        u = _unit_index(b)
        if u is not None:
            units.append(u)
        elif any(e < 0 for e in b[:-1]) or b[-1] > -1:
            raise IntegrityError(f"normal {b} breaks the sign pattern of a lifted cone")
        else:
            ells.append(tuple(b))
        columns[tuple(b)] = values
    units.sort()
    ells.sort()
    order = [_unit(i - 1, dim) for i in units] + ells
    rows = dict(zip(gens, zip(*(columns[b] for b in order))))
    every = (1 << len(gens)) - 1
    rays = sorted((g for k, g in enumerate(gens) if 1 << k == reduce(
        and_, (t for t in tight_sets if t >> k & 1), every)),
        key=lambda g: (g.count(0) != dim - 1, -rows[g].count(0), g))
    slack = tuple(map(rows.get, rays))
    masks = [sum(1 << i for i, v in enumerate(col) if v == 0) for col in zip(*slack)]
    return FacetSystem(dim, tuple(units), tuple(ells), slack, tuple(rays), tuple(masks))


def facet_normals(cone: ReesCone) -> FacetSystem:
    """Irreducible facet description via double description; DegenerateCone
    when the generators span less than the full dimension."""
    normals = _dual_extreme_rays(cone.generators, cone.dim)
    return _facet_system(cone.dim, normals, cone.generators)


def facet_normals_oracle(cone: ReesCone, cap: int = ORACLE_CAP) -> FacetSystem:
    """Brute-force facet enumeration, independent of the incremental engine.

    Every subset of dim-1 generators of full rank spans a candidate
    hyperplane, read off one _bareiss pass and tested once: its primitive
    normal is kept iff one orientation puts the whole generator set on the
    nonnegative side. Exponential in the generator count, hence the cap.
    """
    gens = _distinct_rows(cone.generators)
    if len(gens) > cap:
        raise CapExceeded(f"{len(gens)} generators exceed the oracle cap {cap}")
    dim = cone.dim
    if rank(gens) < dim:
        raise DegenerateCone(f"generators span rank {rank(gens)} < {dim}")
    normals, tried = set(), set()
    for combo in combinations(gens, dim - 1):
        rows, pivots, _, p = _bareiss(combo)
        if len(pivots) < dim - 1:
            continue
        # row i ends as p e_pivots[i] + rows[i][c] e_c, c the one free column
        c = next(k for k in range(dim) if k not in pivots)
        entry = dict(zip(pivots, (-row[c] for row in rows)))
        w = primitive(entry.get(k, p) for k in range(dim))
        if w in tried:
            continue
        opposite = tuple(-e for e in w)
        tried.update((w, opposite))
        values = [dot(w, g) for g in gens]
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            continue
        normals.add(opposite if all(v <= 0 for v in values) else w)
    return _facet_system(dim, sorted(normals), tuple(gens))


def classify(fs: FacetSystem) -> ConeClassification:
    """Quasi-ideal iff every non-unit normal has 0/1 leading entries; ideal
    iff additionally each has last entry exactly -1. First offender in lex
    order is reported."""
    for b in fs.ell_normals:
        if any(e not in (0, 1) for e in b[:-1]):
            return ConeClassification(Verdict.NEITHER, b)
    if all(b[-1] == -1 for b in fs.ell_normals):
        return ConeClassification(Verdict.IDEAL)
    return ConeClassification(Verdict.QUASI_IDEAL)


def verify_basis_facet_shape(m: Matroid, facets: FacetSystem) -> tuple[tuple[int, ...], ...]:
    """The ell-normals of m's basis Rees cone outside T3.6's shape (0/1
    leading entries, last entry in [-d, -1]), lex-sorted; () when it holds."""
    return tuple(b for b in facets.ell_normals
                 if any(e not in (0, 1) for e in b[:-1]) or not -m.d <= b[-1] <= -1)
