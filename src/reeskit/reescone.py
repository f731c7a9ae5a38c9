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
from itertools import combinations
from math import gcd

from .errors import CapExceeded, DegenerateCone, IntegrityError, Record
from .exactlat import _bareiss, adjugate, determinant, dot, primitive, rank
from .exactlat import echelon_mod_2, parity_mask
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
    slack: the facet-generator value matrix, computed once per cone (as in
    Normaliz, Bruns and Ichim, J. Algebra 2010): for each distinct primitive
    generator g of the cone the facets were found for, the tuple of <b, g>
    over b in normals(), in that order (empty when not given). It takes no
    part in equality, so facet systems found by different routes compare
    equal.
    """

    dim: int
    unit_normals: tuple[int, ...]
    ell_normals: tuple[tuple[int, ...], ...]
    slack: dict = None
    _uncompared = ("slack",)
    _json = ("unit_normals", "ell_normals")

    def __post_init__(self):
        if self.slack is None:
            object.__setattr__(self, "slack", {})
        units = tuple(_unit(i - 1, self.dim) for i in self.unit_normals)
        object.__setattr__(self, "_normals", units + self.ell_normals)

    def normals(self) -> tuple[tuple[int, ...], ...]:
        """Unit normals e_i in index order, then the ell-normals."""
        return self._normals

    def tight_masks(self, gens) -> list[int]:
        """For each normal, in normals() order, the bitmask of the positions
        in gens (primitive generators of the cone) that it is tight on."""
        columns = zip(*(self.slack[g] for g in gens))
        return [sum(1 << j for j, v in enumerate(col) if v == 0) for col in columns]

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
        vals = [dot(a, r) for r in rays]
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
    primitive generators are computed once, serve every check, and are kept
    per generator in normals() order as the system's slack.

    A normal b != 0 annihilates its tight set, so the tight set's rank over Q
    is at most dim - 1, and at least its rank mod 2: a rank mod 2 of dim - 1
    (echelon_mod_2 on parity masks) certifies the rank, and only a lower one
    falls back to the exact rank()."""
    gens = _distinct_rows(primitive(g) for g in generators)
    parity = [parity_mask(g) for g in gens]
    units, ells, columns = [], [], {}
    for b in normals:
        if gcd(*b) != 1:
            raise IntegrityError(f"normal {b} is not primitive")
        values = [dot(b, g) for g in gens]
        if any(v < 0 for v in values):
            raise IntegrityError(f"normal {b} cuts off a generator")
        tight = [k for k, v in enumerate(values) if v == 0]
        if len(echelon_mod_2(parity[k] for k in tight)) != dim - 1 and (
            rank([gens[k] for k in tight]) != dim - 1
        ):
            raise IntegrityError(f"normal {b} is not tight on a rank-{dim - 1} subset")
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
    slack = dict(zip(gens, zip(*(columns[b] for b in order))))
    return FacetSystem(dim, tuple(units), tuple(ells), slack)


def facet_normals(cone: ReesCone) -> FacetSystem:
    """Irreducible facet description via double description; DegenerateCone
    when the generators span less than the full dimension."""
    normals = _dual_extreme_rays(cone.generators, cone.dim)
    return _facet_system(cone.dim, normals, cone.generators)


def facet_normals_oracle(cone: ReesCone, cap: int = ORACLE_CAP) -> FacetSystem:
    """Brute-force facet enumeration, independent of the incremental engine.

    Every subset of dim-1 generators of full rank spans a candidate
    hyperplane; its primitive normal is kept iff one orientation puts the
    whole generator set on the nonnegative side. Exponential in the
    generator count, hence the cap.
    """
    gens = _distinct_rows(cone.generators)
    if len(gens) > cap:
        raise CapExceeded(f"{len(gens)} generators exceed the oracle cap {cap}")
    dim = cone.dim
    if rank(gens) < dim:
        raise DegenerateCone(f"generators span rank {rank(gens)} < {dim}")
    normals = set()
    for combo in combinations(gens, dim - 1):
        w = []
        sign = 1
        for k in range(dim):
            minor = [[g[i] for i in range(dim) if i != k] for g in combo]
            w.append(sign * determinant(minor))
            sign = -sign
        if not any(w):
            continue
        w = primitive(w)
        values = [dot(w, g) for g in gens]
        if any(v > 0 for v in values) and any(v < 0 for v in values):
            continue
        if all(v <= 0 for v in values):
            w = tuple(-e for e in w)
        normals.add(w)
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


class ShapeReport(Record):
    """Facet shape audit for a matroid basis Rees cone.

    Expected shape: units, plus 0/1-leading normals with last entry in
    [-d, -1]. Anything else lands in violations. notes records oddities
    that are not violations, like coordinate units missing from the facet
    list (which happens for n = 1).
    """

    n: int
    d: int
    facets: FacetSystem
    violations: tuple[tuple[int, ...], ...]
    notes: tuple[str, ...]
    _json = ("n", "d", "facets", "violations", "notes", "holds")

    @property
    def holds(self) -> bool:
        return not self.violations


def verify_basis_facet_shape(m: Matroid, facets: FacetSystem) -> ShapeReport:
    """Shape audit of the facets of m's basis Rees cone."""
    violations = [b for b in facets.ell_normals
                  if any(e not in (0, 1) for e in b[:-1]) or not (-m.d <= b[-1] <= -1)]
    notes = []
    missing = [i for i in range(1, m.n + 2) if i not in facets.unit_normals]
    if missing:
        notes.append(
            "coordinate units absent from the facet list: "
            + ", ".join(f"e_{i}" for i in missing)
        )
    return ShapeReport(m.n, m.d, facets, tuple(violations), tuple(notes))


def extreme_generators(cone: ReesCone, fs: FacetSystem):
    """Primitive generators that span extreme rays, distinct, in input order.

    The minimal face of a primitive generator p is cut out by the facets p
    is tight on, and it is spanned by the generators tight on all of them.
    So p spans an extreme ray iff no other distinct primitive generator is
    tight on every facet p is tight on. Each facet is the bitmask of the
    generators it contains (FacetSystem.tight_masks), and p's minimal face is
    the meet of the masks of its facets (every generator when p is tight on
    none).
    """
    gens = _distinct_rows(primitive(g) for g in cone.generators)
    facets = fs.tight_masks(gens)
    out = []
    for j, p in enumerate(gens):
        face = (1 << len(gens)) - 1
        for mask in facets:
            if mask >> j & 1:
                face &= mask
        if face == 1 << j:
            out.append(p)
    return tuple(out)
