"""Affine semigroups of Rees cones: Hilbert bases and normality certificates.

The semigroup generated by a Rees cone's generators is normal exactly when
it exhausts every lattice point of the cone, i.e. when the generators are an
integral Hilbert basis. The Hilbert basis of the full lattice-point
semigroup is computed by a pulling triangulation of the cone into simplicial
subcones, whose faces are read off the cone's facets by intersecting ray
bitmasks, so no face below the top runs a double description of its own; a
simplex is such a bitmask too, unpacked into rays only when its volume is
above 1. Each simplex comes with its normalized volume, a product of
heights: the height of a face's apex over one of its facets, in the face's
saturated lattice Z^dim & span(F), is <b, apex> / gcd <b, L_F> for the
facet's cone normal b, and the recursion carries a Z-basis of each face's
lattice down to its facets. Then one pivot walk takes the adjugate of each
simplex of volume above 1 to the next by exchanging rays, and one coset
closure, on rays packed once per cone, reads the lattice points of the
simplex's half-open fundamental parallelepiped off the adjugate's columns;
the candidates are reduced to the irreducible ones in order of degree, each
against the irreducibles already kept, on facet values packed into one int
per candidate. A Hilbert basis element is irreducible, so it lies in the
subsemigroup the generators span iff it is one of them. Dilation equality
compares bP with the b-fold sumset of the vertices, kept as packed ints: for
an ideal generated in one degree d, a lies in bP iff (a, b) lies in the Rees
cone and |a| = b*d, so bP lies on a box slice, which is counted in closed
form first. A slice the sumset fills is bP; any other is walked as packed
keys, and only its points outside the sumset are read off the facets the
session already holds. An ideal of several degrees is padded to its top
degree D first, each v to (v, D - |v|), so every dilation is read off the
facets of a Rees cone. Integer arithmetic throughout.

An IdealSession builds each of these artefacts for one ideal at most once
and keeps them no longer than itself; every check of an ideal is read off one.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from math import comb, gcd
from operator import mul

from .errors import (
    CapExceeded,
    IntegrityError,
    InvalidInstance,
    MethodDisagreement,
    PreconditionFailed,
    Record,
    UnequalModuli,
)
from .exactlat import _bareiss, adjugate, dot, packer, primitive
from .matroid import MonomialIdeal
from .reescone import (
    ConeClassification,
    FacetSystem,
    ReesCone,
    Verdict,
    classify,
    extreme_generators,
    facet_normals,
    rees_generators,
)

DEFAULT_CAP = 10**6


class HilbertBasisResult(Record):
    """Lex-sorted irreducible generators plus how they were obtained."""

    elements: tuple[tuple[int, ...], ...]
    simplices: int
    parallelepiped_points: int
    candidates: int

    def method(self) -> dict:
        return {
            "algorithm": "triangulation+parallelepiped",
            "simplices": self.simplices,
            "parallelepiped_points": self.parallelepiped_points,
            "candidates": self.candidates,
        }

    def to_json(self) -> dict:
        return {
            "elements": [list(h) for h in self.elements],
            "method": self.method(),
        }


class NormalityCertificate(Record):
    verdict: str  # "normal" | "not_normal"
    witness: tuple[int, ...] | None
    method: str  # "hilbert" | "quasi_ehrhart" | "both"


def _pivot_walk(rays, simplices):
    """(simplex, adj, det, vol) for each (mask, vol) in simplices with vol
    above 1, in their order: the simplex's rays in slot order, R the matrix
    with those rays as columns, det = |det R| and adj = sgn(det R) adj(R),
    so adj R = det I.

    adjugate runs once, on the first such simplex; each later one is reached
    by integer pivoting (the exchange of lrs, Avis 2000, after Edmonds 1967).
    Bringing in a ray r with w = adj r over a leaving slot k with w_k != 0,
    its sign taken as w_k's so that w_k > 0, gives the determinant w_k, keeps
    row k of adj up to that sign and turns each other row i into
    (w_k adj_i - w_i adj_k) / det, an exact division: a row with w_i = 0 is
    kept when w_k = det. The slots hold ray indices, with the current simplex
    as a bitmask. An entering ray with no leaving slot of w_k != 0, or an
    inexact division, is an IntegrityError.
    """
    mask = adj = det = 0
    for target, vol in simplices:
        if vol < 2:
            continue
        if not mask:
            mask, slots = target, [i for i in range(len(rays)) if target >> i & 1]
            adj, det = adjugate([list(coords) for coords in zip(*(rays[i] for i in slots))])
            if det < 0:
                adj, det = [[-e for e in row] for row in adj], -det
        leaving, entering = mask & ~target, target & ~mask
        while entering:
            low = entering & -entering
            entering ^= low
            r = rays[low.bit_length() - 1]
            w = [sum(map(mul, row, r)) for row in adj]
            k = next((k for k, i in enumerate(slots) if leaving >> i & 1 and w[k]), None)
            if k is None:
                raise IntegrityError(f"ray {list(r)} has no leaving slot of nonzero weight")
            leaving ^= 1 << slots[k]
            slots[k] = low.bit_length() - 1
            wk, pivot = w[k], adj[k]
            kept = pivot if wk > 0 else [-e for e in pivot]
            if wk < 0:
                w, wk = [-e for e in w], -wk
            rows = []
            for i, (row, wi) in enumerate(zip(adj, w)):
                if i == k:
                    row = kept
                elif wi or wk != det:
                    num = [wk * x - wi * y for x, y in zip(row, pivot)]
                    row = list(map(det.__rfloordiv__, num))
                    if sum(num) != det * sum(row):  # each remainder has det's sign
                        raise IntegrityError(f"inexact pivot division by {det}")
                rows.append(row)
            adj, det = rows, wk
        mask = target
        yield tuple(rays[i] for i in slots), adj, det, vol


def _ray_frame(rays):
    """(width, weights, lows, packed) to pack the parallelepiped points of any
    simplex of rays in one int each: coordinate j offset by lows[j], the sum
    of its negative entries, in fields of W.bit_length() + 1 bits for W the
    largest sum of |r_j| on one coordinate, and packed maps each ray to its int."""
    coords = list(zip(*rays))
    spans = [sum(map(abs, row)) for row in coords]
    width = max(spans).bit_length() + 1
    weights = [1 << width * j for j in range(len(coords))]  # packer's, without its identity rows
    lows = [(sum(row) - span) // 2 for row, span in zip(coords, spans)]
    return width, weights, lows, {r: sum(map(mul, r, weights)) for r in rays}


def _coset_points(simplex, adj, det: int, vol: int, frame) -> set[tuple[int, ...]]:
    """Nonzero lattice points of {sum lam_i r_i : 0 <= lam_i < 1}, for the
    simplex's rays r_i in slot order, adj R = det I with det > 0, vol its
    volume from heights, and a _ray_frame of its rays or more to pack them.

    The points are (sum c_i r_i) / det for c in the group G of order det
    that the columns of adj generate mod det. G is grown column by column:
    the subgroup H found so far is stepped by a column a, layer after layer,
    until a step lands back inside H. A step adds a to c and
    g = (sum a_i r_i) / det to the point, then subtracts r_i for each c_i
    that wrapped past det, so a point costs O(m) additions and no division.
    det != vol, a g that is not a lattice point, or a group of order other
    than det is an IntegrityError.
    """
    if det != vol:
        raise IntegrityError(f"simplex volume {vol} from heights, {det} from the pivot walk")
    width, weights, lows, packed = frame
    coords = list(zip(*simplex))
    rays = [packed[r] for r in simplex]
    zero = -sum(map(mul, lows, weights))
    group, seen = [((0,) * len(simplex), zero)], {zero}
    for column in zip(*adj):
        if len(group) == det:
            break
        a = [e % det for e in column]
        sums = [sum(map(mul, a, row)) for row in coords]
        if any(map(det.__rmod__, sums)):
            raise IntegrityError(f"adjugate column {list(column)} gives no lattice point")
        g = sum(map(mul, map(det.__rfloordiv__, sums), weights))
        layer = group
        while layer:
            stepped = []
            for c, p in layer:
                c = [x + y for x, y in zip(c, a)]
                p += g
                for i, x in enumerate(c):
                    if x >= det:
                        c[i] = x - det
                        p -= rays[i]
                if p in seen:
                    break
                stepped.append((c, p))
            group += stepped
            seen.update(p for _, p in stepped)
            layer = stepped
    if len(seen) != det:
        raise IntegrityError(f"coset closure gave {len(seen)} of {det} cosets")
    mask, fields = (1 << width) - 1, [(width * j, lo) for j, lo in enumerate(lows)]
    return {tuple([(q >> s & mask) + lo for s, lo in fields]) for q in seen if q != zero}


def _pivot_projector(rows):
    """Map a normal b to the primitive normal of the functional <b, .> on
    span(rows), in the pivot projection of rows (the coordinates on which
    that span projects isomorphically). With E the Gauss-Jordan basis of
    rows (_bareiss) and E_P = p*I its pivot block, that normal w solves
    E_P w = E b, so p E b = p^2 w is a positive multiple of it."""
    ech, pivots, _, p = _bareiss(rows)
    basis = ech[: len(pivots)]
    return lambda b: primitive(p * dot(row, b) for row in basis)


def _split(basis, b):
    """(g, sub) for a Z-basis of a saturated lattice L and an integer normal b:
    g is the gcd of <b, L> and sub a Z-basis of L & b^perp.

    Euclid on the pairs (<b, beta>, beta): the pair of least nonzero value
    reduces the others modulo itself, which is a unimodular change of basis,
    until one nonzero value is left; it is +-g, and the vectors whose value
    reached 0 span the kernel."""
    sub, live = [], []
    for v in basis:
        s = sum(map(mul, b, v))
        if s:
            live.append((s, v))
        else:
            sub.append(v)
    while len(live) > 1:
        live.sort(key=lambda pair: abs(pair[0]))
        (p, u), rest = live[0], live[1:]
        live = [(p, u)]
        for s, v in rest:
            q = s // p
            v = tuple([x - q * y for x, y in zip(v, u)])
            if s - q * p:
                live.append((s - q * p, v))
            else:
                sub.append(v)
    return abs(live[0][0]), sub


def _triangulate(rays: tuple, fs: FacetSystem, canonical: bool = False) -> tuple[tuple, ...]:
    """Pulling triangulation of the lex-sorted extreme rays of a cone with
    the facet system fs, as (simplex, normalized volume) pairs, a simplex
    being the bitmask of its rays: cone off the lex-smallest ray of each face
    (its lowest bit) over every facet of the face that avoids it. The
    subcones cover the cone, which is all downstream enumeration needs.

    Faces are bitmasks over the rays, and every facet G of the cone is the
    mask of the rays it contains (FacetSystem.tight_masks). The facets of a
    face F are the inclusion-maximal proper sets among the F & G: each facet
    of F is a face of the cone, so it is the intersection of the cone facets
    containing it, and one of those does not contain F. A face reached at
    depth k has dimension dim - k, so each of its facets has at least
    dim - k - 1 rays, and so has every meet containing one: maximality is
    tested only among the meets with that many rays. A simplicial face has
    exactly its dim - k sets F - a left, so it needs no test of its own: its
    lowest ray is pulled over the rest, down to the empty face. Faces recur
    across facets, so each face is triangulated once.

    The simplices and their volumes do not depend on the order in which a
    face's facets are taken, only their sequence does. By default they are
    taken in the order of the cone facets that cut them out. With
    canonical, they are taken in ascending order of their primitive inner
    normals in F's pivot projection (one Gauss-Jordan pass per face, over
    L_F's Z-basis below, which spans span(F)): that fixes the sequence, and
    with it the running total a cap-exceeded message reports (hilbert_basis).

    Volumes come from heights (as over the triangulations of Normaliz,
    Bruns and Ichim, J. Algebra 2010), not from determinants. A face F
    carries a Z-basis of its saturated lattice L_F = Z^dim & span(F), the
    identity at the top. Pulling the apex a over a facet H of F with cone
    normal b gives |det(s + a)| = h vol(s) in L_F for each simplex s of H,
    where h is a's height over H in L_F: b restricted to L_F is g w with w
    H's primitive functional on L_F and g = gcd <b, L_F>, so h = <b, a> / g.
    For a face H not yet triangulated, _split gives g and a Z-basis of L_H =
    L_F & b^perp; for one already triangulated, g alone, the gcd of <b, v>
    over L_F's basis v. The empty face is one empty simplex of volume 1, so
    a primitive ray has volume 1.
    """
    dim = len(rays[0])
    normals = fs.normals()
    facets = fs.tight_masks(rays)
    slack = [fs.slack[r] for r in rays]
    memo: dict[int, tuple] = {}

    def height(apex: int, j: int, g: int) -> int:
        h, r = divmod(slack[apex][j], g)
        if r:
            raise IntegrityError(f"height {slack[apex][j]} not divisible by content {g}")
        return h

    def pull(face: int, depth: int, basis) -> tuple:
        if not face:
            return ((0, 1),)
        low = face & -face
        apex = low.bit_length() - 1
        meets: dict[int, int] = {}  # F & G -> the index of the first such G
        for j, mask in enumerate(facets):
            meet = face & mask
            if meet != face and meet.bit_count() >= dim - depth - 1:
                meets.setdefault(meet, j)
        pulled = [
            (meet, j)
            for meet, j in meets.items()
            if not meet & low and not any(meet | other == other != meet for other in meets)
        ]
        if canonical and len(pulled) > 1:
            # the top face spans the space, so its projection is the identity
            project = _pivot_projector(basis) if depth else tuple
            pulled.sort(key=lambda item: project(normals[item[1]]))
        out = []
        for meet, j in pulled:
            b = normals[j]
            sub = memo.get(meet)
            if sub is None:
                g, sub_basis = _split(basis, b)
                sub = pull(meet, depth + 1, sub_basis)
            else:
                g = gcd(*[sum(map(mul, b, v)) for v in basis])
            h = height(apex, j, g)
            out.extend((s | low, h * vol) for s, vol in sub)
        memo[face] = simplices = tuple(out)
        return simplices

    identity = [tuple(int(i == k) for k in range(dim)) for i in range(dim)]
    return pull((1 << len(rays)) - 1, 0, identity)


def hilbert_basis(
    cone: ReesCone, facets: FacetSystem, cap: int = DEFAULT_CAP
) -> HilbertBasisResult:
    """Irreducible generating set of (lattice points of the cone, +).

    Candidates are the primitive extreme generators together with every
    nonzero parallelepiped point of the pulling triangulation, which is
    built from the cone's facet system alone on ray bitmasks (_triangulate);
    they include the Hilbert basis. A simplex of volume v has v - 1 of them,
    and only a simplex with v > 1 is unpacked into its rays; v is the
    product of the heights along the simplex's pulling chain, each a facet
    value divided by the content of the facet normal on the face's saturated
    lattice. The volumes are summed before any point is enumerated, and the
    cap bounds that sum, the total parallelepiped lattice points; past it,
    the triangulation is rebuilt in its canonical order to report the
    running total at the first simplex over the cap. Then the pivot walk
    (_pivot_walk) carries one adjugate from each simplex of volume above 1
    to the next, and the coset closure of its columns (_coset_points) gives
    the simplex's points, O(m) additions a point on the rays, packed once
    (_ray_frame) if some volume is above 1. Reduction follows
    Normaliz (Bruns and Ichim, J. Algebra 2010): candidates are walked by ascending
    coordinate sum, and h is kept unless an element k kept before it has
    every facet value <= h's, i.e. h - k lies in the cone. That is exact: a
    reducible h is reducible by a Hilbert basis element x with h - x a
    nonzero point of the first orthant, so sum(x) < sum(h) and x was kept
    first, while two candidates of equal sum never reduce each other.
    Uniqueness comes with pointedness, which holds as the generators sit in
    the first orthant. Facet values are packed (exactlat.packer) in fields
    of W.bit_length() + 1 bits, so that test is one guarded subtraction: W,
    the largest sum of the rays' values on one facet, bounds the values of
    every candidate, a ray or sum lam_i r_i with 0 <= lam_i < 1. A key that
    is negative or has a guard bit set is an IntegrityError.
    """
    extreme = extreme_generators(cone, facets)
    rays = tuple(sorted(extreme))
    simplices = _triangulate(rays, facets)
    total = sum(vol for _, vol in simplices)
    if total > cap:
        canonical = _triangulate(rays, facets, canonical=True)
        reached = next(t for t in accumulate(vol for _, vol in canonical) if t > cap)
        raise CapExceeded(f"parallelepiped budget {cap} exceeded at {reached} lattice points")
    points: set[tuple[int, ...]] = set()
    frame = _ray_frame(rays) if total > len(simplices) else None
    for walked in _pivot_walk(rays, simplices):
        points.update(_coset_points(*walked, frame))
    candidates = set(extreme) | points
    bound = max(map(sum, zip(*(facets.slack[r] for r in rays))))
    pack, guard = packer(facets.normals(), bound.bit_length() + 1)
    elements, kept = [], []
    for h in sorted(candidates, key=sum):
        x = pack(h)
        if x < 0 or x & guard:
            raise IntegrityError(f"candidate {list(h)} has a facet value outside 0..{bound}")
        top = x | guard
        for k in kept:
            if (top - k) & guard == guard:
                break
        else:
            elements.append(h)
            kept.append(x)
    return HilbertBasisResult(
        tuple(sorted(elements)), len(simplices), total, len(candidates)
    )


def _slice_count(lo, hi, total) -> int:
    """Number of points of prod [lo_k, hi_k], lo <= hi, with coordinate sum
    total: by stars and bars with upper bounds, the sum of (-1)^|J|
    C(t - sum_J c_j + n - 1, n - 1) over the sets J that keep it >= 0, depth
    first, for t = total - sum lo and the caps c_j = hi_j - lo_j + 1 above 1
    (a cap of 1 fixes its coordinate). The reflection sum (c_j - 1) - t has
    the same count, so the smaller t is taken and no J has over t / 2 members."""
    caps = [c for x, h in zip(lo, hi) if (c := h - x + 1) > 1]
    n, t = len(caps), total - sum(lo)
    t = min(t, sum(caps) - n - t)

    def terms(i: int, t: int) -> int:
        rest = (terms(j + 1, t - c) for j, c in enumerate(caps[i:], i) if c <= t)
        return comb(t + n - 1, n - 1) - sum(rest)

    return terms(0, t) if t > 0 else int(t == 0)


def _slice_keys(lo, hi, total, weights):
    """Keys sum a_k weights[k] of the points a of prod [lo_k, hi_k], lo <= hi,
    with coordinate sum total, lazily in lex order of a, in O(n) memory.

    An odometer over all but the last two coordinates carries the key and
    the sum left; each coordinate runs only over the values that leave a sum
    the later ones can reach, so every value leads to a point. The last
    coordinate is forced by the sum, so the keys of one prefix step by
    weights[-2] - weights[-1]: a range. A coordinate fixed at 0, of weight
    0, goes in front, so that every slice has two coordinates."""
    lo, hi, weights, n = [0, *lo], [0, *hi], [0, *weights], len(lo) + 1
    below, above = ([*accumulate(reversed(v), initial=0)][::-1] for v in (lo, hi))
    if not below[0] <= total <= above[0]:
        return
    step, point = weights[-2] - weights[-1], [0] * n
    key, rest, k = 0, total, 0
    while True:
        for j in range(k, n - 2):
            point[j] = e = max(lo[j], rest - above[j + 1])
            key, rest = key + e * weights[j], rest - e
        first, last = max(lo[-2], rest - hi[-1]), min(hi[-2], rest - lo[-1])
        start = key + first * weights[-2] + (rest - first) * weights[-1]
        yield from range(start, start + (last - first + 1) * step, step)
        k = n - 3
        while k >= 0 and (point[k] == hi[k] or rest == below[k + 1]):
            key, rest, k = key - point[k] * weights[k], rest + point[k], k - 1
        if k < 0:
            return
        point[k], key, rest, k = point[k] + 1, key + weights[k], rest - 1, k + 1


class DilationCheck(Record):
    b: int
    points: int
    failures: tuple[tuple[int, ...], ...]


class EqualityReport(Record):
    """Which lattice points of bP are no sum of exactly b generators, for
    1 <= b <= b_max? A semidecision: silence below the bound only."""

    degree: int
    b_max: int
    dilations: tuple[DilationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(not d.failures for d in self.dilations)

    @property
    def first_witness(self):
        for d in self.dilations:
            if d.failures:
                return d.b, d.failures[0]
        return None

    def to_json(self) -> dict:
        out = {
            "degree": self.degree,
            "b_max": self.b_max,
            "dilations": [d.to_json() for d in self.dilations],
            "passed": self.passed,
            "semidecision": f"checked dilations 1..{self.b_max} only",
        }
        w = self.first_witness
        if w is not None:
            out["first_witness"] = {"b": w[0], "point": list(w[1])}
        return out


def _equality_report(vertices, degree: int, b_max: int, in_dilation) -> EqualityReport:
    """Dilation equality of the polytope P spanned by the distinct vertices,
    all of the given degree; in_dilation((a, b)) decides whether a lies in bP.

    The sums of exactly b vertices are grown one layer at a time, only the
    current layer kept, as keys packed in fields that hold b_max times the
    largest coordinate. Each is a point of bP on the slice of sum b * degree
    of b times the vertices' box, never tested. When the sums fill the slice
    (_slice_count), bP is the sumset; else the slice's keys are walked in lex
    order (_slice_keys), and only those outside the sumset are decoded and
    asked; the ones in bP are the failures. bP has len(sums) + failures points.
    """
    n = len(vertices[0])
    lo, hi = ([f(column) for column in zip(*vertices)] for f in (min, max))
    width = max(1, (b_max * max(hi)).bit_length())
    weights, mask = [1 << width * k for k in range(n)], (1 << width) - 1
    keys = {sum(map(mul, v, weights)) for v in vertices}
    dilations, sums = [], {0}
    for b in range(1, b_max + 1):
        sums = {s + v for s in sums for v in keys}
        box = [b * x for x in lo], [b * x for x in hi], b * degree
        walk = () if _slice_count(*box) == len(sums) else _slice_keys(*box, weights)
        points = (tuple([q >> width * k & mask for k in range(n)]) for q in walk if q not in sums)
        failures = tuple(a for a in points if in_dilation((*a, b)))
        dilations.append(DilationCheck(b, len(sums) + len(failures), failures))
    return EqualityReport(degree, b_max, tuple(dilations))


class ElementStatus(Record):
    element: tuple[int, ...]
    kind: str  # "unit" | "dilation"
    ok: bool


class DecompositionReport(Record):
    """Audit that each Hilbert basis element is a unit e_i at height zero or
    lands in the dilated polytope at its height. A failure would refute the
    structural decomposition of a quasi-ideal normalization, so callers
    treat violations as counterexamples."""

    verdict: Verdict
    statuses: tuple[ElementStatus, ...]

    @property
    def holds(self) -> bool:
        return all(s.ok for s in self.statuses)

    @property
    def violations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.element for s in self.statuses if not s.ok)

    def to_json(self) -> dict:
        return {
            "classification": self.verdict.value,
            "elements": [s.to_json() for s in self.statuses],
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
        }


class IdealSession:
    """Every cone artefact of one monomial ideal, each computed at most once.

    The cone, its facets and classification and the Hilbert basis are built
    on first use; past the session's cap, each read of the Hilbert basis
    raises again the CapExceeded of its one computation. The certificates
    and reports below read them. Every dilation of the generator polytope is
    read off Rees-cone facets: the session's own when the ideal is generated
    in one degree, which is every case the CLI's equality check reaches, and
    those of the ideal padded to one degree otherwise. A session keeps one
    ideal's work and nothing else, so it goes with the ideal: build one per
    ideal and let it drop.
    """

    def __init__(self, ideal: MonomialIdeal, cap: int = DEFAULT_CAP):
        self.ideal = ideal
        self.cap = cap

    @cached_property
    def cone(self) -> ReesCone:
        return rees_generators(self.ideal)

    @cached_property
    def facets(self) -> FacetSystem:
        return facet_normals(self.cone)

    @cached_property
    def classification(self) -> ConeClassification:
        return classify(self.facets)

    @cached_property
    def _hilbert(self) -> HilbertBasisResult | CapExceeded:
        try:
            return hilbert_basis(self.cone, self.facets, self.cap)
        except CapExceeded as exc:
            return exc

    @property
    def hilbert(self) -> HilbertBasisResult:
        if isinstance(got := self._hilbert, CapExceeded):
            raise got.with_traceback(None)  # else each re-raise piles on frames
        return got

    @cached_property
    def degree(self) -> int | None:
        """The one degree of the generators, or None when they have several."""
        degrees = {sum(v) for v in self.ideal.exponents}
        return degrees.pop() if len(degrees) == 1 else None

    @cached_property
    def padded(self) -> "IdealSession":
        """The session of the generators v padded to (v, D - |v|), D the top
        degree: an ideal in n+1 variables generated in the one degree D."""
        top = max(map(sum, self.ideal.exponents))
        padded = tuple((*v, top - sum(v)) for v in self.ideal.exponents)
        return IdealSession(MonomialIdeal(self.ideal.n + 1, padded), self.cap)

    def in_dilation(self, point) -> bool:
        """Is a in bP, for point = (a, b) and P the generator polytope?

        In one degree d this is (a, b) in the Rees cone with |a| = b*d: write
        (a, b) = sum mu_i (e_i, 0) + sum lam_j (v_j, 1) with mu, lam >= 0; then
        |a| = b*d + sum mu_i, so |a| = b*d forces mu = 0 and (a, b) lies in
        the cone of the (v, 1). In several degrees, of which D is the top one,
        the map x -> (x, D - |x|) is affine and injective, keeps lattice
        points and takes P onto the padded polytope P', so a is in bP iff
        (a, bD - |a|) is in bP', which the padded session decides in one
        degree. A negative last entry needs no case of its own: the Rees cone
        lies in the first orthant.
        """
        if self.degree is None:
            *a, b = point
            padded = self.padded
            return padded.in_dilation((*a, b * padded.degree - sum(a), b))
        b = point[-1]
        return sum(point) - b == self.degree * b and self.facets.contains(point)

    @cached_property
    def normality(self) -> NormalityCertificate:
        """Direct route: normal iff every Hilbert basis element lies in the
        semigroup the generators span. A Hilbert basis element is irreducible
        among the cone's lattice points, and every generator is one of them,
        so it lies in that semigroup iff it is a generator. The witness is the
        lex-first element that is not. Principal ideals short-circuit: their
        Rees cone is simplicial and unimodular."""
        if self.ideal.q > 1:
            generators = set(self.cone.generators)
            for h in self.hilbert.elements:
                if h not in generators:
                    return NormalityCertificate("not_normal", h, "hilbert")
        return NormalityCertificate("normal", None, "hilbert")

    def equality(self, b_max: int) -> EqualityReport:
        """Which lattice points of bP are no sum of exactly b generators, for
        1 <= b <= b_max, with bP read off the session's facets (in_dilation).
        The generators must share one degree: else UnequalModuli names the
        lex-first of least degree and of greatest degree."""
        vecs = self.ideal.exponents
        if self.degree is None:
            degrees = [sum(v) for v in vecs]
            first, second = (vecs[degrees.index(f(degrees))] for f in (min, max))
            raise UnequalModuli(first, second)
        if b_max < 0:
            raise InvalidInstance("b_max must be nonnegative")
        return _equality_report(vecs, self.degree, b_max, self.in_dilation)

    @cached_property
    def decomposition(self) -> DecompositionReport:
        verdict = self.classification.verdict
        if verdict is Verdict.NEITHER:
            raise PreconditionFailed("decomposition check needs an ideal or quasi-ideal cone")
        statuses = []
        for h in self.hilbert.elements:
            a, b = h[:-1], h[-1]
            if b == 0:
                ok = sum(a) == 1 and all(e in (0, 1) for e in a)
                statuses.append(ElementStatus(h, "unit", ok))
            else:
                statuses.append(ElementStatus(h, "dilation", self.in_dilation(h)))
        return DecompositionReport(verdict, tuple(statuses))

    @cached_property
    def certificate(self) -> NormalityCertificate:
        """Two-route certification.

        Always runs the direct Hilbert route. When the cone classifies as
        ideal or quasi-ideal and the generators share one degree, also runs
        the equality route: dilation equality up to the largest Hilbert
        height plus the decomposition audit certifies the same verdict, and
        any disagreement between the routes is a hard MethodDisagreement.
        Method is "both" when the second route ran.
        """
        direct = self.normality
        if self.ideal.q == 1:
            return direct
        if self.classification.verdict is Verdict.NEITHER or self.degree is None:
            return direct
        equality = self.equality(max(h[-1] for h in self.hilbert.elements))
        passed = equality.passed and self.decomposition.holds
        quasi_verdict = "normal" if passed else "not_normal"
        if quasi_verdict != direct.verdict:
            raise MethodDisagreement(
                f"hilbert route says {direct.verdict}, equality route says {quasi_verdict} "
                f"on {self.ideal.to_json()}"
            )
        return NormalityCertificate(direct.verdict, direct.witness, "both")
