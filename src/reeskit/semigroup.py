"""Affine semigroups of Rees cones: Hilbert bases and normality certificates.

The semigroup generated by a Rees cone's generators is normal exactly when
it exhausts every lattice point of the cone, i.e. when the generators are an
integral Hilbert basis. The Hilbert basis of the full lattice-point
semigroup is computed by a pulling triangulation of the cone into simplicial
subcones, in the rays' pulling order. Each face, a ray bitmask, reads its
facets off its parent's, so none below the top runs a double description: a
ridge lies in exactly two facets, so those of a facet H of F are the maximal
H & K, K another facet of F. A simplicial face keeps just its facet that
avoids its apex, so none below it builds a list, and a list goes once its
face's node is built. H is pulled over in the order of the first cone facet
to cut it out of F, the lowest bit of Z(H) & ~Z(F), Z(M) the cone facets
tight on all of M. It is a DAG of faces, each built once with the
number and total volume of its simplices, so a simplex, the bitmask of the
apexes on a path down it, is listed only when its volume is above 1, and
below a face reached by steps of height 1 alone only once, as it has the
points of the face's simplex it extends. Volumes are products of heights:
the apex a of a face F has height <b, a> / gcd <b, L_F> over its facet of
cone normal b, in L_F = Z^dim & span(F). The gcd is 1 when a ray r of F has
<b, r> = 1, as r lies in L_F; only a face without such a ray builds a
Z-basis of L_F, from its parent's. A listed simplex of volume 2 has one
point, half the sum of the rays in the one dependency of their parity
masks. One pivot walk takes the adjugate of each listed simplex of volume
above 2 to the next by exchanging rays, and one coset closure reads the
lattice points of its half-open fundamental parallelepiped off the
adjugate's columns. Each point is one int key packing its facet values,
coordinates and degree; by key, so by degree, each is reduced
against the irreducibles kept of at most half its degree (a sum of them has
one), by one guarded subtraction each. A Hilbert basis element is irreducible,
so it lies in the subsemigroup the generators span iff it is one of them.
Dilation equality compares bP with the b-fold sumset of the vertices, kept as
packed ints: for an ideal generated in one degree d, a lies in bP iff (a, b)
lies in the Rees cone and |a| = b*d, so bP lies on a box slice, which is
counted in closed form first. A slice the sumset fills is bP; any other is
walked as packed keys, and only its points outside the sumset are read off the
facets the session already holds. An ideal of several degrees is padded to its
top degree D first, each v to (v, D - |v|), so every dilation is read off the
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
from .exactlat import adjugate, packer, parity_mask, rank_mod_2
from .matroid import MonomialIdeal
from .reescone import (
    ConeClassification,
    FacetSystem,
    ReesCone,
    Verdict,
    classify,
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
    _json = ("elements", "method")

    @property
    def method(self) -> dict:
        return {
            "algorithm": "triangulation+parallelepiped",
            "simplices": self.simplices,
            "parallelepiped_points": self.parallelepiped_points,
            "candidates": self.candidates,
        }


class NormalityCertificate(Record):
    verdict: str  # "normal" | "not_normal"
    witness: tuple[int, ...] | None
    method: str  # "hilbert" | "both"


def _pivot_walk(rays, simplices):
    """(simplex, adj, det, vol) for each (mask, vol) in simplices, in their
    order: the simplex's rays in slot order, R the matrix with those rays as
    columns, det = |det R| and adj = sgn(det R) adj(R), so adj R = det I.

    adjugate runs once, on the first simplex; each later one is reached
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


def _coset_points(simplex, adj, det: int, vol: int, keys) -> set[int]:
    """Keys of the nonzero lattice points of {sum lam_i r_i : 0 <= lam_i < 1},
    for the simplex's rays r_i in slot order, adj R = det I with det > 0, vol
    its volume from heights, and keys mapping its rays, or more, to their
    keys under a linear packing that is injective on the points.

    The points are (sum c_i r_i) / det for c in the group G of order det
    that the columns of adj generate mod det. G is grown column by column:
    the subgroup H found so far is stepped by a column a, layer after layer,
    until a step lands back inside H. A step adds a to c and the key of
    g = (sum a_i r_i) / det, sum a_i key(r_i) / det exactly as the packing is
    Z-linear, to the point's, then subtracts key(r_i) for each c_i that
    wrapped past det, so a point costs O(m) additions and no division. The
    zero point's key is 0. det != vol, a g that is not a lattice point, or a
    group of order other than det is an IntegrityError.
    """
    if det != vol:
        raise IntegrityError(f"simplex volume {vol} from heights, {det} from the pivot walk")
    coords = list(zip(*simplex))
    rays = [keys[r] for r in simplex]
    group, seen = [((0,) * len(simplex), 0)], {0}
    for column in zip(*adj):
        if len(group) == det:
            break
        a = [e % det for e in column]
        if any(sum(map(mul, a, row)) % det for row in coords):
            raise IntegrityError(f"adjugate column {list(column)} gives no lattice point")
        g = sum(map(mul, a, rays)) // det
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
    return seen - {0}


def _halved(mask: int, parity, keys) -> int:
    """The key of the one nonzero parallelepiped point of a simplex of volume
    2, the mask of its rays, with parity and keys each ray's parity mask and
    key by index. Z^dim / L has order 2, so the rays mod 2 have rank dim - 1
    and one dependency S: the point is (sum_S r_i) / 2, a lattice point as
    the rows of S XOR to 0, of key (sum_S key(r_i)) / 2 as packing is linear.
    Another rank mod 2 is an IntegrityError."""
    slots = []
    while mask:
        slots.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    rank, dependency = rank_mod_2([parity[i] for i in slots])
    if rank != len(slots) - 1:
        raise IntegrityError(f"simplex of volume 2 has rank {rank} mod 2, not {len(slots) - 1}")
    return sum(keys[i] for k, i in enumerate(slots) if dependency >> k & 1) >> 1


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


def _triangulate(fs: FacetSystem) -> tuple:
    """Pulling triangulation of a cone with the facet system fs over its
    extreme rays fs.rays, as the root of a DAG of faces: cone off the first
    ray of each face in the pulling order of fs.rays (its lowest bit) over
    every facet of the face that avoids it. The subcones cover the cone.

    Faces are bitmasks over the rays; the top face's facets are the cone's,
    fs.masks. A face H first reached as a facet of F takes its facets from
    F's: each ridge of a polyhedral cone lies in exactly two of its facets
    (Ziegler, Lectures on Polytopes), so the facets of H are the maximal
    sets among the H & K, for the other facets K of F. At depth k, H has
    dimension dim - k - 1, so only meets of at least dim - k - 2 rays are
    tested, from the largest down, each against those already kept. A
    simplicial face, of as many rays as its dimension, keeps only its one
    facet that avoids its apex a, itself minus a, so no face below it builds
    a list. A face's list is dropped as soon as its node is built.

    Facets are pulled over in the order of the cone facets that first cut
    them out, which fixes the sequence of simplices: with Z(M) the mask of
    the cone facets tight on every ray of M (off the zeros of fs.slack, and
    kept for faces of over dim rays), the first to cut H out of F is the
    lowest bit of Z(H) & ~Z(F) = Z(H) & ~Z({a}), as a cone facet holding H
    and a holds F. It may index below the facet K of F that H came from.

    Each face is one node (count, volume, edges), built once: the number and
    total volume of its simplices, and an edge (apex bit, height, facet node)
    per facet pulled over, in order. A simplex is the mask of the apex bits
    on a path down to the empty face's node (1, 1, ()), its volume the
    product of their heights (as in Normaliz, Bruns and Ichim, J. Algebra
    2010): pulling the apex a of F over a facet H with cone normal b scales
    the volumes of H's simplices, in L_F = Z^dim & span(F), by h = <b, a> / g
    for g = gcd <b, L_F>. A ray r of F with <b, r> = 1 lies in L_F, so g = 1;
    only without one does F need a Z-basis of L_F: the identity at the top,
    else built on first need by _split from that of the face that first
    reached F. A facet H not yet reached takes g and its basis from one
    _split, one already reached g alone, the gcd of <b, v> over L_F's basis.
    """
    rays, dim, normals, slack = fs.rays, fs.dim, fs.normals(), fs.slack
    unit = [sum(1 << i for i, v in enumerate(col) if v == 1) for col in zip(*slack)]
    tight = [sum(1 << j for j, v in enumerate(row) if not v) for row in slack]
    nodes: dict[int, tuple] = {0: (1, 1, ())}
    top = (1 << len(rays)) - 1
    bases = {top: [tuple(int(i == k) for k in range(dim)) for i in range(dim)]}
    parents: dict[int, tuple] = {}  # face -> (the face that first reached it, its cut)
    cuts = {0: (1 << len(normals)) - 1}  # face -> Z(face)

    def basis(face: int):
        if face not in bases:
            parent, j = parents[face]
            bases[face] = _split(basis(parent), normals[j])[1]
        return bases[face]

    def cut(face: int, apex: int) -> int:
        """The first cone facet that holds face and not the ray apex."""
        z = cuts.get(face)
        if z is None:
            z, rest = cuts[0], face
            while rest:
                z, rest = z & tight[(rest & -rest).bit_length() - 1], rest & rest - 1
            if face.bit_count() > dim:
                cuts[face] = z
        z &= ~tight[apex]
        return (z & -z).bit_length() - 1

    def ridges(face: int, facets, least: int) -> list[int]:
        meets = {m for k in facets if (m := face & k) != face and m.bit_count() >= least}
        kept: list[int] = []
        for meet in sorted(meets, key=int.bit_count, reverse=True):
            for k in kept:
                if meet | k == k:
                    break
            else:
                kept.append(meet)
        return kept

    def pull(face: int, depth: int, facets) -> tuple:
        low = face & -face
        apex, edges, count, volume = low.bit_length() - 1, [], 0, 0
        for j, sub in sorted((cut(k, apex), k) for k in facets if not k & low):
            h = slack[apex][j]
            if not face & unit[j]:
                if sub in nodes:
                    g = gcd(*[sum(map(mul, normals[j], v)) for v in basis(face)])
                else:
                    g, bases[sub] = _split(basis(face), normals[j])
                h, r = divmod(h, g)
                if r:
                    raise IntegrityError(f"height {slack[apex][j]} not divisible by content {g}")
            if sub not in nodes:
                parents[sub] = face, j
                least = dim - depth - 2
                simplicial = sub.bit_count() == least + 1
                pull(sub, depth + 1, [sub & sub - 1] if simplicial else ridges(sub, facets, least))
            edges.append((low, h, nodes[sub]))
            count, volume = count + nodes[sub][0], volume + h * nodes[sub][1]
        nodes[face] = node = (count, volume, tuple(edges))
        return node

    return pull(top, 0, fs.masks)


def _nonunimodular(node: tuple, mask: int = 0, scale: int = 1, shared=None):
    """(simplex mask, volume times scale) of each simplex of a _triangulate
    node whose volume times scale is above 1, in order, but below a face
    reached by steps of height 1 alone only once: such a step, apex a over a
    facet H of F, has L_F = L_H + Za, so it adds no parallelepiped point."""
    shared = set() if shared is None else shared
    if not node[2]:
        yield mask, scale
    for low, h, sub in node[2]:
        if scale * h > 1:
            yield from _nonunimodular(sub, mask | low, scale * h, shared)
        elif sub[1] > sub[0] and id(sub) not in shared:
            shared.add(id(sub))
            yield from _nonunimodular(sub, mask | low, 1, shared)


def _reached(node: tuple, cap: int, scale: int = 1, run: int = 0) -> int:
    """The first running total past cap, from run on, of a _triangulate
    node's simplex volumes times scale, in order; their sum must pass cap."""
    for _, h, sub in node[2]:
        if run + scale * h * sub[1] > cap:
            return _reached(sub, cap, scale * h, run)
        run += scale * h * sub[1]
    return run + scale


def hilbert_basis(facets: FacetSystem, cap: int = DEFAULT_CAP) -> HilbertBasisResult:
    """Irreducible generating set of (lattice points of the cone, +), for the
    cone with the facet system facets.

    Candidates are the extreme rays (facets.rays) together with every
    nonzero parallelepiped point of the pulling triangulation, a DAG of faces
    (_triangulate); they include the Hilbert basis. A simplex of volume v has
    v - 1 of them. The cap bounds the sum of the volumes, read off the root
    before any point is enumerated; past it, CapExceeded names the running
    total, in the triangulation's order, at the first simplex over the cap
    (_reached). A simplex of volume 1 has no point and goes unlisted
    (_nonunimodular); one of volume 2 has its point's key read off its rays
    mod 2 (_halved), with parity masks built once per ray, at the first; the
    pivot walk (_pivot_walk) carries one adjugate through the rest, and the
    coset closure of its columns (_coset_points) gives their points. A key
    (exactlat.packer) holds a point's facet values, then its coordinates, in
    fields of W.bit_length() + 1 bits: W, the largest sum of the rays' values
    on one facet or coordinate, bounds that field on every candidate, a ray
    or sum lam_i r_i with 0 <= lam_i < 1. An unguarded top field holds the
    degree, the value on the sum of the normals, positive off 0 as the cone
    is pointed; packing stays linear, so ray keys, the coset closure and the
    key check carry it. Rays are packed once, and only the kept keys are
    decoded. Reduction follows Normaliz (Bruns and Ichim, J. Algebra 2010):
    candidates are walked by ascending key, so by degree, and h is kept
    unless a kept key k of at most half h's degree, where the ascending scan
    stops, is <= h's in every guarded field (one guarded subtraction), i.e.
    h - k lies in the cone. That is exact: a reducible h is a sum of two or
    more Hilbert basis elements, so one, x, has at most half h's degree, and
    h - x, a nonzero point of the cone, is >= 0 in every field; x was kept
    first. Uniqueness comes with pointedness, which holds as the generators
    sit in the first orthant. A key that is negative, has a guard bit set
    or, once kept, is not the key of its decoded point is an IntegrityError.
    """
    rays, dim, normals = facets.rays, facets.dim, facets.normals()
    count, total, _ = root = _triangulate(facets)
    if total > cap:
        reached = _reached(root, cap)
        raise CapExceeded(f"parallelepiped budget {cap} exceeded at {reached} lattice points")
    bound = max(map(sum, (*zip(*facets.slack), *zip(*rays))))
    width = bound.bit_length() + 1
    identity = [[int(i == k) for k in range(dim)] for i in range(dim)]
    grading = [sum(column) for column in zip(*normals)]
    pack, guard = packer([*normals, *identity, grading], width)
    shift = width * (len(normals) + dim)
    guard &= (1 << shift) - 1
    packed = list(map(pack, rays))
    keys, candidates = dict(zip(rays, packed)), set(packed)

    def above_2():  # adding the point of each simplex of volume 2 on the way
        parity = None
        for mask, vol in _nonunimodular(root):
            if vol > 2:
                yield mask, vol
            else:
                parity = parity or list(map(parity_mask, rays))
                candidates.add(_halved(mask, parity, packed))

    for walked in _pivot_walk(rays, above_2()):
        candidates.update(_coset_points(*walked, keys))
    kept = []
    for x in sorted(candidates):
        if x < 0 or x & guard:
            raise IntegrityError(f"candidate key {x} has a field outside 0..{bound}")
        top, limit = x | guard, ((x >> shift) // 2 + 1) << shift
        for k in kept:
            if k >= limit:
                kept.append(x)
                break
            if (top - k) & guard == guard:
                break
        else:
            kept.append(x)
    low, mask, elements = width * len(normals), (1 << width) - 1, []
    for x in kept:
        elements.append(tuple([(x >> low + width * i) & mask for i in range(dim)]))
        if pack(elements[-1]) != x:
            raise IntegrityError(f"candidate key {x} is not the key of a lattice point")
    return HilbertBasisResult(tuple(sorted(elements)), count, total, len(candidates))


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


class DilationWitness(Record):
    """A lattice point of bP that is no sum of exactly b generators."""

    b: int
    point: tuple[int, ...]


class EqualityReport(Record):
    """Which lattice points of bP are no sum of exactly b generators, for
    1 <= b <= b_max? A semidecision: silence below the bound only."""

    degree: int
    b_max: int
    dilations: tuple[DilationCheck, ...]
    _json = ("degree", "b_max", "dilations", "passed", "semidecision", "first_witness")

    @property
    def passed(self) -> bool:
        return all(not d.failures for d in self.dilations)

    @property
    def semidecision(self) -> str:
        return f"checked dilations 1..{self.b_max} only"

    @property
    def first_witness(self) -> DilationWitness | None:
        for d in self.dilations:
            if d.failures:
                return DilationWitness(d.b, d.failures[0])
        return None


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

    classification: Verdict
    elements: tuple[ElementStatus, ...]
    _json = ("classification", "elements", "holds", "violations")

    @property
    def holds(self) -> bool:
        return all(s.ok for s in self.elements)

    @property
    def violations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.element for s in self.elements if not s.ok)


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
            return hilbert_basis(self.facets, self.cap)
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

    def equality(self, b_max: int | None = None) -> EqualityReport:
        """Which lattice points of bP are no sum of exactly b generators, for
        1 <= b <= b_max, with bP read off the session's facets (in_dilation);
        b_max None is the largest Hilbert height. The generators must share
        one degree, checked before any Hilbert basis is read: else
        UnequalModuli names the lex-first of least degree and of greatest
        degree."""
        vecs = self.ideal.exponents
        if self.degree is None:
            degrees = [sum(v) for v in vecs]
            first, second = (vecs[degrees.index(f(degrees))] for f in (min, max))
            raise UnequalModuli(first, second)
        if b_max is None:
            b_max = max(h[-1] for h in self.hilbert.elements)
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
        equality = self.equality()
        passed = equality.passed and self.decomposition.holds
        quasi_verdict = "normal" if passed else "not_normal"
        if quasi_verdict != direct.verdict:
            raise MethodDisagreement(
                f"hilbert route says {direct.verdict}, equality route says {quasi_verdict} "
                f"on {self.ideal.to_json()}"
            )
        return NormalityCertificate(direct.verdict, direct.witness, "both")
