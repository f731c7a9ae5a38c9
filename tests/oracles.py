"""Reference routes the tests check the library against.

None of these is on a library path: the library answers every membership
question from a Rees cone's facets (FacetSystem.contains, through
IdealSession.in_dilation). These routes get there another way, by a double
description of the lifted polytope's own cone on a pivot projection of its
span, with the span's equations from an integer kernel basis. Pivot
columns and kernel bases read a forward Bareiss elimination of their own,
where the library runs one Gauss-Jordan pass.
`exchange_failures` tests one pair of vector tuples and one coordinate at a
time, where the library sweeps bitmasks over the family's positions, two
per coordinate and value. `canonical` names a matroid's isomorphism class
by trying every relabelling, where the library grows classes by
single-element extension. `labelled_walk` lists the
labelled matroids of one rank by a backtracking walk over all the d-subsets,
where the library reads them off the class orbits. `box_slice_points`
walks a box slice point by point as tuples, where the library counts the
slice in closed form and walks it, when it must, as packed keys. `encode`
applies the 53-bit integer rule as a separate pass over a payload, where
`jsonio.dumps` applies it in the same walk that writes the document.
`record_json` writes fifteen record classes' JSON key by key, as each
class once did by hand, where the library applies one rule in
`Record.to_json`. `scan_triangulate` finds each face's facets among its
meets with every facet of the cone, where the library reads them off the
facets of the face that first reached it; `dag_form` lays a face DAG out
as a list, so two DAGs compare in time linear in their nodes.
`all_pairs_hilbert_basis` reduces the Hilbert candidates in order of a key
whose top field is the last coordinate, each against every key kept before
it, where the library keys them by degree first and stops at half the
candidate's degree.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd
from operator import mul

from reeskit.errors import CapExceeded, DegenerateCone, IntegrityError, InvalidInstance
from reeskit.exactlat import adjugate, dot, packer, primitive
from reeskit import matroid, polymatroid
from reeskit.matroid import Matroid, MonomialIdeal, _exchange_watch, _walk, check_basis_exchange
from reeskit.reescone import ConeClassification, FacetSystem, ReesCone
from reeskit.reescone import _distinct_rows, _dual_extreme_rays
from reeskit.semigroup import (DEFAULT_CAP, DecompositionReport, DilationCheck, DilationWitness,
                               ElementStatus, EqualityReport, HilbertBasisResult,
                               NormalityCertificate, _coset_points, _nonunimodular, _pivot_walk,
                               _reached, _split, _triangulate)


def box_slice_points(lo, hi, total):
    """Lex-ascending integer points of prod [lo_k, hi_k], restricted to
    coordinate sum == total when total is not None.

    On the slice, coordinate k only runs over the values that leave a sum
    the later coordinates can still reach, so every value tried leads to a
    point and the work is proportional to the output. The reference for
    `semigroup._slice_count` and `semigroup._slice_keys`."""
    n = len(lo)
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix_lo[k] = suffix_lo[k + 1] + lo[k]
        suffix_hi[k] = suffix_hi[k + 1] + hi[k]
    point = [0] * n

    def rec(k: int, remaining):
        if k == n:
            yield tuple(point)
            return
        first, last = lo[k], hi[k]
        if remaining is not None:
            first = max(first, remaining - suffix_hi[k + 1])
            last = min(last, remaining - suffix_lo[k + 1])
        for e in range(first, last + 1):
            point[k] = e
            yield from rec(k + 1, None if remaining is None else remaining - e)

    yield from rec(0, total)


def forward_bareiss(rows):
    """Fraction-free forward elimination, the library's elimination before
    it became Gauss-Jordan.

    Returns (echelon matrix, pivot column list, permutation sign). Every
    intermediate entry is a minor of the input, so the interleaved exact
    divisions never truncate.
    """
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return m, [], 1
    nr, nc = len(m), len(m[0])
    pivots, sign, prev, r = [], 1, 1, 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p = m[r][c]
        for i in range(r + 1, nr):
            f = m[i][c]
            row_i, row_r = m[i], m[r]
            for j in range(c + 1, nc):
                row_i[j] = (p * row_i[j] - f * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, sign


def pivot_columns(rows) -> tuple[int, ...]:
    """Column indices of the leading pivots; the submatrix on them has full rank."""
    return tuple(forward_bareiss(rows)[1])


def kernel_basis(rows) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel {x : M x = 0}.

    One vector per free column c of the fraction-free echelon form E, free
    columns ascending, each positive at c and 0 at the other free columns.
    On the pivot columns P, E_P is nonsingular and x_P = -adj(E_P) E_c x_c /
    det E_P, so x_c = |det E_P| makes every entry an integer.
    """
    ech, pivots, _ = forward_bareiss(rows)
    top = ech[: len(pivots)]
    adj, det = adjugate([[row[c] for c in pivots] for row in top])
    nc = len(ech[0]) if ech else 0
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        x = [0] * nc
        x[fc] = abs(det)
        column = [row[fc] for row in top]
        for pc, a in zip(pivots, adj):
            x[pc] = -dot(a, column) if det > 0 else dot(a, column)
        basis.append(primitive(x))
    return basis


def column_hnf_diagonal(mat) -> list[int]:
    """Diagonal of a lower-triangular column Hermite form of a nonsingular
    square integer matrix. Column operations only, so the column lattice is
    preserved, and the diagonal's box has one point in each coset of Z^m
    modulo that lattice."""
    m = len(mat)
    cols = [[mat[i][j] for i in range(m)] for j in range(m)]
    for i in range(m):
        while True:
            js = [j for j in range(i, m) if cols[j][i] != 0]
            j0 = min(js, key=lambda j: (abs(cols[j][i]), j))
            if j0 != i:
                cols[i], cols[j0] = cols[j0], cols[i]
            p = cols[i][i]
            done = True
            for j in range(i + 1, m):
                if cols[j][i]:
                    f = cols[j][i] // p
                    cols[j] = [a - f * b for a, b in zip(cols[j], cols[i])]
                    if cols[j][i]:
                        done = False
            if done:
                break
        if cols[i][i] < 0:
            cols[i] = [-e for e in cols[i]]
    return [cols[i][i] for i in range(m)]


def span_projection(rows):
    """Pivot columns of rows, and rows restricted to them: the span of rows
    projects isomorphically onto those coordinates, so cone questions about
    rows of any rank can be answered there in full dimension."""
    pivots = pivot_columns(rows)
    return pivots, [tuple(r[c] for c in pivots) for r in rows]


class ConeMembership:
    """Exact membership oracle for cone(generators), full-dimensional or not.

    Equations cut out the linear span; facet inequalities are computed on a
    pivot projection of the span. Built once, then reused for many points.
    """

    def __init__(self, generators):
        gens = _distinct_rows(generators)
        if not gens:
            raise DegenerateCone("no generators")
        self.dim = len(gens[0])
        self._pivots, proj = span_projection(gens)
        r = len(self._pivots)
        self._equations = tuple(tuple(u) for u in kernel_basis(gens)) if r < self.dim else ()
        self._normals = tuple(_dual_extreme_rays(proj, r))

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError(f"point of dimension {len(point)}, cone of {self.dim}")
        if any(dot(u, point) != 0 for u in self._equations):
            return False
        restricted = tuple(point[c] for c in self._pivots)
        return all(dot(w, restricted) >= 0 for w in self._normals)


def lifted_membership(vertices) -> ConeMembership:
    """Membership in the cone spanned by the (v, 1): a lies in the b-th
    dilation of conv(vertices) iff (a, b) lies in it."""
    return ConeMembership(tuple((*v, 1) for v in vertices))


def ehrhart_points(vertices, b: int) -> list[tuple[int, ...]]:
    """Lattice points of the b-th dilation of conv(vertices), lex sorted.

    Bounding-box scan, each point decided by the lifted cone. The scan space
    shrinks to one coordinate-sum slice when all vertices share a degree.
    """
    if b < 0:
        raise InvalidInstance("dilation factor must be nonnegative")
    vertices = sorted({tuple(v) for v in vertices})
    if b == 0:
        return [tuple([0] * len(vertices[0]))]
    member = lifted_membership(vertices)
    lo = [b * min(column) for column in zip(*vertices)]
    hi = [b * max(column) for column in zip(*vertices)]
    degrees = {sum(v) for v in vertices}
    total = b * degrees.pop() if len(degrees) == 1 else None
    return [a for a in box_slice_points(lo, hi, total) if member.contains((*a, b))]


def exchange_failures(vectors, symmetric: bool = False):
    """Every (a, c, i), walking the pairs (a, c) of `vectors` in the order
    given and i ascending, with a_i > c_i and no j with a_j < c_j putting
    a - e_i + e_j among them (and, when symmetric, c + e_i - e_j too). i is
    1-indexed. A walk over tuples, one pair and one coordinate at a time:
    the reference for `polymatroid._exchange_failures`."""
    vset = set(vectors)
    for a in vectors:
        coords = range(len(a))
        for c in vectors:
            if a == c:
                continue
            for i in coords:
                if a[i] <= c[i]:
                    continue
                for j in coords:
                    if a[j] < c[j]:
                        am = list(a)
                        am[i] -= 1
                        am[j] += 1
                        cm = list(c)
                        cm[i] += 1
                        cm[j] -= 1
                        if tuple(am) in vset and (not symmetric or tuple(cm) in vset):
                            break
                else:
                    yield a, c, i + 1


def first_exchange_failure(vectors):
    """The first of `exchange_failures(vectors)`, or None: the reference for
    `polymatroid.first_exchange_failure`."""
    return next(exchange_failures(vectors), None)


def symmetric_exchange_violations(f) -> list[tuple]:
    """Triples (a, c, i) where no j with a_j < c_j swaps BOTH ways: the
    reference for `polymatroid.symmetric_exchange_violations`."""
    return list(exchange_failures(f.vectors, True))


def canonical(m) -> tuple:
    """n and the lex-least relabelling of m's bases: equal exactly on a class."""
    return m.n, min(
        tuple(sorted(tuple(sorted(p[e - 1] for e in b)) for b in m.bases))
        for p in permutations(range(1, m.n + 1))
    )


def labelled_walk(n: int, d: int) -> list:
    """Every matroid of rank d on ground set {1..n}, exhaustively.

    Backtracking over the C(n,d) d-subsets in lex order, each decided in or
    out; the decisions are two bitmasks over the subset indices. A partial
    family is dropped as soon as two included bases B1, B2 and some x in
    B1 \\ B2 have every target B1 - x + y (y in B2 \\ B1) decided out, since
    no completion can repair that pair. With the targets as an index mask
    ts, that is ts & out == ts. Deciding a subset in re-checks only the pairs
    that contain it; deciding it out re-checks only the included pairs whose
    targets it completes. So a nonempty leaf has no such pair and is a
    matroid, and each one still goes through check_basis_exchange, whose
    verdict is final. Isomorphic duplicates are kept on purpose. Output is
    sorted by the basis tuple. The reference for `enumerate_matroids`.
    """
    subsets = list(combinations(range(1, n + 1), d))
    found = []
    for inn in _walk(*_exchange_watch(subsets)):
        got = check_basis_exchange(n, [s for i, s in enumerate(subsets) if inn >> i & 1])
        if isinstance(got, Matroid):
            found.append(got)
    found.sort(key=lambda m: m.bases)
    return found


def encode(obj):
    """obj for json.dumps with the 53-bit rule applied: each int outside
    (-2^53, 2^53) becomes its decimal string, tuples become lists. The
    reference for `jsonio.dumps`."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj if -(1 << 53) < obj < 1 << 53 else str(obj)
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    return obj


def record_json(record) -> dict:
    """record's JSON, written out key by key for each of the fifteen record
    classes whose JSON follows one rule: each name in the class's _json
    (each field when it has none) under its own name, a tuple as a list, a
    nested record by its own JSON, an enum by its value and None left out.
    The last four are the bodies their classes wrote by hand before their
    renamed and computed keys became properties. The reference for
    `errors.Record.to_json`."""
    r, cls = record, type(record)
    if cls is Matroid:
        return {"n": r.n, "bases": [list(b) for b in r.bases]}
    if cls is matroid.ExchangeFailure:
        return {
            "error": "exchange_failure",
            "basis_a": list(r.basis_a),
            "basis_b": list(r.basis_b),
            "element": r.element,
        }
    if cls is MonomialIdeal:
        return {"n": r.n, "exponents": [list(v) for v in r.exponents]}
    if cls is polymatroid.ExchangeFailure:
        return {
            "error": "exchange_failure",
            "vec_a": list(r.vec_a),
            "vec_b": list(r.vec_b),
            "index": r.index,
        }
    if cls is ReesCone:
        return {"n": r.n, "generators": [list(g) for g in r.generators]}
    if cls is FacetSystem:
        return {
            "unit_normals": list(r.unit_normals),
            "ell_normals": [list(b) for b in r.ell_normals],
        }
    if cls is ConeClassification:
        out = {"verdict": r.verdict.value}
        if r.offending_normal is not None:
            out["offending_normal"] = list(r.offending_normal)
        return out
    if cls is NormalityCertificate:
        out: dict = {"verdict": r.verdict}
        if r.witness is not None:
            out["witness"] = list(r.witness)
        out["method"] = r.method
        return out
    if cls is DilationCheck:
        return {
            "b": r.b,
            "points": r.points,
            "failures": [list(a) for a in r.failures],
        }
    if cls is DilationWitness:
        return {"b": r.b, "point": list(r.point)}
    if cls is ElementStatus:
        return {"element": list(r.element), "kind": r.kind, "ok": r.ok}
    if cls is HilbertBasisResult:
        return {
            "elements": [list(h) for h in r.elements],
            "method": {
                "algorithm": "triangulation+parallelepiped",
                "simplices": r.simplices,
                "parallelepiped_points": r.parallelepiped_points,
                "candidates": r.candidates,
            },
        }
    if cls is EqualityReport:
        out = {
            "degree": r.degree,
            "b_max": r.b_max,
            "dilations": [record_json(d) for d in r.dilations],
            "passed": all(not d.failures for d in r.dilations),
            "semidecision": f"checked dilations 1..{r.b_max} only",
        }
        failing = [d for d in r.dilations if d.failures]
        if failing:
            out["first_witness"] = {"b": failing[0].b, "point": list(failing[0].failures[0])}
        return out
    if cls is DecompositionReport:
        return {
            "classification": r.verdict.value,
            "elements": [record_json(s) for s in r.statuses],
            "holds": all(s.ok for s in r.statuses),
            "violations": [list(s.element) for s in r.statuses if not s.ok],
        }
    if cls is polymatroid.PolymatroidBases:
        return {"n": r.n, "exponents": [list(v) for v in r.vectors], "polymatroid": True}
    raise TypeError(f"no field-by-field JSON for {cls.__qualname__}")


def scan_triangulate(fs: FacetSystem) -> tuple:
    """The root of the pulling triangulation's face DAG, as
    `semigroup._triangulate` returns it, with each face's facets found by
    scanning every facet of the cone. The reference for `_triangulate`.

    The facets of a face F are the inclusion-maximal proper sets among the
    F & G, for G each cone facet's ray mask (FacetSystem.masks): each facet
    of F is a face of the cone, so it is the intersection of the cone
    facets containing it, and one of those does not contain F. A face at
    depth k has dimension dim - k, so each of its facets has at least
    dim - k - 1 rays, and so has every meet containing one: maximality is
    tested only among the meets with that many rays. Each facet keeps the
    first cone facet that cuts it out of F, and the facets are pulled over
    in that order. Heights and lattice bases are as in `_triangulate`."""
    rays, dim, normals, slack = fs.rays, fs.dim, fs.normals(), fs.slack
    unit = [sum(1 << i for i, v in enumerate(col) if v == 1) for col in zip(*slack)]
    nodes: dict[int, tuple] = {0: (1, 1, ())}
    top = (1 << len(rays)) - 1
    bases = {top: [tuple(int(i == k) for k in range(dim)) for i in range(dim)]}
    parents: dict[int, tuple] = {}  # face -> (the face that first reached it, its cut)

    def basis(face: int):
        if face not in bases:
            parent, j = parents[face]
            bases[face] = _split(basis(parent), normals[j])[1]
        return bases[face]

    def pull(face: int, depth: int) -> tuple:
        low = face & -face
        apex = low.bit_length() - 1
        meets: dict[int, int] = {}  # F & G -> the index of the first such G
        for j, mask in enumerate(fs.masks):
            meet = face & mask
            if meet != face and meet.bit_count() >= dim - depth - 1:
                meets.setdefault(meet, j)
        edges, count, volume = [], 0, 0
        for meet, j in meets.items():
            if meet & low or any(meet | other == other != meet for other in meets):
                continue
            h = slack[apex][j]
            if not face & unit[j]:
                if meet in nodes:
                    g = gcd(*[sum(map(mul, normals[j], v)) for v in basis(face)])
                else:
                    g, bases[meet] = _split(basis(face), normals[j])
                h, r = divmod(h, g)
                if r:
                    raise IntegrityError(f"height {slack[apex][j]} not divisible by content {g}")
            if meet not in nodes:
                parents[meet] = face, j
                pull(meet, depth + 1)
            edges.append((low, h, nodes[meet]))
            count, volume = count + nodes[meet][0], volume + h * nodes[meet][1]
        nodes[face] = node = (count, volume, tuple(edges))
        return node

    return pull(top, 0)


def dag_form(root) -> list[tuple]:
    """The nodes of a face DAG below root, each once, in the order their
    builds finish (depth first, in edge order), as (count, volume, edges)
    with each edge's node replaced by its index in the list. Equal forms
    are equal nested tuples, shared alike; the form is built in time linear
    in the nodes and edges, where comparing the nested tuples walks every
    path."""
    index: dict[int, int] = {}
    form: list[tuple] = []

    def visit(node) -> int:
        if id(node) not in index:
            edges = tuple((low, h, visit(sub)) for low, h, sub in node[2])
            index[id(node)] = len(form)
            form.append((node[0], node[1], edges))
        return index[id(node)]

    visit(root)
    return form


def all_pairs_hilbert_basis(fs: FacetSystem, cap: int = DEFAULT_CAP) -> HilbertBasisResult:
    """`semigroup.hilbert_basis` without the degree field or its bound: the
    same triangulation, walk and coset closure give the same candidates,
    packed on the facet normals and the identity rows alone, and each
    candidate, by ascending key, is tested against every key kept before
    it. A reducer x of h has every field of h - x >= 0, so x's key
    is below h's here too. The reference for `hilbert_basis`'s half-degree
    bound; past cap it raises the same CapExceeded."""
    rays, dim, normals = fs.rays, fs.dim, fs.normals()
    count, total, _ = root = _triangulate(fs)
    if total > cap:
        reached = _reached(root, cap)
        raise CapExceeded(f"parallelepiped budget {cap} exceeded at {reached} lattice points")
    bound = max(map(sum, (*zip(*fs.slack), *zip(*rays))))
    width = bound.bit_length() + 1
    identity = [[int(i == k) for k in range(dim)] for i in range(dim)]
    pack, guard = packer([*normals, *identity], width)
    keys = {r: pack(r) for r in rays}
    candidates = set(keys.values())
    for walked in _pivot_walk(rays, _nonunimodular(root)):
        candidates.update(_coset_points(*walked, keys))
    kept = []
    for x in sorted(candidates):
        if x < 0 or x & guard:
            raise IntegrityError(f"candidate key {x} has a field outside 0..{bound}")
        top = x | guard
        if not any((top - k) & guard == guard for k in kept):
            kept.append(x)
    low, mask, elements = width * len(normals), (1 << width) - 1, []
    for x in kept:
        elements.append(tuple([(x >> low + width * i) & mask for i in range(dim)]))
        if pack(elements[-1]) != x:
            raise IntegrityError(f"candidate key {x} is not the key of a lattice point")
    return HilbertBasisResult(tuple(sorted(elements)), count, total, len(candidates))
