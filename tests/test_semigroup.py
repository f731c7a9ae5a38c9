from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from itertools import accumulate, combinations, combinations_with_replacement, islice, product
from math import comb
from operator import le
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    all_pairs_hilbert_basis,
    box_slice_points,
    column_hnf_diagonal,
    dag_form,
    ehrhart_points,
    lifted_membership,
    scan_triangulate,
    span_projection,
)
from test_acceptance import Budget
from test_session import equigenerated_ideals

from reeskit import semigroup
from reeskit.errors import (
    CapExceeded,
    IntegrityError,
    InvalidInstance,
    PreconditionFailed,
    UnequalModuli,
)
from reeskit.exactlat import _bareiss, adjugate, dot, packer, rank
from reeskit.jsonio import analysis_ideal, bundled_names, load_bundled, realize
from reeskit.matroid import (
    MonomialIdeal,
    basis_monomial_ideal,
    enumerate_matroids,
    graphic_matroid,
    uniform_matroid,
)
from reeskit.polymatroid import veronese_bases
from reeskit.reescone import (
    ORACLE_CAP,
    FacetSystem,
    _dual_extreme_rays,
    facet_normals,
    facet_normals_oracle,
    rees_generators,
)
from reeskit.semigroup import (
    DEFAULT_CAP,
    DilationCheck,
    DilationWitness,
    EqualityReport,
    IdealSession,
    _coset_points,
    _equality_report,
    _nonunimodular,
    _pivot_walk,
    _reached,
    _slice_count,
    _slice_keys,
    _split,
    _triangulate,
    hilbert_basis,
)

PRINCIPAL = MonomialIdeal(1, ((1,),))
TWO_SQUARES = MonomialIdeal(2, ((2, 0), (0, 2)))
MIXED = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))
TETRAHEDRON = MonomialIdeal(4, ((0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0)))
# mixed degrees, with a simplex of composite volume 516
V516 = MonomialIdeal(
    3,
    (
        (7, 0, 16), (10, 8, 12), (11, 25, 7), (12, 29, 2),
        (14, 17, 19), (16, 18, 12), (22, 5, 13), (26, 7, 5),
    ),
)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def determinant(rows) -> int:
    """Sign times last pivot of one _bareiss pass; 0 for a singular matrix."""
    _, pivots, sign, p = _bareiss(rows)
    return sign * p if len(pivots) == len(rows) else 0


def box_points(bound):
    return product(*(range(b + 1) for b in bound))


def brute_irreducibles(cone):
    """All irreducible nonzero cone lattice points, by exhaustive search.

    The cone sits in the first orthant, so any decomposition of h stays
    componentwise below h; a box reaching the componentwise sum of all
    generators therefore sees every Hilbert element and every
    decomposition that could reduce one.
    """
    fs = facet_normals(cone)
    bound = tuple(
        sum(g[i] for g in cone.generators) for i in range(cone.dim)
    )
    members = [p for p in box_points(bound) if any(p) and fs.contains(p)]
    member_set = set(members)
    out = []
    for h in members:
        reducible = any(
            a != h and tuple(x - y for x, y in zip(h, a)) in member_set
            for a in members
            if all(x <= y for x, y in zip(a, h))
        )
        if not reducible:
            out.append(h)
    return sorted(out)


def facet_tight_sets(generators) -> list[tuple]:
    """Tight generator subsets of each facet of cone(generators), within its
    span, in ascending order of their primitive normals in the pivot
    projection: one double description per call."""
    gens = list(dict.fromkeys(tuple(g) for g in generators))
    pivots, proj = span_projection(gens)
    normals = _dual_extreme_rays(proj, len(pivots))
    return [tuple(g for g, pg in zip(gens, proj) if dot(w, pg) == 0) for w in normals]


def dd_triangulate(rays, memo, tight_sets=None) -> tuple[tuple, ...]:
    """The pulling triangulation with one double description and one rank
    per face, pulling each face's first ray: the oracle for _triangulate's
    simplices. A face's rays keep the order of rays, so every face pulls in
    the one order the cone's rays are listed in."""
    hit = memo.get(rays)
    if hit is not None:
        return hit
    if not rays:
        simplices = ()
    elif rank(rays) == len(rays):
        simplices = (rays,)
    else:
        apex = rays[0]
        simplices = tuple(
            sub + (apex,)
            for tight in (tight_sets or facet_tight_sets(rays))
            if apex not in tight
            for sub in dd_triangulate(tuple(tight), memo)
        )
    memo[rays] = simplices
    return simplices


def dd_pulling(fs):
    """dd_triangulate of the cone's extreme rays in the order of fs.rays, its
    top facets taken from fs."""
    rays = fs.rays
    tight_sets = [tuple(r for r in rays if dot(b, r) == 0) for b in fs.normals()]
    return dd_triangulate(rays, {}, tight_sets)


def lex_permuted(fs):
    """fs with its rays in lex order, their slack rows and mask bits permuted
    alike: the same cone, pulled in lex order."""
    order = sorted(range(len(fs.rays)), key=fs.rays.__getitem__)
    rays, slack = (tuple(seq[i] for i in order) for seq in (fs.rays, fs.slack))
    masks = tuple(sum(1 << k for k, i in enumerate(order) if m >> i & 1) for m in fs.masks)
    return FacetSystem(fs.dim, fs.unit_normals, fs.ell_normals, slack, rays, masks)


def facet_system(ideal, lex: bool = False):
    """The facet system of the ideal's Rees cone, lex_permuted if lex."""
    fs = facet_normals(rees_generators(ideal))
    return lex_permuted(fs) if lex else fs


def is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(x in rest for x in short)


def identity_packer(rays, slack: int = 0):
    """pack on the identity rows, in fields slack bits wider than those that
    pack every point of a parallelepiped of rays injectively: a coordinate
    of such a point is below the sum of |r_j| on it in absolute value."""
    width = max(sum(map(abs, col)) for col in zip(*rays)).bit_length() + 1
    return slice_packer(len(rays[0]), width + slack)[0]


def ray_keys(rays, pack):
    return {r: pack(r) for r in rays}


def adjugate_points(simplex, pack):
    """_coset_points of a simplex given as its rays, with adjugate standing
    in for the pivot walk, on the rays' keys under pack."""
    adj, det = adjugate([list(coords) for coords in zip(*simplex)])
    if det < 0:
        adj, det = [[-e for e in row] for row in adj], -det
    return _coset_points(simplex, adj, det, det, ray_keys(simplex, pack))


def all_pairs_reduction(fs):
    """Hilbert basis by reducing every candidate against every other one.

    The candidates are those of hilbert_basis: the extreme generators and the
    parallelepiped points of the same triangulation, here the double
    description oracle's, enumerated by floor_points_oracle. h is kept iff
    no other candidate c leaves h - c in the cone. Returns (lex-sorted
    elements, number of candidates).
    """
    candidates = set(fs.rays)
    for s in dd_pulling(fs):
        if (vol := abs(determinant(s))) > 1:
            candidates |= floor_points_oracle(s, vol)
    candidates = sorted(candidates)
    elements = [
        h
        for h in candidates
        if not any(c != h and fs.contains(vsub(h, c)) for c in candidates)
    ]
    return elements, len(candidates)


@st.composite
def mixed_degree_ideals(draw):
    """n <= 4 variables, 2-6 generators with entries <= 6, not all of one degree."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 6)] * n).filter(any)
    vecs = draw(
        st.lists(vec, min_size=2, max_size=6, unique=True).filter(
            lambda vs: len({sum(v) for v in vs}) > 1
        )
    )
    return MonomialIdeal(n, tuple(vecs))


def combo_reachable(target, gens) -> bool:
    """Exhaustive nonnegative integer combination search, no DP shortcuts."""
    gens = [g for g in gens if all(x <= y for x, y in zip(g, target))]
    if not any(target):
        return True
    for g in gens:
        rest = tuple(x - y for x, y in zip(target, g))
        if all(x >= 0 for x in rest) and combo_reachable(rest, gens):
            return True
    return False


def decompose(target, budget: int, vectors) -> bool:
    """Is target >= (coordinatewise) a sum of exactly `budget` vectors?

    Depth-first search over states (vector index j, remaining budget,
    coordinatewise residual) on an explicit stack. State j chooses how many
    copies c of vectors[j] to take; c = cmax is tried first. A state popped
    again is skipped: its first visit already searched everything below it.
    """
    stack = [(0, budget, tuple(target))]
    seen = set()
    while stack:
        state = stack.pop()
        j, b, residual = state
        if b == 0:
            return True
        if j == len(vectors) or state in seen:
            continue
        seen.add(state)
        v = vectors[j]
        cmax = b
        for k, vk in enumerate(v):
            if vk:
                cmax = min(cmax, residual[k] // vk)
        for c in range(cmax + 1):
            stack.append((j + 1, b - c, tuple(r - c * x for r, x in zip(residual, v))))
    return False


def semigroup_member(point, cone) -> bool:
    """Membership of (a, b) in the semigroup the cone's generators span: some
    multiset of b lifted generators fits under a, the rest is soaked up by
    units. The oracle for IdealSession.normality's generator lookup."""
    a, b = tuple(point[:-1]), point[-1]
    if b < 0 or any(e < 0 for e in a):
        return False
    lifted = tuple(g[:-1] for g in cone.generators if g[-1] == 1)
    return decompose(a, b, lifted)


class TestHilbertBasis:
    def test_frozen_principal(self):
        cone = rees_generators(PRINCIPAL)
        hb = hilbert_basis(facet_normals(cone))
        assert hb.elements == ((1, 0), (1, 1))
        assert hb.simplices == 1 and hb.candidates == 2

    def test_frozen_two_squares(self):
        cone = rees_generators(TWO_SQUARES)
        hb = hilbert_basis(facet_normals(cone))
        assert hb.elements == (
            (0, 1, 0),
            (0, 2, 1),
            (1, 0, 0),
            (1, 1, 1),
            (2, 0, 1),
        )
        doc = hb.to_json()
        assert doc["method"]["algorithm"] == "triangulation+parallelepiped"
        assert doc["method"]["simplices"] == 2

    def test_matches_brute_force_on_small_cones(self):
        ideals = [
            PRINCIPAL,
            TWO_SQUARES,
            MIXED,
            MonomialIdeal(2, ((1, 0), (0, 2))),
            MonomialIdeal(2, ((2, 1), (1, 2))),
            MonomialIdeal(3, ((1, 1, 0), (0, 1, 1), (1, 0, 1))),
        ]
        for m in enumerate_matroids(3, 2):
            ideals.append(basis_monomial_ideal(m))
        for ideal in ideals:
            cone = rees_generators(ideal)
            hb = hilbert_basis(facet_normals(cone))
            assert list(hb.elements) == brute_irreducibles(cone), ideal

    def test_generates_box_lattice_points(self):
        # every cone lattice point in a modest box is a combination of
        # Hilbert elements; verified by plain recursive search
        for ideal in (TWO_SQUARES, MIXED):
            cone = rees_generators(ideal)
            fs = facet_normals(cone)
            hb = hilbert_basis(fs)
            bound = (4,) * cone.dim
            for p in box_points(bound):
                if fs.contains(p):
                    assert combo_reachable(p, hb.elements), (ideal, p)

    def test_minimality(self):
        for ideal in (TWO_SQUARES, MIXED):
            cone = rees_generators(ideal)
            fs = facet_normals(cone)
            hb = hilbert_basis(fs)
            for h in hb.elements:
                for other in hb.elements:
                    if other == h:
                        continue
                    diff = tuple(x - y for x, y in zip(h, other))
                    assert not (
                        all(x >= 0 for x in diff) and fs.contains(diff) and any(diff)
                    ), (h, other)

    def test_cap(self):
        cone = rees_generators(TWO_SQUARES)
        with pytest.raises(CapExceeded):
            hilbert_basis(facet_normals(cone), cap=1)

    def test_same_basis_from_the_oracle_facet_system(self):
        # hilbert_basis reads the generators' facet values from the facet
        # system's slack; the oracle's system carries its own
        for name in bundled_names():
            cone = rees_generators(analysis_ideal(realize(load_bundled(name)).value))
            if len(cone.generators) <= ORACLE_CAP:
                oracle = hilbert_basis(facet_normals_oracle(cone))
                assert hilbert_basis(facet_normals(cone)) == oracle, name

    @settings(max_examples=40, deadline=None)
    @given(mixed_degree_ideals())
    def test_same_basis_from_the_oracle_facet_system_on_mixed_degrees(self, ideal):
        cone = rees_generators(ideal)
        oracle = facet_normals_oracle(cone, cap=len(cone.generators))
        assert hilbert_basis(oracle) == hilbert_basis(facet_normals(cone))

    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_ideals())
    def test_matches_all_pairs_reduction(self, ideal):
        cone = rees_generators(ideal)
        fs = facet_normals(cone)
        hb = hilbert_basis(fs)
        elements, candidates = all_pairs_reduction(fs)
        assert list(hb.elements) == elements
        assert hb.candidates == candidates


@st.composite
def small_ideals(draw):
    """n <= 4 variables, 1-6 distinct nonzero generators with entries <= 4."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    vecs = draw(st.lists(vec, min_size=1, max_size=6, unique=True))
    return MonomialIdeal(n, tuple(sorted(vecs)))


def flatten(node, mask=0, scale=1):
    """(simplex mask, volume) of every simplex of a _triangulate node, in
    order: the sequence the DAG stands for."""
    if not node[2]:
        yield mask, scale
    for low, h, sub in node[2]:
        yield from flatten(sub, mask | low, scale * h)


def ray_simplices(rays, triangulation) -> list[tuple]:
    """(simplex mask, volume) pairs, as flatten lists them, with each mask
    unpacked into its rays, in the order of rays."""
    return [(tuple(r for i, r in enumerate(rays) if s >> i & 1), vol) for s, vol in triangulation]


def triangulation(ideal, lex: bool = False):
    """(facet system, _triangulate's triangulation), each simplex unpacked
    into its rays."""
    fs = facet_system(ideal, lex)
    return fs, ray_simplices(fs.rays, flatten(_triangulate(fs)))


def assert_matches_oracle(ideal, lex: bool = False):
    """_triangulate gives the double description oracle's simplices, each
    with its volume from heights equal to |det|, as a multiset of (ray set,
    volume) pairs. The order of the simplices shows only in the cap message,
    which is tested on its own; that of the rays inside one shows nowhere.
    Returns the triangulation."""
    fs, simplices = triangulation(ideal, lex)
    oracle = Counter((frozenset(s), abs(determinant(s))) for s in dd_pulling(fs))
    assert Counter((frozenset(s), vol) for s, vol in simplices) == oracle, ideal
    return simplices


# The wheel W4: K5 without the edges 12 and 34. Its triangulation is
# unimodular, 2,946 simplices; pulled in lex order it has 2,734 simplices,
# 192 of volume above 1.
W4_EDGES = ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5))


class TestTriangulation:
    def test_facet_tight_sets_square_cone(self):
        tights = facet_tight_sets(((1, 0), (0, 1)))
        assert sorted(tights) == [((0, 1),), ((1, 0),)]

    def test_matches_oracle_on_bundled_instances(self):
        for name in bundled_names():
            assert_matches_oracle(analysis_ideal(realize(load_bundled(name)).value))

    def test_matches_oracle_on_small_matroids(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    assert_matches_oracle(basis_monomial_ideal(m))

    @settings(max_examples=60, deadline=None)
    @given(small_ideals())
    def test_matches_oracle_on_random_ideals(self, ideal):
        assert_matches_oracle(ideal)

    def test_matches_oracle_on_the_wheel_w4(self):
        ideal = basis_monomial_ideal(graphic_matroid(5, W4_EDGES))
        simplices = assert_matches_oracle(ideal)
        assert len(simplices) == sum(vol for _, vol in simplices) == 2946
        # the total volume is the same in any order, the simplices are not
        simplices = assert_matches_oracle(ideal, lex=True)
        assert len(simplices) == 2734
        assert sum(vol > 1 for _, vol in simplices) == 192
        assert sum(vol for _, vol in simplices) == 2946

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_ideals(), mixed_degree_ideals()))
    @example(MIXED)
    def test_matches_oracle_in_lex_order(self, ideal):
        assert_matches_oracle(ideal, lex=True)

    def test_the_wheel_w4_is_unimodular(self):
        """W4's triangulation certifies normality alone: every simplex has
        volume 1, so no simplex is walked and the Hilbert basis is the rays."""
        fs = facet_system(basis_monomial_ideal(graphic_matroid(5, W4_EDGES)))
        assert list(_nonunimodular(_triangulate(fs))) == []
        result = hilbert_basis(fs)
        assert result.simplices == result.parallelepiped_points == 2946
        assert result.elements == tuple(sorted(fs.rays))

    # MIXED reaches a face whose cone normal has content 3 on its lattice,
    # so a height not divided by that content would be off by 3
    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_ideals())
    @example(MIXED)
    def test_matches_oracle_on_mixed_degree_ideals(self, ideal):
        assert_matches_oracle(ideal)

    def test_volume_mismatch_is_an_integrity_error(self):
        # volume 3 from heights for a simplex of determinant 2
        ((simplex, adj, det, vol),) = _pivot_walk(((2, 0), (0, 1)), [(0b11, 3)])
        with pytest.raises(IntegrityError, match="from the pivot walk"):
            _coset_points(simplex, adj, det, vol, ray_keys(simplex, identity_packer(simplex)))

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_ideals(), mixed_degree_ideals()), st.data())
    def test_cap_message_names_the_first_total_past_the_cap(self, ideal, data):
        """For caps across [0, total): the message names the first running
        total of _triangulate's sequence past the cap, which lies in
        (cap, cap + largest volume]; at cap = total, hilbert_basis succeeds."""
        fs, simplices = triangulation(ideal)
        volumes = [vol for _, vol in simplices]
        totals = list(accumulate(volumes))
        caps = data.draw(st.lists(st.integers(0, totals[-1] - 1), min_size=1, max_size=4))
        for cap in caps:
            with pytest.raises(CapExceeded) as exc:
                hilbert_basis(fs, cap)
            message = f"parallelepiped budget {cap} exceeded at "
            assert str(exc.value).startswith(message), exc.value
            reached = int(str(exc.value)[len(message):].removesuffix(" lattice points"))
            assert reached == next(t for t in totals if t > cap), (ideal, cap)
            assert cap < reached <= cap + max(volumes), (ideal, cap)
        assert hilbert_basis(fs, totals[-1]).parallelepiped_points == totals[-1]

    # _triangulate builds the face DAG; hilbert_basis reads the counts, the
    # cap's running total and the walk's simplices off its one root
    @pytest.mark.parametrize("cap, trips", [(0, True), (83, True), (DEFAULT_CAP, False)])
    def test_hilbert_basis_triangulates_once_per_call(self, monkeypatch, cap, trips):
        roots = []

        def counting(*args):
            roots.append(_triangulate(*args))
            return roots[-1]

        monkeypatch.setattr(semigroup, "_triangulate", counting)
        k4 = analysis_ideal(realize(load_bundled("graphic_k4")).value)
        cone = rees_generators(k4)
        fs = facet_normals(cone)
        if trips:
            with pytest.raises(CapExceeded):
                hilbert_basis(fs, cap)
        else:
            result = hilbert_basis(fs, cap)
            assert (result.simplices, result.parallelepiped_points) == roots[0][:2]
        assert len(roots) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_ideals(), mixed_degree_ideals()))
    @example(MIXED)
    @example(basis_monomial_ideal(graphic_matroid(5, W4_EDGES)))
    def test_dag_totals_match_its_flattened_sequence(self, ideal):
        """The root's simplex count and total volume, the simplices of volume
        above 1 it lists and the running totals it descends to are those of
        the flattened sequence, and hilbert_basis reports the same counts."""
        cone = rees_generators(ideal)
        fs = facet_normals(cone)
        root = _triangulate(fs)
        flat = list(flatten(root))
        assert root[:2] == (len(flat), sum(vol for _, vol in flat))
        assert is_subsequence(_nonunimodular(root), [(s, vol) for s, vol in flat if vol > 1])
        totals = list(accumulate(vol for _, vol in flat))
        for before, total in zip([0, *totals], totals):
            assert _reached(root, before) == _reached(root, total - 1) == total
        result = hilbert_basis(fs)
        assert (result.simplices, result.parallelepiped_points) == root[:2]

    def test_unit_slack_rays_spare_the_lattice_bases(self, monkeypatch):
        """A ray of slack 1 on a face's cut makes its content 1, so W4 builds
        no lattice basis; MIXED has a face whose cut has content 3, which
        takes its lattice basis, and still gets dd_pulling's |det|."""
        contents = []

        def counting(basis, b):
            g, sub = _split(basis, b)
            contents.append(g)
            return g, sub

        monkeypatch.setattr(semigroup, "_split", counting)
        w4 = basis_monomial_ideal(graphic_matroid(5, W4_EDGES))
        assert len(triangulation(w4)[1]) == 2946
        assert len(triangulation(w4, lex=True)[1]) == 2734
        assert contents == []
        assert_matches_oracle(MIXED)
        assert 3 in contents


def benchmark_workloads():
    """perfbench/workloads.py, loaded from its file: the benchmark's fixed
    instance sets."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclass looks itself up there
    return module


def assert_matches_scan(ideal):
    """_triangulate's DAG is the one scan_triangulate builds by scanning
    every cone facet per face: the same nodes, heights, edge order, counts
    and volumes, shared alike."""
    fs = facet_system(ideal)
    assert dag_form(_triangulate(fs)) == dag_form(scan_triangulate(fs)), ideal


# The wheel W5: hub 1, rim 2-3-4-5-6-2.
W5_EDGES = ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 6), (3, 4), (4, 5), (5, 6))


class TestFacetSearch:
    """Each face reads its facets off those of the face that first reached
    it; scan_triangulate, which meets each face with every cone facet, is
    the oracle."""

    def test_matches_scan_on_bundled_instances(self):
        for name in bundled_names():
            assert_matches_scan(analysis_ideal(realize(load_bundled(name)).value))

    def test_matches_scan_on_the_benchmark_cones(self):
        """The twelve ideals of lowdim_hilbert's pool and the five
        Veronese-type cones of polymatroid_dilation."""
        workloads = benchmark_workloads()
        pool = workloads.lowdim_pool()
        bounds = workloads.polymatroid_bounds()
        assert (len(pool), len(bounds)) == (12, 5)
        for n, gens in pool:
            assert_matches_scan(MonomialIdeal(n, tuple(gens)))
        for u in bounds:
            assert_matches_scan(MonomialIdeal(len(u), tuple(workloads.veronese_type(u))))

    @pytest.mark.parametrize("vertices, edges", [
        pytest.param(5, W4_EDGES, id="wheel_w4"),
        pytest.param(5, tuple(combinations(range(1, 6), 2)), id="k5"),
        pytest.param(6, W5_EDGES, id="wheel_w5"),
    ])
    def test_matches_scan_on_graphic_cones(self, vertices, edges):
        assert_matches_scan(basis_monomial_ideal(graphic_matroid(vertices, edges)))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(equigenerated_ideals(), mixed_degree_ideals()))
    @example(MIXED)
    def test_matches_scan_on_random_ideals(self, ideal):
        assert_matches_scan(ideal)

    def test_the_wheel_w4_cuts_ridges_below_their_parents_cut(self):
        """On W4 the first cone facet to cut a ridge R = H & K out of a
        pulled facet H of F is, on some of H's edges, below the first to cut
        K out of F, so an edge's cut cannot be taken from K."""
        fs = facet_system(basis_monomial_ideal(graphic_matroid(5, W4_EDGES)))

        def facets(face):
            meets = {face & g for g in fs.masks} - {face}
            return [m for m in meets if not any(m | o == o != m for o in meets)]

        def first(face, facet):
            return min(j for j, g in enumerate(fs.masks) if face & g == facet)

        seen, pairs, below, stack = set(), 0, 0, [(1 << len(fs.rays)) - 1]
        while stack:
            face = stack.pop()
            if face in seen or not face:
                continue
            seen.add(face)
            around = facets(face)
            for h in around:
                if h & (face & -face):  # holds F's apex
                    continue
                pulled = [r for r in facets(h) if not r & (h & -h)]
                for k in around:
                    if k != h and h & k in pulled:
                        pairs += 1
                        below += first(h, h & k) < first(face, k)
                stack.append(h)
        assert len(seen) == 775  # every node of W4's DAG but the empty face's
        assert (pairs, below) == (2631, 403)


def floor_points_oracle(simplex, vol):
    """The nonzero parallelepiped points by one exact solve per coset: each
    point x of a column Hermite form's diagonal box is reduced into the
    parallelepiped as x - R floor(adj x / det), for R the ray matrix. The
    oracle for the coset closure of _coset_points."""
    m = len(simplex)
    colmat = [[simplex[j][i] for j in range(m)] for i in range(m)]
    adj, det = adjugate(colmat)
    if det < 0:
        adj, det = [[-e for e in row] for row in adj], -det
    assert det == vol, (simplex, vol, det)
    points = set()
    for x in product(*(range(d) for d in column_hnf_diagonal(colmat))):
        floors = [sum(adj[i][k] * x[k] for k in range(m)) // det for i in range(m)]
        p = tuple(x[i] - sum(colmat[i][j] * floors[j] for j in range(m)) for i in range(m))
        if any(p):
            points.add(p)
    return points


def walked(ideal, lex: bool = False):
    """The rays of the ideal's Rees cone, its triangulation's simplices, and
    what the pivot walk yields over those _nonunimodular lists, as
    hilbert_basis feeds it."""
    fs = facet_system(ideal, lex)
    rays = fs.rays
    root = _triangulate(fs)
    return rays, list(flatten(root)), list(_pivot_walk(rays, _nonunimodular(root)))


def assert_walk_matches_oracle(ideal, lex: bool = False) -> list[int]:
    """On every simplex of volume above 1, the coset closure of the pivot
    walk's adjugate gives the keys of the floor oracle's points, packed in
    fields wide enough for the simplex or for the whole cone; returns those
    volumes."""
    volumes = []
    rays, _, walk = walked(ideal, lex)
    cone_pack = identity_packer(rays)
    for simplex, adj, det, vol in walk:
        want = floor_points_oracle(simplex, vol)
        for pack in (identity_packer(simplex), cone_pack):
            keys = _coset_points(simplex, adj, det, vol, ray_keys(rays, pack))
            assert keys == set(map(pack, want)), (ideal, simplex)
        volumes.append(vol)
    return volumes


def assert_walk_adjugates(ideal, lex: bool = False) -> int:
    """The pivot walk yields simplices of volume above 1 in the
    triangulation's order, each face reached by steps of height 1 alone
    once, with adj R = det I and det its volume; returns how many it
    yields."""
    rays, simplices, walk = walked(ideal, lex)
    expected = [(s, vol) for s, vol in ray_simplices(rays, simplices) if vol > 1]
    assert is_subsequence(
        [(frozenset(s), vol) for s, _, _, vol in walk],
        [(frozenset(s), vol) for s, vol in expected],
    )
    for simplex, adj, det, vol in walk:
        m = len(simplex)
        assert det == vol
        assert [[dot(row, r) for r in simplex] for row in adj] == [
            [det * (i == j) for j in range(m)] for i in range(m)
        ], simplex
    return len(walk)


@st.composite
def integer_simplices(draw):
    """m <= 4 rays with entries in -6..6, of |det| from 2 to 400."""
    m = draw(st.integers(2, 4))
    rows = st.lists(st.integers(-6, 6), min_size=m, max_size=m)
    simplex = draw(st.lists(rows, min_size=m, max_size=m))
    vol = abs(determinant(simplex))
    assume(1 < vol <= 400)
    return tuple(map(tuple, simplex)), vol


class TestPivotWalk:
    def test_adjugates_on_k4(self):
        k4 = analysis_ideal(realize(load_bundled("graphic_k4")).value)
        assert assert_walk_adjugates(k4) == 6

    # in lex order W4 has 192 simplices of volume above 1; 124 are walked,
    # the rest share a face reached by steps of height 1 alone
    def test_adjugates_on_the_wheel_w4(self):
        w4 = basis_monomial_ideal(graphic_matroid(5, W4_EDGES))
        assert assert_walk_adjugates(w4, lex=True) == 124

    def test_adjugates_on_mixed_n3_v516(self):
        assert assert_walk_adjugates(V516)

    def test_one_adjugate_for_the_whole_walk(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(rows)
            return adjugate(rows)

        monkeypatch.setattr(semigroup, "adjugate", counted)
        w4 = basis_monomial_ideal(graphic_matroid(5, W4_EDGES))
        assert len(walked(w4, lex=True)[2]) == 124
        assert len(calls) == 1

    def test_leaving_slot_of_zero_weight_is_an_integrity_error(self):
        # (2, 0) has weight 0 on the leaving slot of (0, 2): the target
        # {(1, 0), (2, 0)} is singular
        with pytest.raises(IntegrityError, match="no leaving slot"):
            list(_pivot_walk(((1, 0), (0, 2), (2, 0)), [(0b011, 2), (0b101, 2)]))

    def test_corrupted_adjugate_is_an_inexact_division(self, monkeypatch):
        rays, simplices = ((1, 0), (1, 3), (0, 2)), [(0b011, 3), (0b101, 2)]
        assert [adj for _, adj, _, _ in _pivot_walk(rays, simplices)] == [
            [[3, -1], [0, 1]],
            [[2, 0], [0, 1]],
        ]

        def corrupted(rows):
            adj, det = adjugate(rows)
            adj[0][0] += 1
            return adj, det

        monkeypatch.setattr(semigroup, "adjugate", corrupted)
        with pytest.raises(IntegrityError, match="inexact pivot division"):
            list(_pivot_walk(rays, simplices))


SQUARE = ((2, 0), (0, 2))  # the simplex diag(2, 2), of volume 4


class TestCosetWalk:
    def test_matches_floor_oracle_on_bundled_instances(self):
        volumes = []
        for name in bundled_names():
            volumes += assert_walk_matches_oracle(
                analysis_ideal(realize(load_bundled(name)).value)
            )
        assert volumes

    def test_matches_floor_oracle_on_small_matroids(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    assert_walk_matches_oracle(basis_monomial_ideal(m))

    def test_matches_floor_oracle_on_the_wheel_w4(self):
        w4 = basis_monomial_ideal(graphic_matroid(5, W4_EDGES))
        volumes = assert_walk_matches_oracle(w4, lex=True)
        assert Counter(volumes) == {2: 104, 3: 20}

    # the simplex of volume 516 is one of the lex order's
    def test_matches_floor_oracle_on_mixed_n3_v516(self):
        assert 516 in assert_walk_matches_oracle(V516, lex=True)
        assert assert_walk_matches_oracle(V516)

    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_ideals())
    @example(MIXED)
    @example(V516)
    def test_matches_floor_oracle_on_mixed_degree_ideals(self, ideal):
        assert_walk_matches_oracle(ideal)

    # rays with negative entries: the keys are linear, so they stay
    # injective on the parallelepiped
    @settings(max_examples=100, deadline=None)
    @given(integer_simplices())
    @example((((1, 1), (1, -1)), 2))
    @example((((1, 0, 0), (0, 1, 0), (1, 1, 3)), 3))
    @example((((2, -1, 0), (1, 3, -2), (0, -1, 4)), 24))
    def test_matches_floor_oracle_on_integer_simplices(self, case):
        simplex, vol = case
        want = floor_points_oracle(simplex, vol)
        for slack in (0, 5):  # the simplex's own fields, and wider ones
            pack = identity_packer(simplex, slack)
            assert adjugate_points(simplex, pack) == set(map(pack, want))

    def test_examples(self):
        # (1, 1) / 2 is the one nonzero point of ((1, 1), (1, -1))
        pack = identity_packer(((1, 1), (1, -1)))
        assert adjugate_points(((1, 1), (1, -1)), pack) == {pack((1, 0))}
        simplex = ((1, 0, 0), (0, 1, 0), (1, 1, 3))
        pack = identity_packer(simplex)
        assert adjugate_points(simplex, pack) == {pack((1, 1, 1)), pack((1, 1, 2))}

    # diag(2, 2) has adj diag(2, 2), whose columns generate a group of order
    # 4 mod 4; each of these generates a smaller one, so misses a coset
    @pytest.mark.parametrize(
        "adj", [[[2, 0], [0, 0]], [[0, 0], [0, 2]], [[2, 2], [0, 0]], [[0, 0], [0, 0]]]
    )
    def test_closure_missing_a_coset_is_an_integrity_error(self, adj):
        pack = identity_packer(SQUARE)
        keys = ray_keys(SQUARE, pack)
        assert _coset_points(SQUARE, [[2, 0], [0, 2]], 4, 4, keys) == {
            pack((1, 0)), pack((0, 1)), pack((1, 1))
        }
        with pytest.raises(IntegrityError, match="coset closure"):
            _coset_points(SQUARE, adj, 4, 4, keys)

    def test_column_off_the_lattice_is_an_integrity_error(self):
        # (1, 0) mod 4 steps diag(2, 2) by (1/2, 0), not a lattice point
        keys = ray_keys(SQUARE, identity_packer(SQUARE))
        with pytest.raises(IntegrityError, match="no lattice point"):
            _coset_points(SQUARE, [[1, 0], [0, 2]], 4, 4, keys)

    def test_volume_mismatch_is_an_integrity_error(self):
        keys = ray_keys(SQUARE, identity_packer(SQUARE))
        with pytest.raises(IntegrityError, match="from the pivot walk"):
            _coset_points(SQUARE, [[2, 0], [0, 2]], 4, 6, keys)


def reduction_oracle(fs):
    """The degree-ordered reduction on unpacked facet values: the candidates
    of hilbert_basis, here enumerated by floor_points_oracle on each simplex
    of the same triangulation, each kept unless an element kept before it is
    <= it in every one of its dot products with the facet normals. Returns
    the lex-sorted elements."""
    candidates = set(fs.rays)
    for simplex, vol in ray_simplices(fs.rays, flatten(_triangulate(fs))):
        candidates |= floor_points_oracle(simplex, vol)
    normals = fs.normals()
    elements, kept_values = [], []
    for h in sorted(candidates, key=sum):
        values = [dot(b, h) for b in normals]
        if not any(all(map(le, k, values)) for k in kept_values):
            elements.append(h)
            kept_values.append(values)
    return tuple(sorted(elements))


def assert_reduction_matches(ideal):
    cone = rees_generators(ideal)
    fs = facet_normals(cone)
    assert hilbert_basis(fs).elements == reduction_oracle(fs), ideal


class TestPackedReduction:
    def test_matches_oracle_on_bundled_instances(self):
        for name in bundled_names():
            assert_reduction_matches(analysis_ideal(realize(load_bundled(name)).value))

    def test_matches_oracle_on_small_matroids(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    assert_reduction_matches(basis_monomial_ideal(m))

    def test_matches_oracle_on_the_wheel_w4(self):
        assert_reduction_matches(basis_monomial_ideal(graphic_matroid(5, W4_EDGES)))

    @settings(max_examples=60, deadline=None)
    @given(mixed_degree_ideals())
    @example(MIXED)
    @example(V516)
    def test_matches_oracle_on_mixed_degree_ideals(self, ideal):
        assert_reduction_matches(ideal)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_packed_dominance_is_componentwise_le(self, data):
        bound = data.draw(st.one_of(st.integers(0, 40), st.integers(0, 2**80)))
        fields = data.draw(st.integers(1, 8))
        value = st.one_of(st.sampled_from((0, bound)), st.integers(0, bound))
        x = data.draw(st.lists(value, min_size=fields, max_size=fields))
        y = data.draw(st.lists(value, min_size=fields, max_size=fields))
        identity = [[int(i == k) for k in range(fields)] for i in range(fields)]
        pack, guard = packer(identity, bound.bit_length() + 1)
        px, py = pack(x), pack(y)
        assert px >= 0 and not px & guard
        assert (((py | guard) - px) & guard == guard) == all(map(le, x, y))
        # so fieldwise order implies integer order, strict unless x == y
        if all(map(le, x, y)):
            assert px <= py and (px == py) == (x == y)

    # the coset closure steps keys and only kept keys are decoded, so no
    # candidate is packed but the rays, and each kept key's decoded point
    # once more to check it, on cones with and without simplices of volume
    # above 1
    @pytest.mark.parametrize(
        "ideal",
        [
            TWO_SQUARES,
            basis_monomial_ideal(graphic_matroid(5, W4_EDGES)),
            basis_monomial_ideal(uniform_matroid(4, 2)),
            PRINCIPAL,
        ],
    )
    def test_one_packer_packs_each_ray_once(self, monkeypatch, ideal):
        packers, packed = [], []

        def counted(rows, width):
            pack, guard = packer(rows, width)
            packers.append(rows)
            return (lambda v: packed.append(v) or pack(v)), guard

        monkeypatch.setattr(semigroup, "packer", counted)
        fs = facet_normals(rees_generators(ideal))
        result = hilbert_basis(fs)
        assert len(packers) == 1
        assert Counter(packed) == Counter(fs.rays) + Counter(result.elements)

    # TWO_SQUARES has the facet normals e_1, e_2, e_3 and (1, 1, -2), then
    # the identity rows, and the sums of its extreme rays' values on each are
    # at most 3: keys have seven fields of 3 bits, each with guard bit 4,
    # under the unguarded degree field, from bit 21
    @pytest.mark.parametrize(
        "key",
        [
            pytest.param(-1, id="point0"),  # negative
            pytest.param(4, id="point1"),  # 4 on e_1
            pytest.param(4 << 12, id="point2"),  # 4 as the first coordinate
            pytest.param(4 << 18, id="point3"),  # 4 as the last coordinate
        ],
    )
    def test_value_outside_the_bound_is_an_integrity_error(self, monkeypatch, key):
        monkeypatch.setattr(semigroup, "_coset_points", lambda *walk: {key})
        cone = rees_generators(TWO_SQUARES)
        with pytest.raises(IntegrityError, match="field outside"):
            hilbert_basis(facet_normals(cone))

    # 8 on e_1 carries into a 1 on e_2 with no guard bit set: the key 8 is
    # kept and decodes to (0, 0, 0), whose key is 0; unchecked, it is
    # reported as a Hilbert element
    def test_carry_into_the_next_field_is_an_integrity_error(self, monkeypatch):
        monkeypatch.setattr(semigroup, "_coset_points", lambda *walk: {8})
        cone = rees_generators(TWO_SQUARES)
        with pytest.raises(IntegrityError, match="candidate key 8 is not the key"):
            hilbert_basis(facet_normals(cone))

    # 4609 holds the facet values (1, 0, 0, 1) and the coordinates (1, 0, 0)
    # of the ray (1, 0, 0), but degree 0 where the ray's is 2, the sum of the
    # normals being (2, 2, -1): it is kept first, reduces the ray, and
    # decodes to the ray, whose key is 4609 + (2 << 21)
    def test_degree_field_off_its_point_is_an_integrity_error(self, monkeypatch):
        monkeypatch.setattr(semigroup, "_coset_points", lambda *walk: {4609})
        cone = rees_generators(TWO_SQUARES)
        with pytest.raises(IntegrityError, match="candidate key 4609 is not the key"):
            hilbert_basis(facet_normals(cone))


# The only candidate below (2, 4, 2, 2) in every facet value, other than
# itself, is the Hilbert basis element (1, 2, 1, 1), of exactly half its
# degree: a bound that admits only reducers of less than half the degree
# keeps it.
HALF = MonomialIdeal(3, ((0, 4, 0), (1, 1, 2), (3, 0, 1)))


def assert_matches_all_pairs(ideal):
    """hilbert_basis gives the all-pairs reduction's elements and the same
    simplices, parallelepiped points and candidates."""
    fs = facet_system(ideal)
    assert hilbert_basis(fs) == all_pairs_hilbert_basis(fs), ideal


class TestHalfDegreeBound:
    """Candidates are reduced in degree order, each only against the kept
    elements of at most half its degree; all_pairs_hilbert_basis, which
    tests each against every element kept before it, is the oracle."""

    def test_matches_all_pairs_on_bundled_instances(self):
        for name in bundled_names():
            assert_matches_all_pairs(analysis_ideal(realize(load_bundled(name)).value))

    def test_matches_all_pairs_on_the_benchmark_pool(self):
        pool = benchmark_workloads().lowdim_pool()
        assert len(pool) == 12
        for n, gens in pool:
            assert_matches_all_pairs(MonomialIdeal(n, tuple(gens)))

    @pytest.mark.parametrize("vertices, edges", [
        pytest.param(5, tuple(combinations(range(1, 6), 2)), id="k5"),
        pytest.param(6, W5_EDGES, id="wheel_w5"),
    ])
    def test_matches_all_pairs_on_graphic_cones(self, vertices, edges):
        assert_matches_all_pairs(basis_monomial_ideal(graphic_matroid(vertices, edges)))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(equigenerated_ideals(), mixed_degree_ideals()))
    @example(MIXED)
    @example(V516)
    def test_matches_all_pairs_on_random_ideals(self, ideal):
        assert_matches_all_pairs(ideal)

    def test_a_reducer_of_exactly_half_the_degree(self):
        fs = facet_system(HALF)
        grading = [sum(column) for column in zip(*fs.normals())]
        x, h = (2, 4, 2, 2), (1, 2, 1, 1)
        candidates = set(fs.rays)
        for simplex, vol in ray_simplices(fs.rays, flatten(_triangulate(fs))):
            candidates |= floor_points_oracle(simplex, vol)
        assert [c for c in candidates if c != x and fs.contains(vsub(x, c))] == [h]
        assert dot(grading, x) == 2 * dot(grading, h)
        elements = hilbert_basis(fs).elements
        assert h in elements and x not in elements
        assert_matches_all_pairs(HALF)


def walk_keys(rays, simplices) -> set[int]:
    """The coset closure's keys over the pivot walk of simplices, under
    identity_packer(rays)."""
    keys = ray_keys(rays, identity_packer(rays))
    return set().union(*(_coset_points(*w, keys) for w in _pivot_walk(rays, simplices)))


TRANSVERSAL = analysis_ideal(realize(load_bundled("transversal_12_123")).value)


class TestPullingOrder:
    """The elements are the same in any pulling order, and walking each face
    reached by steps of height 1 alone once loses no candidate."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_ideals(), mixed_degree_ideals()))
    @example(MIXED)
    @example(V516)
    def test_lex_order_gives_the_same_elements(self, ideal):
        fs = facet_system(ideal)
        assert hilbert_basis(lex_permuted(fs)).elements == hilbert_basis(fs).elements, ideal

    def test_lex_order_gives_the_same_elements_on_bundled_instances(self):
        for name in bundled_names():
            fs = facet_system(analysis_ideal(realize(load_bundled(name)).value))
            assert hilbert_basis(lex_permuted(fs)).elements == hilbert_basis(fs).elements, name

    # each example skips a simplex of volume above 1: W4 in lex order walks
    # 124 of 192, the transversal matroid 1 of 2, the last two 1 of 2 and
    # 2 of 3
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(small_ideals(), mixed_degree_ideals()), st.booleans())
    @example(basis_monomial_ideal(graphic_matroid(5, W4_EDGES)), True)
    @example(TRANSVERSAL, False)
    @example(MonomialIdeal(3, ((1, 1, 2), (3, 3, 0), (4, 2, 1))), True)
    @example(MonomialIdeal(4, ((1, 4, 1, 4), (2, 0, 3, 1), (4, 2, 1, 1))), False)
    def test_shared_walk_gives_the_unshared_candidates(self, ideal, lex):
        fs = facet_system(ideal, lex)
        root = _triangulate(fs)
        unshared = [(s, vol) for s, vol in flatten(root) if vol > 1]
        shared = list(_nonunimodular(root))
        assert is_subsequence(shared, unshared)
        assert walk_keys(fs.rays, shared) == walk_keys(fs.rays, unshared), ideal

    def test_sharing_skips_simplices(self):
        w4 = basis_monomial_ideal(graphic_matroid(5, W4_EDGES))
        cases = [(w4, True, 124, 192), (TRANSVERSAL, False, 1, 2)]
        for ideal, lex, walked_count, above_1 in cases:
            root = _triangulate(facet_system(ideal, lex))
            assert len(list(_nonunimodular(root))) == walked_count
            assert sum(vol > 1 for _, vol in flatten(root)) == above_1


class TestSemigroupMember:
    def test_examples(self):
        cone = rees_generators(TWO_SQUARES)
        assert semigroup_member((2, 0, 1), cone)
        assert semigroup_member((2, 2, 2), cone)
        assert not semigroup_member((1, 1, 1), cone)
        assert not semigroup_member((0, 0, 1), cone)
        assert not semigroup_member((-1, 0, 0), cone)

    def test_generator_sums_are_members(self):
        # the semigroup is generated by the cone generators, so any sum of
        # them must test positive; Hilbert elements outside that semigroup
        # (the non-normal case) must not
        for ideal in (TWO_SQUARES, MIXED):
            cone = rees_generators(ideal)
            for a in cone.generators:
                assert semigroup_member(a, cone)
                for b in cone.generators:
                    s = tuple(x + y for x, y in zip(a, b))
                    assert semigroup_member(s, cone)

    def test_agrees_with_recursive_search(self):
        cone = rees_generators(TWO_SQUARES)
        for p in box_points((4, 4, 2)):
            assert semigroup_member(p, cone) == combo_reachable(p, cone.generators)

    @pytest.mark.parametrize(
        "gens",
        [
            ((0, 3), (1, 2), (2, 1), (3, 0)),
            ((1, 0), (1, 1), (1, 2), (2, 3)),
        ],
    )
    def test_agrees_with_multiset_search(self, gens):
        # distinct choices among the first generators often leave the same
        # budget and residual here, so a search that revisits a state is tested
        cone = rees_generators(MonomialIdeal(2, gens))
        for b in range(1, 5):
            sums = [tuple(map(sum, zip(*c))) for c in combinations_with_replacement(gens, b)]
            for a in box_points((8, 8)):
                fits = any(all(x <= y for x, y in zip(s, a)) for s in sums)
                assert semigroup_member((*a, b), cone) == fits, (a, b)


def assert_lookup_matches_dp(ideal):
    """The normality verdict and witness equal those of the membership DP:
    not normal at the lex-first Hilbert element outside the semigroup."""
    session = IdealSession(ideal)
    cone = session.cone
    outside = [h for h in session.hilbert.elements if not semigroup_member(h, cone)]
    if ideal.q == 1:
        assert outside == [], ideal
    want = ("not_normal", outside[0]) if outside else ("normal", None)
    assert (session.normality.verdict, session.normality.witness) == want, ideal


class TestIsNormal:
    def test_two_squares_witness(self):
        cert = IdealSession(TWO_SQUARES).normality
        assert cert.verdict == "not_normal"
        assert cert.witness == (1, 1, 1)
        assert cert.method == "hilbert"

    def test_witness_self_verifies(self):
        # in the cone but not reachable from the generators
        cert = IdealSession(TWO_SQUARES).normality
        cone = rees_generators(TWO_SQUARES)
        fs = facet_normals(cone)
        assert fs.contains(cert.witness)
        assert not combo_reachable(cert.witness, cone.generators)

    def test_normal_examples(self):
        assert IdealSession(PRINCIPAL).normality.verdict == "normal"
        assert IdealSession(MIXED).normality.verdict == "normal"
        assert IdealSession(MonomialIdeal(2, ((1, 0), (0, 2)))).normality.verdict == "normal"
        m = uniform_matroid(3, 2)
        assert IdealSession(basis_monomial_ideal(m)).normality.verdict == "normal"

    def test_agrees_with_definition_on_small_ideals(self):
        # normal iff every cone lattice point in the probe box is reachable
        rng = random.Random(41)
        for _ in range(25):
            n = rng.randint(1, 3)
            q = min(rng.randint(1, 4), 3 ** n - 1)
            vecs = set()
            while len(vecs) < q:
                v = tuple(rng.randint(0, 2) for _ in range(n))
                if any(v):
                    vecs.add(v)
            ideal = MonomialIdeal(n, tuple(sorted(vecs)))
            cone = rees_generators(ideal)
            fs = facet_normals(cone)
            bound = tuple(sum(g[i] for g in cone.generators) for i in range(cone.dim))
            brute_normal = all(
                combo_reachable(p, cone.generators)
                for p in box_points(bound)
                if fs.contains(p)
            )
            assert (IdealSession(ideal).normality.verdict == "normal") == brute_normal, ideal

    def test_lookup_matches_membership_dp_on_bundled_instances(self):
        for name in bundled_names():
            assert_lookup_matches_dp(analysis_ideal(realize(load_bundled(name)).value))

    @settings(max_examples=60, deadline=None)
    @given(small_ideals())
    @example(TWO_SQUARES)
    @example(TETRAHEDRON)
    def test_lookup_matches_membership_dp(self, ideal):
        assert_lookup_matches_dp(ideal)

    def test_json(self):
        assert IdealSession(TWO_SQUARES).normality.to_json() == {
            "verdict": "not_normal",
            "witness": [1, 1, 1],
            "method": "hilbert",
        }
        assert IdealSession(PRINCIPAL).normality.to_json() == {
            "verdict": "normal",
            "method": "hilbert",
        }


class TestBoxPoints:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_filtered_product(self, data):
        n = data.draw(st.integers(1, 4))
        lo = data.draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
        hi = [x + data.draw(st.integers(-1, 3)) for x in lo]
        total = data.draw(st.none() | st.integers(-3, 12))
        want = [
            p
            for p in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if total is None or sum(p) == total
        ]
        assert list(box_slice_points(lo, hi, total)) == want

    def test_slice_scan_is_output_sensitive(self):
        # a segment of 10^4 + 1 points in a box of (10^4 + 1)^2
        with Budget(5.0):
            assert len(ehrhart_points(((10**4, 0), (0, 10**4)), 1)) == 10**4 + 1


def slice_packer(n: int, width: int):
    """packer on the identity rows, and its weights 2^(width k)."""
    pack, _ = packer([[int(i == k) for k in range(n)] for i in range(n)], width)
    return pack, [1 << width * k for k in range(n)]


@st.composite
def box_slices(draw):
    """(lo, hi, total) with lo <= hi, the total at most 3 outside the sums
    of lo and of hi."""
    n = draw(st.integers(1, 5))
    lo = draw(st.lists(st.integers(-3, 4), min_size=n, max_size=n))
    hi = [x + draw(st.integers(0, 4)) for x in lo]
    total = draw(st.integers(sum(lo) - 3, sum(hi) + 3))
    return lo, hi, total


class TestSlice:
    @settings(max_examples=300, deadline=None)
    @given(box_slices())
    @example(([0, 0, 0], [2, 2, 2], 3))
    @example(([1, -2, 0, 3], [1, -2, 0, 3], 2))  # zero spans: one point
    def test_count_matches_the_oracle(self, case):
        assert _slice_count(*case) == len(list(box_slice_points(*case)))

    @settings(max_examples=300, deadline=None)
    @given(box_slices(), st.integers(1, 8))
    @example(([0, 0, 0], [2, 2, 2], 3), 3)
    @example(([-1, 2], [3, 2], 4), 2)  # a zero span on the last coordinate
    def test_keys_are_the_oracle_points_packed_in_order(self, case, width):
        # packer is linear, so the keys agree as integers on any width
        pack, weights = slice_packer(len(case[0]), width)
        assert list(_slice_keys(*case, weights)) == list(map(pack, box_slice_points(*case)))

    @pytest.mark.parametrize("total", [-1, 2, 13, 40])
    def test_totals_outside_the_range_give_an_empty_slice(self, total):
        lo, hi = [0, 1, 2], [3, 4, 5]  # sums 3 and 12
        assert _slice_count(lo, hi, total) == 0
        assert list(_slice_keys(lo, hi, total, slice_packer(3, 4)[1])) == []

    def test_one_coordinate(self):
        weights = [1]
        for total in range(-2, 8):
            inside = 2 <= total <= 5
            assert _slice_count([2], [5], total) == int(inside)
            assert list(_slice_keys([2], [5], total, weights)) == ([total] if inside else [])

    def test_zero_spans(self):
        lo = [3, 0, 2, 1]
        pack, weights = slice_packer(4, 3)
        assert _slice_count(lo, lo, 6) == 1
        assert list(_slice_keys(lo, lo, 6, weights)) == [pack(lo)]
        assert _slice_count(lo, lo, 5) == 0
        assert list(_slice_keys(lo, lo, 7, weights)) == []
        # one free pair among fixed coordinates
        assert list(_slice_keys([3, 0, 2, 1], [3, 2, 2, 3], 8, weights)) == list(
            map(pack, [(3, 0, 2, 3), (3, 1, 2, 2), (3, 2, 2, 1)])
        )

    def test_count_of_a_wide_slice_is_closed_form(self):
        # {(10^6, 0), (0, 10^6)}: a segment of 10^6 + 1 points, counted in
        # two terms rather than walked
        with Budget(1.0):
            assert _slice_count([0, 0], [10**6, 10**6], 10**6) == 10**6 + 1
            assert _slice_count([0] * 4, [10**6] * 4, 2 * 10**6) > 10**17

    def test_count_of_a_slice_near_a_corner_is_fast(self):
        # U(23, 24)'s slice: 24 points next to the top corner of a box of
        # 2^24, counted from the reflected total 1, not over ~2^23 sets J
        with Budget(1.0):
            assert _slice_count([0] * 24, [1] * 24, 23) == 24
        assert _slice_count([0] * 12, [2] * 12, 22) == 12 + comb(12, 2)

    def test_count_of_a_thirty_coordinate_corner_slice_is_fast(self):
        # U(29, 30)'s slice: 30 points in a box of 2^30; without the
        # reflection the count runs for over ten minutes, and the budget
        # stops it at its deadline
        with Budget(1.0):
            assert _slice_count([0] * 30, [1] * 30, 29) == 30

    def test_count_leaves_fixed_coordinates_out(self):
        # 24 coordinates of span 0 around a slice of 9 points
        with Budget(1.0):
            assert _slice_count([0, 0] + [1] * 24, [8, 8] + [1] * 24, 32) == 9
            assert _slice_count([0, 0] + [1] * 24, [8, 8] + [1] * 24, 41) == 0

    def test_walk_is_lazy(self):
        # more than 10^12 points; the first ones come at once
        lo, hi, total = [0] * 6, [10**3] * 6, 3 * 10**3
        pack, weights = slice_packer(6, 12)
        assert _slice_count(lo, hi, total) > 10**12
        with Budget(1.0):
            first = list(islice(_slice_keys(lo, hi, total, weights), 1000))
        assert first == list(map(pack, islice(box_slice_points(lo, hi, total), 1000)))

    def test_walk_is_output_sensitive(self):
        # C(43, 3) = 12341 points in a box of (10^4 + 1)^4, and a segment of
        # 10^4 + 1 points in a box of (10^4 + 1)^2
        with Budget(5.0):
            assert sum(1 for _ in _slice_keys([0] * 4, [10**4] * 4, 40, [1, 2, 4, 8])) == 12341
            assert sum(1 for _ in _slice_keys([0, 0], [10**4] * 2, 10**4, [1, 2])) == 10**4 + 1


class TestEhrhartPoints:
    def test_two_squares_dilations(self):
        vertices = TWO_SQUARES.exponents
        assert ehrhart_points(vertices, 0) == [(0, 0)]
        assert ehrhart_points(vertices, 1) == [(0, 2), (1, 1), (2, 0)]
        assert ehrhart_points(vertices, 2) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]

    def test_segment_count_formula(self):
        # conv{(2,0),(0,2)} dilated by b is a segment with 2b+1 points
        vertices = TWO_SQUARES.exponents
        for b in range(5):
            assert len(ehrhart_points(vertices, b)) == 2 * b + 1

    def test_minkowski_additivity(self):
        for ideal in (TWO_SQUARES, MIXED, basis_monomial_ideal(uniform_matroid(3, 2))):
            vertices = ideal.exponents
            pts1 = set(ehrhart_points(vertices, 1))
            for b in (1, 2):
                ptsb = set(ehrhart_points(vertices, b))
                nxt = set(ehrhart_points(vertices, b + 1))
                for p in ptsb:
                    for q in pts1:
                        assert tuple(x + y for x, y in zip(p, q)) in nxt

    def test_simplex_count(self):
        # unit simplex: dilation b has C(b+n, n) points
        from math import comb

        ideal = MonomialIdeal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        vertices = ideal.exponents
        for b in range(4):
            assert len(ehrhart_points(vertices, b)) == comb(b + 2, 2)


class TestEhrhartEquality:
    def test_two_squares_fails_at_one(self):
        report = IdealSession(TWO_SQUARES).equality(3)
        assert not report.passed
        assert report.first_witness == DilationWitness(1, (1, 1))

    def test_report_json(self):
        doc = IdealSession(TWO_SQUARES).equality(1).to_json()
        assert doc["passed"] is False
        assert doc["first_witness"] == {"b": 1, "point": [1, 1]}
        assert doc["dilations"] == [
            {"b": 1, "points": 3, "failures": [[1, 1]]}
        ]

    def test_passes_on_normal_families(self):
        for m in enumerate_matroids(3, 2):
            report = IdealSession(basis_monomial_ideal(m)).equality(3)
            assert report.passed, m
        for n, d in ((2, 2), (2, 3), (3, 2)):
            report = IdealSession(MonomialIdeal(n, veronese_bases(n, d).vectors)).equality(3)
            assert report.passed, (n, d)

    def test_tetrahedron_fails_at_two_and_three(self):
        report = IdealSession(TETRAHEDRON).equality(3)
        assert [d.failures for d in report.dilations] == [
            (),
            ((1, 1, 1, 1),),
            ((1, 1, 1, 3), (1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1)),
        ]
        assert report.first_witness == DilationWitness(2, (1, 1, 1, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_failures_match_brute_force_sums(self, data):
        n = data.draw(st.integers(1, 3))
        degree = data.draw(st.integers(1, 3))
        degree_slice = [a for a in product(range(degree + 1), repeat=n) if sum(a) == degree]
        vecs = data.draw(st.lists(st.sampled_from(degree_slice), min_size=1, unique=True))
        b_max = data.draw(st.integers(0, 3))
        report = IdealSession(MonomialIdeal(n, tuple(vecs))).equality(b_max)
        assert [d.b for d in report.dilations] == list(range(1, b_max + 1))
        for d in report.dilations:
            pts = ehrhart_points(vecs, d.b)
            sums = {
                tuple(map(sum, zip(*combo)))
                for combo in combinations_with_replacement(vecs, d.b)
            }
            assert d.points == len(pts)
            assert list(d.failures) == [a for a in pts if a not in sums]

    def test_validation(self):
        # the lex-first generator of least degree, then of greatest degree,
        # whatever the bound
        for b_max in (2, -1):
            with pytest.raises(UnequalModuli) as exc:
                IdealSession(MonomialIdeal(2, ((2, 1), (1, 1), (0, 3), (1, 0)))).equality(b_max)
            assert (exc.value.first, exc.value.second) == ((1, 0), (0, 3))
        with pytest.raises(InvalidInstance, match="b_max must be nonnegative"):
            IdealSession(MonomialIdeal(2, ((1, 0),))).equality(-1)


def tuple_sumset_report(vertices, degree, b_max, in_dilation):
    """_equality_report with the sums of exactly b vertices kept as a set of
    tuples and the box-slice points looked up in it as tuples."""
    dilations = []
    sums = {tuple([0] * len(vertices[0]))}
    for b in range(1, b_max + 1):
        sums = {tuple(x + y for x, y in zip(s, v)) for s in sums for v in vertices}
        lo = [b * min(column) for column in zip(*vertices)]
        hi = [b * max(column) for column in zip(*vertices)]
        failures = tuple(
            a
            for a in box_slice_points(lo, hi, b * degree)
            if a not in sums and in_dilation((*a, b))
        )
        dilations.append(DilationCheck(b, len(sums) + len(failures), failures))
    return EqualityReport(degree, b_max, tuple(dilations))


def veronese_type(bound, degree):
    """The vectors of the given degree below bound, coordinatewise."""
    exponents = [a for a in product(*(range(u + 1) for u in bound)) if sum(a) == degree]
    return MonomialIdeal(len(bound), tuple(exponents))


def assert_sumset_matches(ideal, b_max):
    session = IdealSession(ideal)
    degree = session.degree
    for in_dilation in (session.in_dilation, lifted_membership(ideal.exponents).contains):
        args = (ideal.exponents, degree, b_max, in_dilation)
        assert _equality_report(*args) == tuple_sumset_report(*args), ideal


class TestPackedSumset:
    def test_matches_tuple_sumset_on_bundled_instances(self):
        checked = 0
        for name in bundled_names():
            ideal = analysis_ideal(realize(load_bundled(name)).value)
            if len({sum(v) for v in ideal.exponents}) == 1:
                assert_sumset_matches(ideal, 4)
                checked += 1
        assert checked == len(bundled_names()) - 1  # all but ideal_mixed_neither

    @pytest.mark.parametrize("bound", [(2, 2, 2, 2), (2, 2, 2, 3)])
    def test_matches_tuple_sumset_on_veronese_types(self, bound):
        assert_sumset_matches(veronese_type(bound, 6), 4)

    # the workload's ideals: every dilation's sumset fills its box slice
    @pytest.mark.parametrize("bound", [(2, 2, 2, 2), (2, 2, 2, 3)])
    def test_full_slices_are_never_walked(self, monkeypatch, bound):
        def walk(*args):
            raise AssertionError(f"walked the full slice {args}")

        monkeypatch.setattr(semigroup, "_slice_keys", walk)
        assert_sumset_matches(veronese_type(bound, 6), 4)

    # not normal: the slices outside the sumset are walked, failures in lex
    # order; the tetrahedron's first slice is walked but has no failure
    @pytest.mark.parametrize(
        "ideal, failures",
        [
            (TWO_SQUARES, [((1, 1),), ((1, 3), (3, 1)), ((1, 5), (3, 3), (5, 1))]),
            (
                TETRAHEDRON,
                [(), ((1, 1, 1, 1),), ((1, 1, 1, 3), (1, 2, 2, 1), (2, 1, 2, 1), (2, 2, 1, 1))],
            ),
        ],
    )
    def test_slices_with_gaps_are_walked(self, monkeypatch, ideal, failures):
        walked = []

        def walk(lo, hi, total, weights):
            walked.append(total)
            return _slice_keys(lo, hi, total, weights)

        monkeypatch.setattr(semigroup, "_slice_keys", walk)
        report = IdealSession(ideal).equality(3)
        assert [d.failures for d in report.dilations] == failures
        assert walked == [2, 4, 6]
        args = (ideal.exponents, 2, 3, IdealSession(ideal).in_dilation)
        assert _equality_report(*args) == tuple_sumset_report(*args)

    # bP on the box slice of U(n - 1, n) sits next to the box's top corner,
    # and a variable dividing every generator has span 0: either slice is
    # counted in the time it takes to walk
    def test_slice_near_a_corner_is_counted_at_once(self):
        vertices = [[int(i != j) for i in range(24)] for j in range(24)]
        with Budget(1.0):
            report = IdealSession(MonomialIdeal(24, tuple(map(tuple, vertices)))).equality(1)
            # U(7, 8) times 16 fixed variables
            fixed = IdealSession(MonomialIdeal(24, tuple(map(tuple, vertices[:8])))).equality(2)
        assert report.dilations == (DilationCheck(1, 24, ()),)
        assert fixed.dilations == (DilationCheck(1, 8, ()), DilationCheck(2, 36, ()))

    def test_fixed_variables_are_counted_at_once(self):
        vertices = [v + (1,) * 24 for v in TWO_SQUARES.exponents]
        ideal = MonomialIdeal(26, tuple(vertices))
        with Budget(1.0):
            report = IdealSession(ideal).equality(4)
        want = IdealSession(TWO_SQUARES).equality(4)
        assert report.degree == 26
        for d, w in zip(report.dilations, want.dilations, strict=True):
            assert d.points == w.points and d.failures == tuple(a + (d.b,) * 24 for a in w.failures)
        args = (ideal.exponents, 26, 4, IdealSession(ideal).in_dilation)
        assert _equality_report(*args) == tuple_sumset_report(*args)

    def test_zero_bound(self):
        assert IdealSession(TWO_SQUARES).equality(0).dilations == ()


class TestDecomposition:
    def test_two_squares_holds_despite_non_normality(self):
        report = IdealSession(TWO_SQUARES).decomposition
        assert report.holds
        assert report.violations == ()
        kinds = {tuple(s["element"]): s["kind"] for s in report.to_json()["elements"]}
        assert kinds[(1, 0, 0)] == "unit"
        assert kinds[(1, 1, 1)] == "dilation"

    def test_holds_on_basis_ideals(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    report = IdealSession(basis_monomial_ideal(m)).decomposition
                    assert report.holds, m

    def test_rejects_neither_cone(self):
        with pytest.raises(PreconditionFailed):
            IdealSession(MIXED).decomposition

    def test_dilation_claims_verified_independently(self):
        # every claimed height-b element really is a sum of b generator
        # points of the polytope, via plain search over b-tuples
        report = IdealSession(basis_monomial_ideal(uniform_matroid(3, 2))).decomposition
        gens = basis_monomial_ideal(uniform_matroid(3, 2)).exponents
        for status in report.statuses:
            if status.kind != "dilation":
                continue
            a, b = status.element[:-1], status.element[-1]
            found = any(
                tuple(sum(c) for c in zip(*combo)) == a
                for combo in product(gens, repeat=b)
            )
            assert found, status


class TestPipeline:
    def test_two_squares_runs_both_routes(self):
        cert = IdealSession(TWO_SQUARES).certificate
        assert cert.verdict == "not_normal"
        assert cert.witness == (1, 1, 1)
        assert cert.method == "both"

    def test_principal_short_circuit(self):
        cert = IdealSession(PRINCIPAL).certificate
        assert cert.verdict == "normal"
        assert cert.method == "hilbert"

    def test_neither_falls_back_to_direct(self):
        # classification neither: only the direct route applies
        cert = IdealSession(MonomialIdeal(2, ((1, 0), (0, 2)))).certificate
        assert cert.verdict == "normal"
        assert cert.method == "hilbert"

    def test_basis_ideals_run_both(self):
        # single-basis matroids short-circuit (one generator is always
        # normal); everything else must exercise both routes
        for m in enumerate_matroids(4, 2):
            ideal = basis_monomial_ideal(m)
            cert = IdealSession(ideal).certificate
            assert cert.verdict == "normal"
            expected = "hilbert" if ideal.q == 1 else "both"
            assert cert.method == expected, m

    def test_agreement_with_direct(self):
        rng = random.Random(1234)
        for _ in range(30):
            n = rng.randint(1, 3)
            d = rng.randint(1, 3)
            count = rng.randint(1, 5)
            vecs = set()
            tries = 0
            while len(vecs) < count and tries < 60:
                tries += 1
                v = [0] * n
                for _ in range(d):
                    v[rng.randrange(n)] += 1
                if any(v):
                    vecs.add(tuple(v))
            if not vecs:
                continue
            ideal = MonomialIdeal(n, tuple(sorted(vecs)))
            assert (
                IdealSession(ideal).certificate.verdict
                == IdealSession(ideal).normality.verdict
            ), ideal

