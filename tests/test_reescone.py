from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ConeMembership, kernel_basis, pivot_columns

from reeskit import reescone
from reeskit.errors import CapExceeded, DegenerateCone, IntegrityError
from reeskit.jsonio import analysis_ideal, bundled_names, load_bundled, realize
from reeskit.exactlat import dot, parity_mask, primitive, rank, rank_mod_2
from reeskit.matroid import (
    MonomialIdeal,
    basis_monomial_ideal,
    enumerate_matroids,
    graphic_matroid,
    uniform_matroid,
)
from reeskit.reescone import (
    ORACLE_CAP,
    FacetSystem,
    ReesCone,
    Verdict,
    basis_rees_cone,
    classify,
    facet_normals,
    facet_normals_oracle,
    rees_generators,
    verify_basis_facet_shape,
)

# frozen from the subset-minor oracle run before the incremental engine
# was trusted; see the module tests below that re-derive them
PRINCIPAL = MonomialIdeal(1, ((1,),))
TWO_SQUARES = MonomialIdeal(2, ((2, 0), (0, 2)))
MIXED = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))


def random_ideal(rng: random.Random) -> MonomialIdeal:
    n = rng.randint(1, 4)
    q = min(rng.randint(1, 6), 5 ** n - 1)
    vecs = set()
    while len(vecs) < q:
        v = tuple(rng.randint(0, 4) for _ in range(n))
        if any(v):
            vecs.add(v)
    return MonomialIdeal(n, tuple(sorted(vecs)))


class TestFrozenFacetSystems:
    def test_principal_n1(self):
        fs = facet_normals(rees_generators(PRINCIPAL))
        assert fs.unit_normals == (2,)
        assert fs.ell_normals == ((1, -1),)

    def test_two_squares(self):
        fs = facet_normals(rees_generators(TWO_SQUARES))
        assert fs.unit_normals == (1, 2, 3)
        assert fs.ell_normals == ((1, 1, -2),)

    def test_mixed(self):
        fs = facet_normals(rees_generators(MIXED))
        assert fs.unit_normals == (1, 2, 3)
        assert fs.ell_normals == ((1, 2, -3), (2, 1, -3))

    def test_u12_basis_cone(self):
        fs = facet_normals(basis_rees_cone(uniform_matroid(2, 1)))
        assert fs.unit_normals == (1, 2, 3)
        assert fs.ell_normals == ((1, 1, -1),)

    def test_u23_basis_cone(self):
        fs = facet_normals(basis_rees_cone(uniform_matroid(3, 2)))
        assert fs.unit_normals == (1, 2, 3, 4)
        assert fs.ell_normals == (
            (0, 1, 1, -1),
            (1, 0, 1, -1),
            (1, 1, 0, -1),
            (1, 1, 1, -2),
        )


class TestOracleAgreement:
    def test_named_examples(self):
        for ideal in (PRINCIPAL, TWO_SQUARES, MIXED):
            cone = rees_generators(ideal)
            assert facet_normals(cone) == facet_normals_oracle(cone)

    def test_basis_cones_n4(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    cone = basis_rees_cone(m)
                    assert facet_normals(cone) == facet_normals_oracle(cone), m

    def test_random_ideals(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            ideal = random_ideal(rng)
            cone = rees_generators(ideal)
            assert facet_normals(cone) == facet_normals_oracle(cone), ideal

    def test_oracle_cap(self):
        k4 = graphic_matroid(4, tuple(combinations(range(1, 5), 2)))
        cone = basis_rees_cone(k4)  # 22 generators
        with pytest.raises(CapExceeded):
            facet_normals_oracle(cone)


def rank_adjacency_dd(generators, dim: int) -> list[tuple[int, ...]]:
    """Reference double description with the algebraic adjacency test.

    Extreme rays of {y : <g, y> >= 0 for every generator g}. Seed rays come
    from kernels of dim-1 seed rows, not from an adjugate, and a (pos, neg)
    pair is adjacent iff the processed rows tight at both have rank dim-2.
    Slower than the engine, independent of its combinatorial test, and
    free of any generator cap.
    """
    rows = list(dict.fromkeys(tuple(g) for g in generators))
    seed = []
    for a in rows:
        if rank(seed + [a]) > len(seed):
            seed.append(a)
    assert len(seed) == dim
    rays = []
    for j, a in enumerate(seed):
        (base,) = kernel_basis(seed[:j] + seed[j + 1:])
        rays.append(base if dot(a, base) > 0 else tuple(-x for x in base))
    processed = list(seed)
    for a in rows:
        if a in seed:
            continue
        vals = [dot(a, r) for r in rays]
        kept = [r for r, v in zip(rays, vals) if v >= 0]
        for p, vp in zip(rays, vals):
            for q, vq in zip(rays, vals):
                if vp <= 0 or vq >= 0:
                    continue
                common = [b for b in processed if dot(b, p) == 0 == dot(b, q)]
                if rank(common) == dim - 2:
                    kept.append(
                        tuple(primitive(vp * y - vq * x for x, y in zip(p, q)))
                    )
        rays = kept
        processed.append(a)
    return sorted(set(rays))


def wheel_w4():
    """Graphic matroid of K5 minus the disjoint edges 12 and 34."""
    edges = tuple(e for e in combinations(range(1, 6), 2) if e not in ((1, 2), (3, 4)))
    return graphic_matroid(5, edges)


def bundled_cone(name: str) -> ReesCone:
    return rees_generators(analysis_ideal(realize(load_bundled(name))))


def large_random_ideal(rng: random.Random) -> MonomialIdeal:
    n = rng.randint(2, 4)
    q = rng.randint(13, 30)
    vecs = set()
    while len(vecs) < q:
        v = tuple(rng.randint(0, 5) for _ in range(n))
        if any(v):
            vecs.add(v)
    return MonomialIdeal(n, tuple(sorted(vecs)))


class TestReferenceAboveOracleCap:
    """Above ORACLE_CAP the subset-minor oracle is out of reach; the
    rank-adjacency reference DD still cross-checks the engine there."""

    def assert_matches_reference(self, cone: ReesCone):
        fs = facet_normals(cone)
        assert sorted(fs.normals()) == rank_adjacency_dd(cone.generators, cone.dim)

    def test_graphic_k4(self):
        cone = bundled_cone("graphic_k4")
        assert len(cone.generators) > 12
        self.assert_matches_reference(cone)

    def test_veronese_3_4(self):
        cone = bundled_cone("veronese_3_4")
        assert len(cone.generators) > 12
        self.assert_matches_reference(cone)

    def test_wheel_w4(self):
        cone = basis_rees_cone(wheel_w4())
        assert len(cone.generators) == 8 + 45
        self.assert_matches_reference(cone)

    def test_random_ideals_13_to_30_generators(self):
        rng = random.Random(0xDD13)
        for _ in range(30):
            ideal = large_random_ideal(rng)
            self.assert_matches_reference(rees_generators(ideal))


def inequality_systems():
    """(dim, rows): 1..10 rows in Z^dim, dim <= 4, entries in -2..2, repeats
    and zero rows included."""
    def rows(dim):
        return st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=10)

    return st.integers(1, 4).flatmap(lambda dim: st.tuples(st.just(dim), rows(dim)))


class TestSeed:
    @settings(max_examples=150)
    @given(inequality_systems())
    def test_seed_is_the_first_independent_rows(self, case):
        """The DD seed is the distinct rows, in order, that raise the rank
        (by the forward-elimination oracle) of those kept before them."""
        dim, rows = case
        want = []
        for a in dict.fromkeys(rows):
            if len(pivot_columns(want + [a])) > len(want):
                want.append(a)
        seeds = []

        def spy(m):  # record the seed, then stop before the cuts
            seeds.append([tuple(r) for r in m])
            raise LookupError("seed taken")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reescone, "adjugate", spy)
            if len(want) < dim:
                with pytest.raises(DegenerateCone, match=f"rows span rank {len(want)} < {dim}"):
                    reescone._dual_extreme_rays(rows, dim)
                return
            with pytest.raises(LookupError, match="seed taken"):
                reescone._dual_extreme_rays(rows, dim)
        assert seeds == [want]


class TestEmptyDual:
    @pytest.mark.parametrize("rows, dim", [
        ([(1,), (-1,), (0,)], 1),  # the second row empties the cone, the third finds no ray
        ([(1, 0), (0, 1), (-1, -1)], 2),  # the last row empties the cone
    ])
    def test_a_cone_cut_to_the_origin_has_no_rays(self, rows, dim):
        assert reescone._dual_extreme_rays(rows, dim) == []

    @settings(max_examples=150)
    @given(inequality_systems())
    def test_every_ray_meets_every_row(self, case):
        """Full-rank systems, those whose cone is {0} included, give
        distinct primitive rays on the nonnegative side of every row."""
        dim, rows = case
        try:
            rays = reescone._dual_extreme_rays(rows, dim)
        except DegenerateCone:
            return
        assert len(set(rays)) == len(rays)
        assert all(primitive(r) == r and dot(a, r) >= 0 for r in rays for a in rows)


class TestDimensionChecks:
    """Facet values are sums of products, which stop at the shorter vector,
    so a row, normal or generator of the wrong length is a ValueError, not
    a silently truncated value."""

    def test_a_long_row_past_the_seed(self):
        with pytest.raises(ValueError, match="dimension mismatch: 4 vs 3"):
            reescone._dual_extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1, 1)], 3)

    def test_a_short_row_leaves_the_rows_degenerate(self):
        with pytest.raises(DegenerateCone, match="rows span rank 2 < 3"):
            reescone._dual_extreme_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1)], 3)

    def test_a_short_normal(self):
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
            reescone._facet_system(3, [(1, 0, 0), (0, 1)], gens)

    def test_a_short_generator(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            reescone._facet_system(3, [(1, 0, 0)], [(1, 0, 0), (0, 1)])


class TestFacetSystemProperties:
    def test_normals_are_valid_and_tight(self):
        # each normal is nonnegative on all generators and tight on a
        # spanning-but-one subset; checked through public data only
        rng = random.Random(7)
        for _ in range(25):
            ideal = random_ideal(rng)
            cone = rees_generators(ideal)
            fs = facet_normals(cone)
            for g in fs.normals():
                vals = [dot(g, v) for v in cone.generators]
                assert all(x >= 0 for x in vals)
                tight = tuple(
                    v for v, x in zip(cone.generators, vals) if x == 0
                )
                assert rank(tight) == cone.dim - 1

    def test_irredundant(self):
        # dropping any single normal admits a ray that the dropped one cuts
        for ideal in (PRINCIPAL, TWO_SQUARES, MIXED):
            cone = rees_generators(ideal)
            fs = facet_normals(cone)
            normals = fs.normals()
            for g in normals:
                others = tuple(h for h in normals if h != g)
                assert _relaxation_escapes(others, g, cone.dim), (ideal, g)

    def test_contains(self):
        fs = facet_normals(rees_generators(TWO_SQUARES))
        assert fs.contains((2, 0, 1))
        assert fs.contains((1, 1, 1))  # cone point, not semigroup point
        assert not fs.contains((1, 0, 1))
        assert not fs.contains((-1, 0, 0))

    def test_json_shape(self):
        doc = facet_normals(rees_generators(TWO_SQUARES)).to_json()
        assert doc == {
            "unit_normals": [1, 2, 3],
            "ell_normals": [[1, 1, -2]],
        }


def _relaxation_escapes(normals, dropped, dim: int) -> bool:
    """True when the cone cut by `normals` has a ray with <dropped, ray> < 0.

    Brute candidate rays: kernels of (dim-1)-subsets, both orientations.
    """
    for rows in combinations(normals, dim - 1):
        if rank(rows) != dim - 1:
            continue
        for base in kernel_basis(rows):
            for ray in (base, tuple(-x for x in base)):
                if all(dot(h, ray) >= 0 for h in normals) and dot(dropped, ray) < 0:
                    return True
    return False



def parity_rank(rows) -> int:
    return rank_mod_2(map(parity_mask, rows))[0]


class TestRankCertificate:
    """_facet_system certifies a tight set of rank dim - 1 by its rank mod 2,
    which is never above the rank over Q, and falls back to the exact rank()
    below dim - 1."""

    # the 3-cycle: rank 3 over Q but 2 mod 2, as the rows sum to 0 mod 2
    CYCLE = ((1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0))

    def recorded_ranks(self, monkeypatch) -> list:
        calls = []

        def recording(rows):
            calls.append(tuple(rows))
            return rank(calls[-1])

        monkeypatch.setattr(reescone, "rank", recording)
        return calls

    def test_low_rank_mod_2_falls_back_to_the_exact_rank(self, monkeypatch):
        assert parity_rank(self.CYCLE) == 2 and rank(self.CYCLE) == 3
        calls = self.recorded_ranks(monkeypatch)
        fs = reescone._facet_system(4, [(0, 0, 0, 1)], (*self.CYCLE, (0, 0, 0, 1)))
        assert fs.unit_normals == (4,)
        assert calls == [self.CYCLE]

    def test_full_rank_mod_2_needs_no_exact_rank(self, monkeypatch):
        calls = self.recorded_ranks(monkeypatch)
        gens = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        fs = reescone._facet_system(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], gens)
        assert fs.unit_normals == (1, 2, 3)
        assert calls == []

    def test_rank_deficient_tight_set_is_an_integrity_error(self, monkeypatch):
        """The sum of two facet normals that meet in a ridge is nonnegative
        on the cone and tight on the ridge alone, whose rank is dim - 2 both
        mod 2 and over Q."""
        cone = rees_generators(analysis_ideal(realize(load_bundled("graphic_k4"))))
        normals = reescone._dual_extreme_rays(cone.generators, cone.dim)

        def tight(b):
            return [g for g in cone.generators if dot(b, g) == 0]

        ridge = next(
            primitive(x + y for x, y in zip(b, c))
            for b, c in combinations(normals, 2)
            if rank([g for g in tight(b) if g in tight(c)]) == cone.dim - 2
        )
        assert parity_rank(tight(ridge)) == rank(tight(ridge)) == cone.dim - 2
        monkeypatch.setattr(reescone, "_dual_extreme_rays", lambda gens, dim: [*normals, ridge])
        with pytest.raises(IntegrityError, match="not tight on a rank"):
            facet_normals(cone)


class TestClassify:
    def test_three_verdicts(self):
        assert classify(facet_normals(rees_generators(PRINCIPAL))).verdict is Verdict.IDEAL
        got = classify(facet_normals(rees_generators(TWO_SQUARES)))
        assert got.verdict is Verdict.QUASI_IDEAL
        assert got.offending_normal is None
        got = classify(facet_normals(rees_generators(MIXED)))
        assert got.verdict is Verdict.NEITHER
        assert got.offending_normal == (1, 2, -3)

    def test_json(self):
        doc = classify(facet_normals(rees_generators(MIXED))).to_json()
        assert doc == {"verdict": "neither", "offending_normal": [1, 2, -3]}

    def test_verdict_values(self):
        assert Verdict.IDEAL.value == "ideal"
        assert Verdict.QUASI_IDEAL.value == "quasi_ideal"
        assert Verdict.NEITHER.value == "neither"


class TestRankOne:
    def test_n1_special_case(self):
        # cone of (1,0) and (1,1): e_1 is implied by the other two facets
        fs = facet_normals(basis_rees_cone(uniform_matroid(1, 1)))
        assert fs == FacetSystem(2, (2,), ((1, -1),))

    def test_closed_form_matches_engine(self):
        # U(n,1) for n >= 2: every unit plus (1,..,1,-1)
        for n in range(2, 7):
            expected = FacetSystem(n + 1, tuple(range(1, n + 2)), ((1,) * n + (-1,),))
            assert facet_normals(basis_rees_cone(uniform_matroid(n, 1))) == expected


class TestFacetShape:
    def test_holds_on_small_corpus(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    assert verify_basis_facet_shape(m, facet_normals(basis_rees_cone(m))) == (), m

    def test_returns_the_normals_outside_the_shape(self):
        # d = 1: a leading 2, and a last entry below -d, are each outside
        ells = ((0, 1, -1), (1, 1, -2), (2, 0, -1))
        got = verify_basis_facet_shape(uniform_matroid(2, 1), FacetSystem(3, (1, 2, 3), ells))
        assert got == ((1, 1, -2), (2, 0, -1))
        assert verify_basis_facet_shape(uniform_matroid(2, 2), FacetSystem(3, (), ells[:2])) == ()


def rank_extreme_generators(cone, fs):
    """Primitive generators lying on a rank-(dim-1) set of facets: one rank
    per generator, the oracle for FacetSystem.rays."""
    normals = fs.normals()
    out = []
    for p in dict.fromkeys(tuple(primitive(g)) for g in cone.generators):
        if rank([b for b in normals if dot(b, p) == 0]) == cone.dim - 1:
            out.append(p)
    return tuple(out)


def pulling_key(r, normals):
    """The pulling order on rays: coordinate units first, then the rays on
    more facets, then lex."""
    unit = r.count(0) == len(r) - 1 and 1 in r
    return not unit, -sum(dot(b, r) == 0 for b in normals), r


def assert_rays_and_masks(cone, fs):
    """fs.rays are the rank oracle's extreme generators in the pulling order,
    and fs.masks[j] has bit i set iff the j-th normal is tight on fs.rays[i]."""
    normals = fs.normals()
    want = sorted(rank_extreme_generators(cone, fs), key=lambda r: pulling_key(r, normals))
    assert fs.rays == tuple(want), cone
    assert len(fs.masks) == len(normals)
    for b, mask in zip(normals, fs.masks):
        assert mask == sum(1 << i for i, r in enumerate(fs.rays) if dot(b, r) == 0), (b, cone)


def assert_extreme_matches_rank(ideal):
    """assert_rays_and_masks on the facet systems of both routes, the
    oracle's within its cap."""
    cone = rees_generators(ideal)
    assert_rays_and_masks(cone, facet_normals(cone))
    if len(cone.generators) <= ORACLE_CAP:
        assert_rays_and_masks(cone, facet_normals_oracle(cone))


@st.composite
def ideals_with_inner_generators(draw):
    """Small ideals plus v + w for a generator v and a nonzero w: (v + w, 1)
    is (v, 1) plus units, so it spans no extreme ray of the Rees cone."""
    n = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 3)] * n)
    vecs = draw(st.lists(vec.filter(any), min_size=1, max_size=5, unique=True))
    v = draw(st.sampled_from(vecs))
    w = draw(vec.filter(any))
    inner = tuple(x + y for x, y in zip(v, w))
    return MonomialIdeal(n, tuple(sorted(set(vecs) | {inner})))


class TestExtremeGenerators:
    def test_matches_rank_oracle_on_bundled_instances(self):
        for name in bundled_names():
            assert_extreme_matches_rank(analysis_ideal(realize(load_bundled(name))))

    def test_matches_rank_oracle_on_small_matroids(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    assert_extreme_matches_rank(basis_monomial_ideal(m))

    @settings(max_examples=80, deadline=None)
    @given(ideals_with_inner_generators())
    def test_matches_rank_oracle_with_inner_generators(self, ideal):
        cone = rees_generators(ideal)
        assert len(facet_normals(cone).rays) < len(cone.generators)
        assert_extreme_matches_rank(ideal)

    def test_pulling_order_without_repeats(self):
        # (1, 1, 1) is the midpoint of (2, 0, 1) and (0, 2, 1); repeats go;
        # the units come first, and (0, 2, 1) precedes (2, 0, 1) by lex alone
        cone = ReesCone(2, ((0, 1, 0), (1, 0, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1), (2, 0, 1)))
        fs = facet_normals(cone)
        assert fs.rays == ((0, 1, 0), (1, 0, 0), (0, 2, 1), (2, 0, 1))
        assert facet_normals_oracle(cone).rays == fs.rays

    def test_roundtrip(self):
        rng = random.Random(99)
        for _ in range(20):
            ideal = random_ideal(rng)
            cone = rees_generators(ideal)
            fs = facet_normals(cone)
            assert set(fs.rays) <= set(cone.generators)
            rebuilt = facet_normals(ReesCone(cone.n, fs.rays))
            assert rebuilt == fs and rebuilt.rays == fs.rays


def assert_slack_is_the_value_matrix(fs):
    """fs.slack holds, for each extreme ray in rays order, its value on
    every normal in normals() order, and nothing else."""
    assert len(fs.slack) == len(fs.rays)
    for i, r in enumerate(fs.rays):
        assert fs.slack[i] == tuple(dot(b, r) for b in fs.normals()), (r, fs)


class TestSlack:
    """The facet system keeps the facet-ray values its checks computed."""

    def test_bundled_instances(self):
        for name in bundled_names():
            cone = bundled_cone(name)
            fs = facet_normals(cone)
            assert_slack_is_the_value_matrix(fs)
            if len(cone.generators) <= ORACLE_CAP:
                oracle = facet_normals_oracle(cone)
                assert fs == oracle, name
                assert oracle.slack == fs.slack, name

    @settings(max_examples=80, deadline=None)
    @given(ideals_with_inner_generators())
    def test_matches_dot_products_and_oracle(self, ideal):
        cone = rees_generators(ideal)
        fs = facet_normals(cone)
        assert_slack_is_the_value_matrix(fs)
        oracle = facet_normals_oracle(cone, cap=len(cone.generators))
        assert fs == oracle
        assert oracle.slack == fs.slack

    def test_repeated_and_non_primitive_generators(self):
        # (2, 0, 0) is read as its primitive form (1, 0, 0), a ray kept once
        cone = ReesCone(2, ((2, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 1, 1)))
        fs = facet_normals(cone)
        assert_slack_is_the_value_matrix(fs)
        assert fs.rays == ((0, 1, 0), (1, 0, 0), (1, 1, 1))

    def test_not_part_of_equality(self):
        fs = facet_normals(rees_generators(TWO_SQUARES))
        assert fs.slack and FacetSystem(fs.dim, fs.unit_normals, fs.ell_normals).slack == ()
        assert fs == FacetSystem(fs.dim, fs.unit_normals, fs.ell_normals)
        assert hash(fs) == hash(FacetSystem(fs.dim, fs.unit_normals, fs.ell_normals))
        assert fs.normals() is fs.normals()


class TestReesConeValidation:
    def test_generator_shape(self):
        with pytest.raises(DegenerateCone):
            ReesCone(2, ((1, 0),))  # wrong dimension
        with pytest.raises(DegenerateCone):
            ReesCone(1, ((1, 2),))  # last coordinate must be 0 or 1
        with pytest.raises(DegenerateCone):
            ReesCone(1, ((-1, 0),))
        with pytest.raises(DegenerateCone, match="ambient dimension must be at least 2"):
            ReesCone(0, ((1,),))
        with pytest.raises(DegenerateCone, match="the zero vector is not a generator"):
            ReesCone(1, ((0, 0),))

    def test_degenerate(self):
        cone = ReesCone(1, ((1, 0),))
        with pytest.raises(DegenerateCone):
            facet_normals(cone)
        with pytest.raises(DegenerateCone):
            facet_normals_oracle(cone)


class TestConeMembership:
    def test_full_dimensional(self):
        member = ConeMembership(((1, 0), (1, 1)))
        assert member.contains((2, 1))
        assert member.contains((1, 0))
        assert not member.contains((0, 1))
        assert not member.contains((-1, 0))

    def test_lower_dimensional(self):
        member = ConeMembership(((1, 1),))
        assert member.contains((3, 3))
        assert member.contains((0, 0))
        assert not member.contains((1, 2))
        assert not member.contains((-1, -1))

    def test_plane_in_space(self):
        member = ConeMembership(((1, 0, 0), (0, 1, 0)))
        assert member.contains((2, 3, 0))
        assert not member.contains((2, 3, 1))
        assert not member.contains((-1, 0, 0))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_facets_are_permutation_equivariant(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    ideal = random_ideal(rng)
    n = ideal.n
    perm = data.draw(st.permutations(range(n)))
    moved = MonomialIdeal(
        n, tuple(sorted(tuple(v[perm[i]] for i in range(n)) for v in ideal.exponents))
    )
    fs = facet_normals(rees_generators(ideal))
    fs_moved = facet_normals(rees_generators(moved))

    def push(normal):
        # inverse image: entry i of the moved normal reads coordinate perm[i]
        return tuple(normal[perm[i]] for i in range(n)) + (normal[n],)

    expected_ell = tuple(sorted(push(g) for g in fs.ell_normals))
    inv = {perm[i] + 1: i + 1 for i in range(n)}
    expected_units = tuple(
        sorted(inv.get(i, n + 1) for i in fs.unit_normals)
    )
    assert fs_moved.ell_normals == expected_ell
    assert fs_moved.unit_normals == expected_units
