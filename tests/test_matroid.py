from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import canonical, labelled_walk
from oracles import first_exchange_failure as tuple_first_failure
from test_acceptance import Budget

from reeskit import matroid

from reeskit.errors import (
    BadRank,
    CapExceeded,
    EmptyFamily,
    EmptyInput,
    InvalidInstance,
    UnequalCardinalities,
    VariableAbsent,
)
from reeskit.matroid import (
    ExchangeFailure,
    Matroid,
    MonomialIdeal,
    basis_monomial_ideal,
    check_basis_exchange,
    enumerate_matroids,
    graphic_matroid,
    matroid_classes,
    uniform_matroid,
)
from reeskit.polymatroid import (
    check_polymatroid_bases,
    divide_by_variable,
    symmetric_exchange_violations,
)


def basis_vectors(m: Matroid):
    """The matroid's bases as a validated family of 0/1 vectors."""
    return check_polymatroid_bases(m.n, basis_monomial_ideal(m).exponents)


def sparse_families():
    """(n, family): up to 8 d-subsets of {1..n}, d <= 3 and n <= 12, so most
    elements lie in no member."""
    def family(n, d):
        return st.lists(st.sets(st.integers(1, n), min_size=d, max_size=d), min_size=1, max_size=8)

    return st.integers(1, 12).flatmap(
        lambda n: st.integers(1, min(n, 3)).flatmap(lambda d: st.tuples(st.just(n), family(n, d)))
    )


class TestCheckBasisExchange:
    def test_uniform_families_pass(self):
        for n in range(1, 5):
            for d in range(1, n + 1):
                fam = tuple(combinations(range(1, n + 1), d))
                got = check_basis_exchange(n, fam)
                assert isinstance(got, Matroid)
                assert got.d == d

    def test_disjoint_pair_fails_with_first_witness(self):
        got = check_basis_exchange(4, ((1, 2), (3, 4)))
        assert isinstance(got, ExchangeFailure)
        assert got.basis_a == (1, 2)
        assert got.basis_b == (3, 4)
        assert got.element == 1

    def test_failure_payload(self):
        got = check_basis_exchange(4, ((1, 2), (3, 4)))
        doc = got.to_json()
        assert doc["error"] == "exchange_failure"
        assert doc["element"] == 1

    def test_two_disjoint_edges_pass(self):
        # {1,3} and {1,4} and {2,3} and {2,4}: partition matroid
        got = check_basis_exchange(4, ((1, 3), (1, 4), (2, 3), (2, 4)))
        assert isinstance(got, Matroid)

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamily):
            check_basis_exchange(3, ())

    def test_unequal_sizes_rejected(self):
        with pytest.raises(UnequalCardinalities):
            check_basis_exchange(3, ((1,), (1, 2)))

    @pytest.mark.parametrize("n, family, error, message", [
        (0, [(1,)], InvalidInstance, "ground set must have at least one element"),
        (3, [], EmptyFamily, "the basis family is empty"),
        (3, [(1, 1)], InvalidInstance, "member (1, 1) repeats an element"),
        (3, [(1, 4)], InvalidInstance, "element 4 outside the ground set 1..3"),
        (3, [(0, 2)], InvalidInstance, "element 0 outside the ground set 1..3"),
        (3, [(2, 1), (3,)], UnequalCardinalities, "members (1, 2) and (3,) have different sizes"),
        (3, [("x",)], ValueError, "invalid literal for int() with base 10: 'x'"),
    ])
    def test_outside_input_keeps_its_errors(self, n, family, error, message):
        # the one validation of a family is check_basis_exchange's own
        with pytest.raises(error) as exc:
            check_basis_exchange(n, family)
        assert type(exc.value) is error and str(exc.value) == message

    def test_result_is_a_valid_matroid_built_once(self, monkeypatch):
        # Matroid's own validation does not run again on a checked family
        got = check_basis_exchange(3, [(3, 2), (1, 2), (2, 3)])
        assert got == Matroid(3, 2, ((1, 2), (2, 3)))

        def refuse(self):
            raise AssertionError("validated twice")

        monkeypatch.setattr(Matroid, "__post_init__", refuse)
        assert check_basis_exchange(3, [(1, 3), (1, 2)]).bases == ((1, 2), (1, 3))

    def test_rank_zero_single_empty_basis(self):
        got = check_basis_exchange(2, ((),))
        assert isinstance(got, Matroid)
        assert got.d == 0

    @pytest.mark.parametrize("family, witness", [
        ([(2, 5), (6, 8)], ((2, 5), (6, 8), 2)),
        ([(4, 7), (4, 9), (7, 9), (8, 9)], ((8, 9), (4, 7), 9)),
        ([(3, 5), (3, 7), (5, 9), (7, 9)], None),
    ])
    def test_elements_in_no_basis(self, family, witness):
        # 1 and every other element outside the bases lie in no field
        got = check_basis_exchange(9, family)
        assert got == set_exchange_oracle(9, family)
        if witness is None:
            assert got == Matroid(9, 2, tuple(family))
        else:
            assert got == ExchangeFailure(*witness)

    @settings(max_examples=150)
    @given(sparse_families())
    def test_sparse_families_match_the_set_oracle(self, case):
        n, family = case
        assert check_basis_exchange(n, family) == set_exchange_oracle(n, family)

    @pytest.mark.parametrize("n", [10**5, 123456789012345678901])
    def test_large_ground_set_is_not_walked(self, n):
        with Budget(1.0):
            assert check_basis_exchange(n, [(2,), (1,)]) == Matroid.unchecked(n, 1, ((1,), (2,)))
            assert check_basis_exchange(n, [(1, 2), (n - 1, n)]) == ExchangeFailure((1, 2), (n - 1, n), 1)


def set_exchange_oracle(n: int, family):
    """The set-arithmetic exchange loop check_basis_exchange once ran: lex
    pairs of bases, smallest leaving element first. Kept as the oracle for
    the indicator-vector walk."""
    fam = sorted({tuple(sorted(b)) for b in family})
    fam_set = set(fam)
    for b1 in fam:
        s1 = set(b1)
        for b2 in fam:
            if b1 == b2:
                continue
            s2 = set(b2)
            arrivals = sorted(s2 - s1)
            for x in sorted(s1 - s2):
                rest = s1 - {x}
                if not any(tuple(sorted(rest | {y})) in fam_set for y in arrivals):
                    return ExchangeFailure(b1, b2, x)
    return Matroid(n, len(fam[0]), tuple(fam))


@pytest.mark.parametrize("n", range(1, 5))
def test_matches_set_exchange_oracle(n):
    # every nonempty family of d-subsets, witness triple included
    for d in range(1, n + 1):
        subsets = list(combinations(range(1, n + 1), d))
        for mask in range(1, 1 << len(subsets)):
            fam = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
            assert check_basis_exchange(n, fam) == set_exchange_oracle(n, fam), fam


class TestSymmetricExchange:
    def test_uniform_witness(self):
        assert symmetric_exchange_violations(basis_vectors(uniform_matroid(4, 2))) == []

    def test_every_matroid_n4_has_witnesses(self):
        # symmetric exchange holds on the whole small corpus
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    assert symmetric_exchange_violations(basis_vectors(m)) == []


class TestUniform:
    def test_counts(self):
        assert len(uniform_matroid(4, 2).bases) == 6
        assert uniform_matroid(1, 1).bases == ((1,),)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            uniform_matroid(3, 0)
        with pytest.raises(BadRank):
            uniform_matroid(3, 4)


class TestGraphic:
    def test_triangle(self):
        m = graphic_matroid(3, ((1, 2), (1, 3), (2, 3)))
        assert m.n == 3 and m.d == 2
        assert len(m.bases) == 3  # every pair of triangle edges is a tree

    def test_k4_spanning_trees(self):
        m = graphic_matroid(4, tuple(combinations(range(1, 5), 2)))
        assert m.n == 6 and m.d == 3
        assert len(m.bases) == 16  # Cayley: 4^2
        # the four triangles are the only 3-subsets that are not trees
        non_bases = set(combinations(range(1, 7), 3)) - set(m.bases)
        assert len(non_bases) == 4

    def test_loops_only_gives_rank_zero(self):
        m = graphic_matroid(2, ((1, 1), (2, 2)))
        assert m.d == 0 and m.bases == ((),)

    def test_disconnected(self):
        # two components: rank = vertices - components = 2
        m = graphic_matroid(4, ((1, 2), (3, 4)))
        assert m.d == 2 and m.bases == ((1, 2),)

    def test_no_edges_rejected(self):
        with pytest.raises(EmptyInput):
            graphic_matroid(3, ())


def filter_enumeration(n: int, d: int) -> list[Matroid]:
    """Every nonempty family of d-subsets through check_basis_exchange: the
    2^C(n,d) filter, an oracle for enumerate_matroids independent of both
    the class orbits and the labelled walk."""
    subsets = list(combinations(range(1, n + 1), d))
    found = []
    for mask in range(1, 1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        got = check_basis_exchange(n, fam)
        if isinstance(got, Matroid):
            found.append(got)
    found.sort(key=lambda m: m.bases)
    return found


class TestEnumerate:
    @pytest.mark.parametrize(
        "n, d", [(n, d) for n in range(1, 6) for d in range(1, n + 1)]
    )
    def test_matches_filter_oracle(self, n, d):
        assert enumerate_matroids(n, d) == filter_enumeration(n, d)

    @pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 7) for d in range(1, n + 1)])
    def test_matches_labelled_walk(self, n, d):
        assert enumerate_matroids(n, d) == labelled_walk(n, d)

    def test_checks_each_matroid_once(self, monkeypatch):
        # the oracle walk prunes every non-matroid before it reaches a leaf,
        # so the exchange check runs once per matroid and never fails
        verdicts = []

        def counting(n, family):
            got = check_basis_exchange(n, family)
            verdicts.append(got)
            return got

        monkeypatch.setattr("oracles.check_basis_exchange", counting)
        found = labelled_walk(5, 2)
        assert len(found) == 171
        assert all(isinstance(v, Matroid) for v in verdicts)
        assert sorted(verdicts, key=lambda m: m.bases) == found

    def test_known_counts(self):
        assert len(enumerate_matroids(1, 1)) == 1
        assert len(enumerate_matroids(2, 1)) == 3
        assert len(enumerate_matroids(3, 2)) == 7

    def test_rank_n_unique(self):
        for n in range(1, 6):
            assert len(enumerate_matroids(n, n)) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_matroids(8, 2)
        with pytest.raises(BadRank):
            enumerate_matroids(3, 4)
        # checked in this order, before matroid_classes, which admits rank 0
        with pytest.raises(InvalidInstance) as got:
            enumerate_matroids(0, 1)
        assert type(got.value) is InvalidInstance
        with pytest.raises(CapExceeded):
            enumerate_matroids(8, 9)
        with pytest.raises(BadRank, match=r"^rank 0 not in 1\.\.3$"):
            enumerate_matroids(3, 0)

    def test_deterministic_order(self):
        first = enumerate_matroids(4, 2)
        second = enumerate_matroids(4, 2)
        assert first == second
        assert first == sorted(first, key=lambda m: m.bases)

    def test_closed_under_relabeling(self):
        # permuting the ground set of any member lands back in the list
        found = {m.bases for m in enumerate_matroids(4, 2)}
        for bases in list(found):
            for perm in permutations(range(1, 5)):
                relabeled = tuple(
                    sorted(tuple(sorted(perm[e - 1] for e in b)) for b in bases)
                )
                assert relabeled in found


def index_mask(n: int, d: int, bases) -> int:
    """bases as a mask over the lex indices of the d-subsets of {1..n}."""
    index = {s: k for k, s in enumerate(combinations(range(1, n + 1), d))}
    return sum(1 << index[b] for b in bases)


def labelled(n: int, d: int) -> list[Matroid]:
    return labelled_walk(n, d) if d else [Matroid(n, 0, ((),))]


SMALL = [(n, d) for n in range(1, 7) for d in range(n + 1)]


class TestMatroidClasses:
    @pytest.fixture(scope="class")
    def orbits(self):
        return dict(zip(SMALL, matroid_classes(SMALL)))

    def test_class_counts_are_oeis_a055545(self, orbits):
        # rank 0 included; the sequence starts 1 at n = 0, the empty matroid
        counts = [sum(len(set(orbits[n, d].values())) for d in range(n + 1))
                  for n in range(1, 7)]
        assert [1, *counts] == [1, 2, 4, 8, 17, 38, 98]
        assert [len(set(orbits[6, d].values())) for d in range(7)] == [1, 6, 23, 38, 23, 6, 1]

    @pytest.mark.parametrize("n, d", SMALL)
    def test_orbits_cover_the_labelled_matroids(self, orbits, n, d):
        # every labelled matroid exactly once, so the orbit sizes add up
        orbit = orbits[n, d]
        assert sorted(orbit) == [m.bases for m in labelled(n, d)]
        assert sum(list(orbit.values()).count(r) for r in set(orbit.values())) == len(orbit)

    @pytest.mark.parametrize("n, d", [(n, d) for n, d in SMALL if n <= 5])
    def test_representatives_are_the_first_labelled_members(self, orbits, n, d):
        # in order, the canonical forms of the labelled list in labelled order,
        # and a member's representative is the first member of its class
        reps = sorted(set(orbits[n, d].values()), key=lambda m: m.bases)
        forms = dict.fromkeys(canonical(m) for m in labelled(n, d))
        assert [(r.n, r.bases) for r in reps] == list(forms)
        first = {}
        for m in labelled(n, d):
            first.setdefault(canonical(m), m)
            assert orbits[n, d][m.bases] == first[canonical(m)]

    def test_seven_elements_dual_ranks_match(self):
        # one rank of n = 7, beside its dual rank: 37 classes of 4,012 each
        two, five = matroid_classes([(7, 2), (7, 5)])
        assert (len(set(two.values())), len(two)) == (37, 4012)
        assert (len(set(five.values())), len(five)) == (37, 4012)

    def test_only_a_new_class_goes_through_the_exchange_check(self, monkeypatch):
        verdicts = []

        def counting(n, family):
            got = check_basis_exchange(n, family)
            verdicts.append(got)
            return got

        monkeypatch.setattr("reeskit.matroid.check_basis_exchange", counting)
        (orbit,) = matroid_classes([(5, 2)])
        # 13 + 7 + 4 + 3 + 3 + 1 + 2 + 1 classes at (5, 2) and the (n, d) below it
        assert len(verdicts) == 34
        assert all(isinstance(v, Matroid) for v in verdicts)
        assert len({canonical(v) for v in verdicts}) == 34
        assert len(set(orbit.values())) == 13

    @pytest.mark.parametrize("n, d", [(5, 2), (6, 3)])
    def test_extension_walks_yield_each_extension_once(self, monkeypatch, n, d):
        # with n not a coloop, the walk from each representative N of rank d on
        # {1..n-1} yields exactly the labelled M whose bases avoiding n are N's
        walks = []
        walk = matroid._walk

        def recording(*args):
            got = walk(*args)
            if len(args) == 4 and len(args[0]) == len(list(combinations(range(n), d))):
                walks.append((~args[3], sorted(got)))  # a walk at (n, d), not a step in one
                return iter(walks[-1][1])
            return got

        monkeypatch.setattr("reeskit.matroid._walk", recording)
        matroid_classes([(n, d)])
        monkeypatch.undo()
        reps = set(matroid_classes([(n - 1, d)])[0].values())
        assert sorted(fixed for fixed, _ in walks) == sorted(
            index_mask(n, d, r.bases) for r in reps)
        every = labelled_walk(n, d)
        for fixed, leaves in walks:
            assert leaves == sorted(
                index_mask(n, d, m.bases) for m in every
                if index_mask(n, d, [b for b in m.bases if n not in b]) == fixed)

    def test_sizes_are_checked(self):
        with pytest.raises(CapExceeded):
            matroid_classes([(3, 1), (8, 2)])
        with pytest.raises(CapExceeded):
            matroid_classes([(9, 2)])
        for n, d in [(0, 0), (3, 4), (3, -1)]:
            with pytest.raises(BadRank):
                matroid_classes([(n, d)])
        assert matroid_classes([]) == []


class TestBasisIdeal:
    def test_indicator_vectors(self):
        m = uniform_matroid(3, 2)
        ideal = basis_monomial_ideal(m)
        assert ideal.n == 3
        assert ideal.exponents == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_roundtrip_supports(self):
        for m in enumerate_matroids(4, 2):
            ideal = basis_monomial_ideal(m)
            supports = {
                tuple(i + 1 for i, e in enumerate(v) if e) for v in ideal.exponents
            }
            assert supports == set(m.bases)


class TestContract:
    """Contracting element e is dividing the basis vectors by x_e."""

    def test_uniform(self):
        c = divide_by_variable(basis_vectors(uniform_matroid(3, 2)), 3)
        assert c.vectors == ((0, 1, 0), (1, 0, 0))

    def test_element_in_no_basis(self):
        with pytest.raises(VariableAbsent):
            divide_by_variable(basis_vectors(Matroid(3, 1, ((1,), (2,)))), 3)

    def test_down_to_rank_zero(self):
        c = divide_by_variable(basis_vectors(uniform_matroid(2, 1)), 1)
        assert c.d == 0

    def test_contract_stays_matroid(self):
        for m in enumerate_matroids(4, 3):
            for e in range(1, 5):
                if any(e in b for b in m.bases):
                    got = divide_by_variable(basis_vectors(m), e)
                    supports = [tuple(i + 1 for i, x in enumerate(v) if x) for v in got.vectors]
                    assert isinstance(check_basis_exchange(4, supports), Matroid)


class TestMonomialIdeal:
    def test_sorts_and_rejects_duplicates(self):
        ideal = MonomialIdeal(2, ((2, 0), (0, 2)))
        assert ideal.exponents == ((0, 2), (2, 0))
        assert ideal.q == 2
        with pytest.raises(InvalidInstance):
            MonomialIdeal(2, ((0, 2), (2, 0), (0, 2)))

    def test_rejects_zero_vector(self):
        with pytest.raises(Exception):
            MonomialIdeal(2, ((0, 0),))

    def test_json(self):
        doc = MonomialIdeal(2, ((1, 0),)).to_json()
        assert doc == {"n": 2, "exponents": [[1, 0]]}


@settings(max_examples=40)
@given(st.integers(2, 5), st.data())
def test_random_subfamilies_classified_consistently(n, data):
    # validator's verdict agrees with a direct restatement of the axiom
    d = data.draw(st.integers(1, n))
    all_bases = list(combinations(range(1, n + 1), d))
    fam = tuple(
        sorted(
            data.draw(
                st.sets(st.sampled_from(all_bases), min_size=1, max_size=len(all_bases))
            )
        )
    )
    got = check_basis_exchange(n, fam)
    family = set(map(frozenset, fam))
    holds = all(
        any(frozenset(a - {x}) | {y} in family for y in b - a)
        for a in family
        for b in family
        for x in a - b
    )
    assert isinstance(got, Matroid) == holds


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_packed_check_matches_indicator_walk(n, data):
    # rank 0 included; the family is given in any order and may repeat a basis
    d = data.draw(st.integers(0, n))
    subsets = list(combinations(range(1, n + 1), d))
    fam = data.draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=14))
    got = check_basis_exchange(n, fam)
    bases = sorted(set(fam))
    bad = tuple_first_failure([tuple(int(e in b) for e in range(1, n + 1)) for b in bases])
    if bad is None:
        assert got == Matroid(n, d, tuple(bases))
    else:
        a, c, x = bad
        support = [tuple(e for e, bit in enumerate(v, 1) if bit) for v in (a, c)]
        assert got == ExchangeFailure(*support, x)
