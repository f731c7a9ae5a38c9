from __future__ import annotations

import tracemalloc
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import exchange_failures as tuple_exchange_failures
from oracles import first_exchange_failure as tuple_first_failure
from oracles import symmetric_exchange_violations as tuple_symmetric_violations
from test_acceptance import Budget

from reeskit import polymatroid
from reeskit.errors import (
    EmptyInput,
    InvalidInstance,
    UnequalModuli,
    VariableAbsent,
)
from reeskit.matroid import basis_monomial_ideal, enumerate_matroids
from reeskit.polymatroid import (
    ExchangeFailure,
    PolymatroidBases,
    _exchange_failures,
    check_polymatroid_bases,
    divide_by_variable,
    first_exchange_failure,
    symmetric_exchange_violations,
    veronese_bases,
)

TRANSVERSAL = ((0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))


class TestCheckBases:
    def test_transversal_example(self):
        got = check_polymatroid_bases(3, TRANSVERSAL)
        assert isinstance(got, PolymatroidBases)
        assert got.d == 2
        assert got.vectors == TRANSVERSAL

    def test_single_vector(self):
        got = check_polymatroid_bases(2, ((3, 1),))
        assert isinstance(got, PolymatroidBases)

    def test_gap_fails(self):
        # (2,0) and (0,2) without (1,1): no one-step move from (2,0) works
        got = check_polymatroid_bases(2, ((2, 0), (0, 2)))
        assert isinstance(got, ExchangeFailure)
        assert got.vec_a == (0, 2)
        assert got.vec_b == (2, 0)
        assert got.index == 2

    def test_unequal_moduli_rejected(self):
        with pytest.raises(UnequalModuli):
            check_polymatroid_bases(2, ((1, 0), (1, 1)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            check_polymatroid_bases(2, ())

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidInstance):
            check_polymatroid_bases(2, ((1, -1),))

    def test_matroid_indicators_validate(self):
        # every matroid's indicator vectors are polymatroid bases
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    ideal = basis_monomial_ideal(m)
                    got = check_polymatroid_bases(n, ideal.exponents)
                    assert isinstance(got, PolymatroidBases), m
                    assert got.d == d

    def test_failure_json(self):
        doc = check_polymatroid_bases(2, ((2, 0), (0, 2))).to_json()
        assert doc["error"] == "exchange_failure"
        assert doc["index"] == 2


class TestVeronese:
    def test_counts(self):
        # all degree-d monomials in n variables
        for n in range(1, 4):
            for d in range(1, 5):
                v = veronese_bases(n, d)
                assert len(v.vectors) == comb(n + d - 1, d)
                assert v.d == d

    def test_bad_args(self):
        with pytest.raises(InvalidInstance):
            veronese_bases(0, 2)
        with pytest.raises(InvalidInstance):
            veronese_bases(2, 0)


class TestDivide:
    def test_veronese_drops_degree(self):
        v = veronese_bases(2, 3)
        out = divide_by_variable(v, 1)
        assert out.d == 2
        assert out.vectors == veronese_bases(2, 2).vectors

    def test_transversal(self):
        got = check_polymatroid_bases(3, TRANSVERSAL)
        out = divide_by_variable(got, 1)
        assert out.vectors == ((0, 0, 1), (0, 1, 0), (1, 0, 0))

    def test_absent_variable(self):
        got = check_polymatroid_bases(2, ((0, 2),))
        with pytest.raises(VariableAbsent):
            divide_by_variable(got, 1)

    def test_coordinate_range(self):
        got = check_polymatroid_bases(2, ((1, 1),))
        with pytest.raises(InvalidInstance):
            divide_by_variable(got, 3)

    def test_failure_is_returned(self, monkeypatch):
        # what would refute L3.10 is the witness check_polymatroid_bases gives
        v, witness = veronese_bases(2, 3), ExchangeFailure((0, 2), (2, 0), 1)
        monkeypatch.setattr(polymatroid, "check_polymatroid_bases", lambda n, vecs: witness)
        assert divide_by_variable(v, 1) is witness

    def test_closure_over_small_corpus(self):
        # dividing never breaks the exchange property
        for n in range(1, 5):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    got = check_polymatroid_bases(
                        n, basis_monomial_ideal(m).exponents
                    )
                    for i in range(1, n + 1):
                        if all(v[i - 1] == 0 for v in got.vectors):
                            continue
                        out = divide_by_variable(got, i)
                        assert isinstance(out, PolymatroidBases)


class TestSymmetricExchange:
    def test_no_violations_on_matroid_indicators(self):
        for m in enumerate_matroids(4, 2):
            got = check_polymatroid_bases(4, basis_monomial_ideal(m).exponents)
            assert symmetric_exchange_violations(got) == []

    def test_no_violations_on_veronese(self):
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            assert symmetric_exchange_violations(veronese_bases(n, d)) == []

    def test_no_violations_on_transversal(self):
        got = check_polymatroid_bases(3, TRANSVERSAL)
        assert symmetric_exchange_violations(got) == []

    def test_violations_on_a_gap(self):
        # built by hand: (1,1) is missing, so neither move is possible
        f = PolymatroidBases(2, 2, ((0, 2), (2, 0)))
        assert symmetric_exchange_violations(f) == [
            ((0, 2), (2, 0), 2),
            ((2, 0), (0, 2), 1),
        ]


class TestFirstExchangeFailure:
    def test_walks_in_the_order_given(self):
        assert first_exchange_failure([(0, 2), (2, 0)]) == ((0, 2), (2, 0), 2)
        assert first_exchange_failure([(2, 0), (0, 2)]) == ((2, 0), (0, 2), 1)

    def test_none_on_bases(self):
        assert first_exchange_failure(list(TRANSVERSAL)) is None
        assert first_exchange_failure(list(veronese_bases(3, 3).vectors)) is None


@settings(max_examples=60)
@given(st.integers(2, 3), st.integers(1, 3), st.data())
def test_random_families_match_axiom_restatement(n, d, data):
    compositions = []

    def fill(prefix, left):
        if len(prefix) == n - 1:
            compositions.append(tuple(prefix) + (left,))
            return
        for k in range(left + 1):
            fill(prefix + [k], left - k)

    fill([], d)
    fam = tuple(
        sorted(
            data.draw(
                st.sets(
                    st.sampled_from(compositions), min_size=1, max_size=len(compositions)
                )
            )
        )
    )
    got = check_polymatroid_bases(n, fam)
    fset = set(fam)
    # restated: for every a != c and coordinate with a above c, some one-step
    # move toward c stays in the family
    holds = True
    for a in fam:
        for c in fam:
            if a == c:
                continue
            for i in range(n):
                if a[i] <= c[i]:
                    continue
                moved_ok = any(
                    a[j] < c[j]
                    and tuple(x - (k == i) + (k == j) for k, x in enumerate(a)) in fset
                    for j in range(n)
                )
                if not moved_ok:
                    holds = False
    assert isinstance(got, PolymatroidBases) == holds


@st.composite
def walk_families(draw):
    """(n, vectors) in a shuffled order, all of length n. Either any vectors
    with entries up to 0, 1, 3 or 7 (field widths 1 to 4), duplicates and
    zero vectors included, or a box-cut base set of one modulus, which
    passes exchange, possibly with one vector dropped."""
    n = draw(st.integers(0, 6))
    top = draw(st.sampled_from((0, 1, 3, 7)))
    if draw(st.booleans()):
        vector = st.tuples(*[st.integers(0, top)] * n)
        family = draw(st.lists(vector, min_size=1, max_size=12))
    else:
        n = min(n, 4)
        d = draw(st.integers(0, 3))
        family = [v for v in product(range(top + 1), repeat=n) if sum(v) == d] or [(0,) * n]
        if len(family) > 1 and draw(st.booleans()):
            family.pop(draw(st.integers(0, len(family) - 1)))
    return n, draw(st.permutations(family))


@settings(max_examples=300, deadline=None)
@given(walk_families())
def test_packed_walks_match_tuple_walks(family):
    # same witness, same triples in the same order, in any caller order
    n, vectors = family
    assert first_exchange_failure(vectors) == tuple_first_failure(vectors)
    f = PolymatroidBases(n, 0, tuple(vectors))
    assert symmetric_exchange_violations(f) == tuple_symmetric_violations(f)


@st.composite
def gap_families(draw):
    """(n, vectors): up to eight vectors of one modulus drawn from all of
    them, so most moves leave the family and one (a, i) often fails
    against several c."""
    n, d = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    pool = veronese_bases(n, d).vectors
    return n, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8, unique=True))


def walk_triples(vectors):
    """The plain walk on vectors, its positions read back as vectors."""
    family = [{i: e for i, e in enumerate(v, 1) if e} for v in vectors]
    return [(vectors[a], vectors[c], i) for a, c, i in _exchange_failures(family)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(walk_families(), gap_families()))
def test_plain_walk_lists_every_failure_in_pair_order(family):
    # every triple, not only the first, in the order of the pairs (a, c)
    _, vectors = family
    assert walk_triples(vectors) == list(tuple_exchange_failures(vectors))


def test_one_coordinate_fails_against_several_vectors():
    vectors = [(0, 1, 1), (2, 0, 0), (0, 0, 2), (0, 2, 0)]
    got = walk_triples(vectors)
    assert got == list(tuple_exchange_failures(vectors))
    a = (2, 0, 0)
    assert [t for t in got if t[0] == a] == [(a, (0, 1, 1), 1), (a, (0, 0, 2), 1), (a, (0, 2, 0), 1)]


def test_packed_walks_on_rank_zero_and_zero_vectors():
    for vectors in ([()], [(), ()], [(0, 0, 0)], [(0, 0), (0, 0)], [(0, 1), (0, 0)]):
        assert first_exchange_failure(vectors) == tuple_first_failure(vectors)
        f = PolymatroidBases(len(vectors[0]), 0, tuple(vectors))
        assert symmetric_exchange_violations(f) == tuple_symmetric_violations(f)


@settings(max_examples=200, deadline=None)
@given(walk_families(), st.integers(1, 4), st.data())
def test_unused_coordinates_leave_the_walks_unchanged(family, extra, data):
    # all-zero coordinates get no field: the same triples, i relabelled
    n, vectors = family
    wide = n + extra
    kept = sorted(data.draw(st.lists(st.integers(0, wide - 1), min_size=n, max_size=n,
                                     unique=True)))

    def widen(v):
        out = [0] * wide
        for k, e in zip(kept, v):
            out[k] = e
        return tuple(out)

    def relabel(triple):
        a, c, i = triple
        return widen(a), widen(c), kept[i - 1] + 1

    wider = [widen(v) for v in vectors]
    first = first_exchange_failure(vectors)
    assert first_exchange_failure(wider) == (first and relabel(first))
    sym = symmetric_exchange_violations(PolymatroidBases(n, 0, tuple(vectors)))
    got = symmetric_exchange_violations(PolymatroidBases(wide, 0, tuple(wider)))
    assert got == [relabel(t) for t in sym]


def test_wide_unit_vectors_are_walked_on_their_support():
    # e_1 and e_2 among 20,000 coordinates: two fields, not 20,000
    n = 20_000
    vectors = [(1, 0) + (0,) * (n - 2), (0, 1) + (0,) * (n - 2)]
    tracemalloc.start()
    try:
        got = check_polymatroid_bases(n, vectors)
        assert symmetric_exchange_violations(got) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(got, PolymatroidBases) and got.vectors == tuple(sorted(vectors))
    assert peak < 2_000_000, peak


def test_large_families_are_walked_per_coordinate():
    # Veronese(4,20): 1,771 vectors, 3.1 million ordered pairs a walk over
    # pairs would test one by one
    vectors = [(a, b, c, 20 - a - b - c)
               for a in range(21) for b in range(21 - a) for c in range(21 - a - b)]
    with Budget(1.0):
        got = check_polymatroid_bases(4, vectors)
        assert isinstance(got, PolymatroidBases) and len(got.vectors) == 1771
        assert symmetric_exchange_violations(got) == []


def test_unit_vectors_swap_back_within_budget():
    # e_1, ..., e_300: each (i, j) asks which c + e_i - e_j are members of
    # the vectors that use j, one each, not of all 300
    n = 300
    vectors = tuple(tuple(int(x == y) for x in range(n)) for y in reversed(range(n)))
    with Budget(1.0):
        assert symmetric_exchange_violations(PolymatroidBases(n, 1, vectors)) == []


def test_huge_entries_get_no_table_per_value():
    # entries up to 10^6 in two vectors: masks for the values present, not
    # for every value up to the largest
    big = 10**6
    vectors = ((0, big), (big, 0))
    tracemalloc.start()
    try:
        with Budget(1.0):
            got = check_polymatroid_bases(2, vectors)
            sym = symmetric_exchange_violations(PolymatroidBases(2, big, vectors))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ExchangeFailure((0, big), (big, 0), 2)
    assert sym == [((0, big), (big, 0), 2), ((big, 0), (0, big), 1)]
    assert peak < 100_000, peak
