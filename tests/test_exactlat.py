from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import forward_bareiss, kernel_basis, pivot_columns

from reeskit.errors import IntegrityError, ZeroVector
from reeskit.exactlat import (
    _bareiss,
    adjugate,
    dot,
    parity_mask,
    primitive,
    rank,
    rank_mod_2,
)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def det_oracle(rows):
    """Permutation expansion. Exponential, fine below 6x6."""
    m = len(rows)
    total = 0
    for perm in itertools.permutations(range(m)):
        sign = 1
        seen = list(perm)
        for i in range(m):
            for j in range(i + 1, m):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(m):
            term *= rows[i][perm[i]]
        total += term
    return total


def rank_oracle(rows):
    """Largest k with a nonzero k x k minor."""
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                minor = [[rows[r][c] for c in csel] for r in rsel]
                if det_oracle(minor) != 0:
                    return k
    return 0


def adj_oracle(rows):
    """Cofactor expansion: adj[j][i] = (-1)^(i+j) * det(M without row i, col j),
    each minor by permutation expansion, so nothing is shared with the
    elimination under test."""
    k = len(rows)
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [
                [rows[r][c] for c in range(k) if c != j] for r in range(k) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det_oracle(minor)
    return adj


small_entry = st.integers(min_value=-6, max_value=6)


def matrices(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entry, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def square_matrices(max_dim: int = 4):
    return st.integers(1, max_dim).flatmap(
        lambda k: st.lists(
            st.lists(small_entry, min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )


def _product(left, right):
    return [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left
    ]


def rank_deficient_matrices(max_dim: int = 6):
    """k x k products B @ C through an inner dimension below k: rank k-1
    when deficit is 1 and B, C are generic, rank <= k-2 otherwise."""
    entry = st.integers(min_value=-3, max_value=3)

    def build(k, deficit):
        inner = max(k - deficit, 0)
        return st.tuples(
            st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=k, max_size=k),
            st.lists(st.lists(entry, min_size=k, max_size=k), min_size=inner, max_size=inner),
        ).map(lambda bc: _product(*bc) if inner else [[0] * k for _ in range(k)])

    return st.integers(1, max_dim).flatmap(
        lambda k: st.integers(1, k).flatmap(lambda deficit: build(k, deficit))
    )


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)
        assert primitive((0, 0, 5)) == (0, 0, 1)
        assert primitive((-3,)) == (-1,)
        assert primitive((7, 11)) == (7, 11)

    def test_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive((0, 0, 0))
        with pytest.raises(ZeroVector):
            primitive(())

    def test_plain_tuple(self):
        assert type(primitive((2, 4))) is tuple
        assert type(primitive(x for x in (1, 2))) is tuple

    @given(st.lists(small_entry, min_size=1, max_size=5), st.integers(1, 9))
    def test_scaling_invariant(self, v, c):
        if not any(v):
            return
        assert primitive(tuple(c * x for x in v)) == primitive(tuple(v))

    @given(st.lists(small_entry, min_size=1, max_size=5))
    def test_idempotent(self, v):
        if not any(v):
            return
        p = primitive(tuple(v))
        assert primitive(p) == p


class TestRank:
    def test_examples(self):
        assert rank(((1, 0), (0, 1))) == 2
        assert rank(((1, 2), (2, 4))) == 1
        assert rank(((0, 0), (0, 0))) == 0
        assert rank(()) == 0

    @settings(max_examples=150)
    @given(matrices())
    def test_matches_minor_oracle(self, rows):
        assert rank(tuple(map(tuple, rows))) == rank_oracle(rows)


class TestAdjugate:
    @settings(max_examples=100)
    @given(square_matrices())
    def test_product_is_det_times_identity(self, rows):
        assume(det_oracle(rows) != 0)
        k = len(rows)
        adj, det = adjugate(tuple(map(tuple, rows)))
        scalar = [[det if i == j else 0 for j in range(k)] for i in range(k)]
        assert _product(rows, adj) == scalar
        assert _product(adj, rows) == scalar

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(6))
    def test_matches_cofactor_oracle(self, rows):
        det = det_oracle(rows)
        if det == 0:
            with pytest.raises(IntegrityError):
                adjugate(tuple(map(tuple, rows)))
            return
        adj, got = adjugate(tuple(map(tuple, rows)))
        assert got == det
        assert [list(r) for r in adj] == adj_oracle(rows)

    @settings(max_examples=100, deadline=None)
    @given(rank_deficient_matrices())
    def test_singular_raises(self, rows):
        with pytest.raises(IntegrityError):
            adjugate(tuple(map(tuple, rows)))

    def test_singular_examples_raise(self):
        # rank 1 in 2x2, rank 2 in 3x3 with a zero row, rank 1 in 3x3, zero 1x1
        for rows in (
            ((1, 2), (2, 4)),
            ((1, 2, 3), (0, 0, 0), (4, 5, 6)),
            ((1, 2, 3), (2, 4, 6), (3, 6, 9)),
            ((0,),),
        ):
            with pytest.raises(IntegrityError, match="singular"):
                adjugate(rows)

    def test_one_by_one(self):
        assert adjugate(((5,),)) == ([[1]], 5)

    def test_identity(self):
        adj, det = adjugate(((1, 0), (0, 1)))
        assert det == 1
        assert [list(r) for r in adj] == [[1, 0], [0, 1]]


class TestGaussJordan:
    @settings(max_examples=150)
    @given(matrices(5))
    @example([[0, 2, 4], [0, 1, 2], [3, 0, 1]])  # a swap, then a dependent row
    @example([[2, 1], [4, 2], [0, 0]])  # rank 1, two zero rows below it
    def test_invariants_and_forward_pivots(self, rows):
        """p on each pivot row's own pivot column, 0 on the other pivot
        columns, zero rows below the rank; pivot columns, sign and last pivot
        those of forward elimination."""
        ech, pivots, sign, p = _bareiss(rows)
        fwd, fwd_pivots, fwd_sign = forward_bareiss(rows)
        assert pivots == fwd_pivots and tuple(pivots) == pivot_columns(rows)
        assert sign == fwd_sign
        assert p == (fwd[len(pivots) - 1][pivots[-1]] if pivots else 1)
        assert len(pivots) == rank_oracle(rows)
        for k, row in enumerate(ech[: len(pivots)]):
            assert [row[c] for c in pivots] == [p if c == pivots[k] else 0 for c in pivots]
        assert all(not any(row) for row in ech[len(pivots):])

    @settings(max_examples=150)
    @given(square_matrices(5))
    def test_sign_times_last_pivot_is_the_determinant(self, rows):
        _, pivots, sign, p = _bareiss(rows)
        assert (sign * p if len(pivots) == len(rows) else 0) == det_oracle(rows)

    @pytest.mark.parametrize("call, rows, message", [
        (rank, ((1, 2), (3,)), "ragged rows"),
        (rank, ((1,), (3, 4)), "ragged rows"),
        # the adjugate ids keep the numbers they had beside the removed determinant rows
        pytest.param(adjugate, ((1, 2), (3,)), "adjugate of a non-square matrix",
                     id="adjugate-rows4-adjugate of a non-square matrix"),
        pytest.param(adjugate, ((1, 2, 3), (4, 5, 6)), "adjugate of a non-square matrix",
                     id="adjugate-rows5-adjugate of a non-square matrix"),
    ])
    def test_shape_is_checked(self, call, rows, message):
        with pytest.raises(ValueError) as exc:
            call(rows)
        assert type(exc.value) is ValueError and str(exc.value) == message


class TestKernel:
    def test_examples(self):
        # x + y + z = 0 has a rank-2 kernel
        basis = kernel_basis(((1, 1, 1),))
        assert len(basis) == 2
        assert list(kernel_basis(((1, 0), (0, 1)))) == []

    @settings(max_examples=100)
    @given(matrices())
    def test_basis_spans_and_annihilates(self, rows):
        mat = tuple(map(tuple, rows))
        basis = kernel_basis(mat)
        ncols = len(rows[0])
        assert len(basis) == ncols - rank(mat)
        for b in basis:
            for row in rows:
                assert dot(tuple(row), b) == 0
        if basis:
            assert rank(basis) == len(basis)

    def test_normalised_examples(self):
        # -x + 2y = 0, eliminated with a negative pivot
        assert kernel_basis(((-1, 2),)) == [(2, 1)]
        # 2x = 3z and 3y = -z: z = 6 clears both denominators
        assert kernel_basis(((2, 0, -3), (0, 3, 1))) == [(9, -2, 6)]
        assert kernel_basis(((0, 0),)) == [(1, 0), (0, 1)]

    @settings(max_examples=100)
    @given(matrices())
    def test_basis_is_normalised(self, rows):
        """One vector per free column, ascending: primitive, positive at its
        free column and 0 at every other free column."""
        free = [c for c in range(len(rows[0])) if c not in pivot_columns(rows)]
        basis = kernel_basis(rows)
        assert len(basis) == len(free)
        for fc, b in zip(free, basis):
            assert b[fc] > 0 and all(b[c] == 0 for c in free if c != fc)
            assert primitive(b) == b


def parity_matrices():
    """1..8 rows of 1..8 columns, entries in -3..3, some rows all zero."""

    def rows(nc):
        row = st.lists(st.integers(-3, 3), min_size=nc, max_size=nc)
        return st.lists(st.one_of(st.just([0] * nc), row), min_size=1, max_size=8)

    return st.integers(1, 8).flatmap(rows)


def parity_rank(rows) -> int:
    return rank_mod_2(map(parity_mask, rows))


class TestKernelModTwo:
    @settings(max_examples=200)
    @given(parity_matrices())
    @example([[0, 0, 0], [0, 0, 0]])  # rank 0: every column free
    @example([[1, 0, 0], [-1, 3, 0], [2, -2, -1]])  # full rank, negative entries
    @example([[-1, 2, -3, 1], [0, 0, 0, 0], [1, 1, -1, 0], [3, -3, 1, 2]])  # a zero row
    def test_matches_brute_force(self, rows):
        """By enumeration of GF(2)^nc: the kernel mod 2 has 2**(nc - rank)
        vectors, and the parity masks span 2**rank."""
        nc = len(rows[0])
        masks = [parity_mask(row) for row in rows]
        assert masks == [sum(1 << c for c, e in enumerate(row) if e % 2) for row in rows]
        r = rank_mod_2(masks)
        kernel = [
            x
            for x in itertools.product((0, 1), repeat=nc)
            if all(dot(tuple(row), x) % 2 == 0 for row in rows)
        ]
        assert 2 ** (nc - r) == len(kernel)

        def span(vectors):
            out = {0}
            for v in vectors:
                out |= {u ^ v for u in out}
            return out

        assert len(span(masks)) == 2**r

    def test_rank_zero_and_full_rank(self):
        assert rank_mod_2([]) == 0
        assert parity_mask([2, -4, 0]) == 0 and parity_mask([-1, 2, 3]) == 0b101
        assert parity_rank([[2, -4, 0], [0, 0, 0]]) == 0
        assert parity_rank([[1, 1, 0], [0, -1, 1], [1, 0, 2]]) == 3
        # the 3-cycle: rank 3 over Q, rank 2 mod 2
        assert rank(((1, 1, 0), (0, 1, 1), (1, 0, 1))) == 3
        assert parity_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2


def test_dot_and_vsub():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert vsub((4, 5, 6), (1, 2, 3)) == (3, 3, 3)
