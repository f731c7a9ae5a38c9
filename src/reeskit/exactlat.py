"""Exact integer linear algebra on small dense matrices.

Everything here runs on arbitrary-precision Python ints, with no division
that is not exact. Elimination over Q is one fraction-free Gauss-Jordan
pass, _bareiss, so not even Fractions are needed: rank and adjugate read
it, as do the double description's seed and the facet oracle. Ranks mod 2
have their own XOR basis on bitmasks. No floating point anywhere: results
feed normality certificates, so approximation is not an option.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from .errors import IntegrityError, ZeroVector


def dot(u, v):
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def packer(rows, width: int):
    """(pack, guard): pack maps v to sum_j <rows[j], v> << (width * j), its
    values on the rows in width-bit fields, and guard sets each field's top
    bit. pack is linear, so exact with negative entries. For x, y packed from
    values below 2**(width - 1), ((y | guard) - x) & guard == guard iff x <= y
    fieldwise, as no borrow crosses a field (SWAR, Lamport, CACM 1975), and
    then x <= y as integers, with equality iff the values are equal."""
    cols = [sum(e << width * j for j, e in enumerate(col)) for col in zip(*rows)]
    guard = sum(1 << width * j + width - 1 for j in range(len(rows)))
    return (lambda v: sum(map(mul, v, cols))), guard


def primitive(v) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries.

    Signs are preserved; only the common positive factor is removed, so the
    result generates the same ray. The empty vector counts as zero.
    """
    vec = tuple(int(e) for e in v)
    g = gcd(*vec)
    if g == 0:
        raise ZeroVector("the zero vector has no primitive form")
    if g == 1:
        return vec
    return tuple(e // g for e in vec)


def _bareiss(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968).

    Returns (matrix, pivot columns, row-swap sign, last pivot p). Each pivot
    reduces every other row, above and below, so the matrix ends with p on
    each pivot row's own pivot column, 0 on the other pivot columns and zero
    rows below the rank. Every intermediate entry is a minor of the input,
    so the interleaved exact divisions never truncate, and the pivots, their
    columns and the sign are those of forward elimination. A row the update
    would leave as it is (a zero factor and an unchanged pivot) is skipped.
    """
    m = [list(map(int, r)) for r in rows]
    nc = len(m[0]) if m else 0
    if any(len(r) != nc for r in m):
        raise ValueError("ragged rows")
    nr, pivots, sign, prev, r = len(m), [], 1, 1, 0
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
        for i, row_i in enumerate(m):
            f = row_i[c]
            if i != r and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(row_i, m[r])]
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, sign, prev


def rank(rows) -> int:
    return len(_bareiss(rows)[1])


def adjugate(rows):
    """Adjugate and determinant of a nonsingular square matrix: M @ adj == det * I.

    One _bareiss pass on [M | I], O(n^3): with row-swap sign s and last
    pivot p it ends at [p*I | R], whence det = s*p and adj = s*R. Every
    caller passes a nonsingular M (a DD seed, a simplex), so a pivot outside
    M's columns is an IntegrityError.
    """
    grid = [list(r) for r in rows]
    n = len(grid)
    if any(len(r) != n for r in grid):
        raise ValueError("adjugate of a non-square matrix")
    for i, r in enumerate(grid):
        r += [int(j == i) for j in range(n)]
    ech, pivots, sign, p = _bareiss(grid)
    if pivots and pivots[-1] >= n:
        raise IntegrityError(f"adjugate of a singular {n}x{n} matrix")
    return [[sign * e for e in row[n:]] for row in ech], sign * p


def parity_mask(row) -> int:
    """A row of integers mod 2, as the bitmask with bit c set iff row[c] is odd."""
    return sum((e & 1) << c for c, e in enumerate(row))


def rank_mod_2(masks) -> int:
    """Rank over GF(2) of rows given as parity masks: the size of an XOR
    basis keyed by each kept row's lowest set bit. A row is reduced by the
    kept row of its lowest bit until it is zero or its lowest bit is new."""
    basis: dict[int, int] = {}
    for v in masks:
        while v:
            low = v & -v
            if low not in basis:
                basis[low] = v
                break
            v ^= basis[low]
    return len(basis)
