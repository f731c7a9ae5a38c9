"""Exact integer linear algebra on small dense matrices.

Everything here runs on arbitrary-precision Python ints, with no division
that is not exact: every elimination is fraction-free, so not even Fractions
are needed. No floating point anywhere: results feed normality certificates,
so approximation is not an option.
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
    fieldwise, as no borrow crosses a field (SWAR, Lamport, CACM 1975)."""
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
    """Fraction-free forward elimination.

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


def rank(rows) -> int:
    _, pivots, _ = _bareiss(list(rows))
    return len(pivots)


def determinant(rows) -> int:
    m = [tuple(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    if len(m[0]) != n:
        raise ValueError("determinant of a non-square matrix")
    ech, pivots, sign = _bareiss(m)
    if len(pivots) < n:
        return 0
    return sign * ech[n - 1][n - 1]


def adjugate(rows):
    """Adjugate and determinant of a nonsingular square matrix: M @ adj == det * I.

    One fraction-free Gauss-Jordan pass on [M | I] (Bareiss, Math. Comp.
    1968), O(n^3): every intermediate entry is a minor, so each division is
    exact. With row-swap sign s and last pivot p it ends at [p*I | R], whence
    det = s*p and adj = s*R. Every caller passes a nonsingular M (a DD
    seed, a pivot block, a simplex), so a zero pivot is an IntegrityError.
    """
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("adjugate of a non-square matrix")
    if n == 0:
        return [], 1
    a = [row + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise IntegrityError(f"adjugate of a singular {n}x{n} matrix")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        row_k = a[k]
        p = row_k[k]
        tail_k = row_k[k + 1:]
        for i in range(n):
            if i == k:
                continue
            row_i = a[i]
            f = row_i[k]
            row_i[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
            row_i[k] = 0
        prev = p
    return [[sign * e for e in row[n:]] for row in a], sign * prev


def parity_mask(row) -> int:
    """A row of integers mod 2, as the bitmask with bit c set iff row[c] is odd."""
    return sum((e & 1) << c for c, e in enumerate(row))


def echelon_mod_2(masks) -> dict[int, int]:
    """Reduced row echelon form over GF(2) of rows given as parity masks:
    pivot column -> the one row with a 1 there, 0 at every other pivot
    column. Its size is the rank mod 2."""
    echelon: dict[int, int] = {}
    for v in masks:
        for c, w in echelon.items():
            if v >> c & 1:
                v ^= w
        if v:
            pc = (v & -v).bit_length() - 1
            for c, w in echelon.items():
                if w >> pc & 1:
                    echelon[c] = w ^ v
            echelon[pc] = v
    return echelon

