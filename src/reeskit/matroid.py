"""Matroids presented by their bases, and the monomial ideals they define.

A matroid here is nothing more than a nonempty family of equal-size subsets
of {1..n} satisfying the basis exchange property; validation goes through
`check_basis_exchange` and constructors re-validate their own output. That
check is the polymatroid one-step exchange walk on the bases' 0/1 indicator
vectors, each basis packed straight into an int of 2-bit fields
(`polymatroid._exchange_failures`). `enumerate_matroids` keeps its in/out
decisions as two bitmasks over the candidate subsets.
Ground-set elements are 1-indexed everywhere, including JSON.
"""

from __future__ import annotations

from itertools import combinations

from .errors import (
    BadRank,
    CapExceeded,
    EmptyFamily,
    EmptyInput,
    IntegrityError,
    InvalidInstance,
    Record,
    UnequalCardinalities,
)
from .polymatroid import _exchange_failures

ENUMERATION_CAP = 6


class Matroid(Record):
    """Matroid on {1..n} listed by its full set of bases.

    bases: lexicographically sorted tuple of ascending d-tuples. The
    exchange property itself is not re-checked here; build instances through
    `check_basis_exchange` or the constructors below.
    """

    n: int
    d: int
    bases: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstance("ground set must have at least one element")
        if not self.bases:
            raise EmptyFamily("a matroid needs at least one basis")
        for b in self.bases:
            if len(b) != self.d:
                raise UnequalCardinalities(self.bases[0], b)
            if list(b) != sorted(set(b)):
                raise InvalidInstance(f"basis {b} is not a sorted set")
            if b and (b[0] < 1 or b[-1] > self.n):
                raise InvalidInstance(f"basis {b} leaves the ground set 1..{self.n}")
        if list(self.bases) != sorted(set(self.bases)):
            raise InvalidInstance("bases must be distinct and lexicographically sorted")

    def to_json(self) -> dict:
        return {"n": self.n, "bases": [list(b) for b in self.bases]}


class ExchangeFailure(Record):
    """Violating triple for the basis exchange property.

    No b2 in basis_b \\ basis_a repairs basis_a \\ {element}.
    """

    basis_a: tuple[int, ...]
    basis_b: tuple[int, ...]
    element: int

    def to_json(self) -> dict:
        return {
            "error": "exchange_failure",
            "basis_a": list(self.basis_a),
            "basis_b": list(self.basis_b),
            "element": self.element,
        }


class MonomialIdeal(Record):
    """Monomial ideal in n variables given by exponent vectors of generators.

    exponents: lex-sorted tuple of distinct nonzero vectors in N^n.
    """

    n: int
    exponents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstance("need at least one variable")
        norm = []
        for v in self.exponents:
            w = tuple(int(e) for e in v)
            if len(w) != self.n:
                raise InvalidInstance(f"exponent vector {w} has dimension != {self.n}")
            if any(e < 0 for e in w):
                raise InvalidInstance(f"exponent vector {w} has a negative entry")
            if not any(w):
                raise InvalidInstance("the zero exponent vector is not allowed")
            norm.append(w)
        if not norm:
            raise EmptyInput("need at least one generator")
        if len(set(norm)) != len(norm):
            raise InvalidInstance("exponent vectors must be pairwise distinct")
        object.__setattr__(self, "exponents", tuple(sorted(norm)))

    @property
    def q(self) -> int:
        return len(self.exponents)

    def to_json(self) -> dict:
        return {"n": self.n, "exponents": [list(v) for v in self.exponents]}


def _normalize_family(n, family):
    fam = []
    for member in family:
        raw = tuple(int(e) for e in member)
        b = tuple(sorted(set(raw)))
        if len(b) != len(raw):
            raise InvalidInstance(f"member {raw} repeats an element")
        for e in b:
            if e < 1 or e > n:
                raise InvalidInstance(f"element {e} outside the ground set 1..{n}")
        fam.append(b)
    return sorted(set(fam))


def _indicator(n, b):
    v = [0] * n
    for e in b:
        v[e - 1] = 1
    return tuple(v)


def check_basis_exchange(n: int, family):
    """Validate the basis exchange property for a family of subsets of {1..n}.

    The exchange is the polymatroid walk on the indicator vectors, each
    packed into 2-bit fields and listed in sorted-basis order. Returns a
    Matroid on success, or the first ExchangeFailure triple in that order
    (lex pairs of bases, smallest leaving element first).
    """
    if n < 1:
        raise InvalidInstance("ground set must have at least one element")
    fam = _normalize_family(n, family)
    if not fam:
        raise EmptyFamily("the basis family is empty")
    d = len(fam[0])
    for b in fam:
        if len(b) != d:
            raise UnequalCardinalities(fam[0], b)
    # each basis as its indicator vector in 2-bit fields: bit 2(e-1) for e
    unit = [0] + [1 << (2 * e) for e in range(n)]
    packed = [sum(map(unit.__getitem__, b)) for b in fam]
    for a, c, x in _exchange_failures(packed, 2, n):
        return ExchangeFailure(fam[a], fam[c], x)
    return Matroid(n, d, tuple(fam))


def _require_matroid(result, context):
    if isinstance(result, ExchangeFailure):
        raise IntegrityError(f"{context} produced a non-matroid: {result.to_json()}")
    return result


def uniform_matroid(n: int, d: int) -> Matroid:
    """All d-subsets of {1..n}."""
    if n < 1:
        raise InvalidInstance("ground set must have at least one element")
    if d < 1 or d > n:
        raise BadRank(f"rank {d} not in 1..{n}")
    fam = list(combinations(range(1, n + 1), d))
    return _require_matroid(check_basis_exchange(n, fam), "uniform_matroid")


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def graphic_matroid(vertices: int, edges) -> Matroid:
    """Matroid of maximal spanning forests; ground set = edge indices 1..|edges|.

    Exhaustive search over edge subsets, so keep the graph desk-sized.
    Loops and parallel edges are allowed; loops simply end up in no basis.
    """
    if vertices < 1:
        raise InvalidInstance("need at least one vertex")
    edge_list = [(int(u), int(v)) for u, v in edges]
    if not edge_list:
        raise EmptyInput("need at least one edge")
    for u, v in edge_list:
        if not (1 <= u <= vertices and 1 <= v <= vertices):
            raise InvalidInstance(f"edge ({u},{v}) leaves the vertex range 1..{vertices}")

    def forest(idxs) -> bool:
        uf = _UnionFind(vertices + 1)
        for i in idxs:
            u, v = edge_list[i - 1]
            if u == v or not uf.union(u, v):
                return False
        return True

    uf = _UnionFind(vertices + 1)
    d = sum(1 for u, v in edge_list if u != v and uf.union(u, v))
    fam = [c for c in combinations(range(1, len(edge_list) + 1), d) if forest(c)]
    return _require_matroid(check_basis_exchange(len(edge_list), fam), "graphic_matroid")


def _bits(mask):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _exchange_watch(subsets):
    """The exchange targets of every ordered pair (i, j) of distinct
    d-subsets, as index masks: for each x in B_i \\ B_j the subsets
    B_i - x + y (y in B_j \\ B_i), one of which must be a basis. Each
    (pair mask, target mask) is filed where the walk first sees the targets
    all decided out with i and j in, k = max(i, j):
    - early[k] when every target precedes k: checked as k is decided in;
    - late[t] when the last target t follows k: checked as t is decided out.
    A target mask holding k itself is never all out while k is in; it is
    filed nowhere."""
    masks = [sum(1 << e for e in s) for s in subsets]
    index = {m: k for k, m in enumerate(masks)}
    early = [[] for _ in masks]
    late = [[] for _ in masks]
    for i, b1 in enumerate(masks):
        for j, b2 in enumerate(masks):
            if i == j:
                continue
            k = max(i, j)
            for x in _bits(b1 & ~b2):
                ts = sum(1 << index[b1 ^ x | y] for y in _bits(b2 & ~b1))
                if ts < 1 << k:
                    early[k].append(((1 << i) | (1 << j), ts))
                elif ts.bit_length() - 1 > k:
                    late[ts.bit_length() - 1].append(((1 << i) | (1 << j), ts))
    return early, late


def _dead(watch, inn: int, out: int) -> bool:
    """Whether some watched pair is in with every one of its targets out."""
    return any(inn & pair == pair and ts & out == ts for pair, ts in watch)


def enumerate_matroids(n: int, d: int, cap: int = ENUMERATION_CAP) -> list[Matroid]:
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
    sorted by the basis tuple.
    """
    if n < 1:
        raise InvalidInstance("ground set must have at least one element")
    if n > cap:
        raise CapExceeded(f"ground set size {n} exceeds the enumeration cap {cap}")
    if d < 1 or d > n:
        raise BadRank(f"rank {d} not in 1..{n}")
    subsets = list(combinations(range(1, n + 1), d))
    early, late = _exchange_watch(subsets)
    found = []

    def walk(k: int, inn: int, out: int) -> None:
        if k == len(subsets):
            if inn:
                got = check_basis_exchange(n, [s for i, s in enumerate(subsets) if inn >> i & 1])
                if isinstance(got, Matroid):
                    found.append(got)
            return
        if not _dead(early[k], inn | 1 << k, out):
            walk(k + 1, inn | 1 << k, out)
        if not _dead(late[k], inn, out | 1 << k):
            walk(k + 1, inn, out | 1 << k)

    walk(0, 0, 0)
    found.sort(key=lambda m: m.bases)
    return found


def basis_monomial_ideal(m: Matroid) -> MonomialIdeal:
    """Squarefree ideal generated by the basis indicator monomials."""
    return MonomialIdeal(m.n, tuple(_indicator(m.n, b) for b in m.bases))

