"""Matroids presented by their bases, and the monomial ideals they define.

A matroid here is nothing more than a nonempty family of equal-size subsets
of {1..n} satisfying the basis exchange property; validation goes through
`check_basis_exchange` and constructors re-validate their own output.
Ground-set elements are 1-indexed everywhere, including JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BadRank,
    CapExceeded,
    EmptyFamily,
    EmptyInput,
    IntegrityError,
    InvalidInstance,
    UnequalCardinalities,
)

ENUMERATION_CAP = 6


@dataclass(frozen=True)
class Matroid:
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


@dataclass(frozen=True)
class ExchangeFailure:
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


@dataclass(frozen=True)
class MonomialIdeal:
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


def check_basis_exchange(n: int, family):
    """Validate the basis exchange property for a family of subsets of {1..n}.

    Returns a Matroid on success, or the first ExchangeFailure triple in
    deterministic order (lex pairs, smallest leaving element first).
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


def enumerate_matroids(n: int, d: int, cap: int = ENUMERATION_CAP) -> list[Matroid]:
    """Every matroid of rank d on ground set {1..n}, exhaustively.

    Filters all 2^C(n,d) - 1 nonempty families through the exchange check;
    isomorphic duplicates are kept on purpose. Output is sorted by the basis
    tuple. The n=6, d=3 case walks a million families; everything smaller is
    quick.
    """
    if n < 1:
        raise InvalidInstance("ground set must have at least one element")
    if n > cap:
        raise CapExceeded(f"ground set size {n} exceeds the enumeration cap {cap}")
    if d < 1 or d > n:
        raise BadRank(f"rank {d} not in 1..{n}")
    subsets = list(combinations(range(1, n + 1), d))
    found = []
    for mask in range(1, 1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        got = check_basis_exchange(n, fam)
        if isinstance(got, Matroid):
            found.append(got)
    found.sort(key=lambda m: m.bases)
    return found


def basis_monomial_ideal(m: Matroid) -> MonomialIdeal:
    """Squarefree ideal generated by the basis indicator monomials."""
    exps = []
    for b in m.bases:
        v = [0] * m.n
        for e in b:
            v[e - 1] = 1
        exps.append(tuple(v))
    return MonomialIdeal(m.n, tuple(exps))

