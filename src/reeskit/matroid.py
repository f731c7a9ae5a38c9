"""Matroids presented by their bases, and the monomial ideals they define.

A matroid here is nothing more than a nonempty family of equal-size subsets
of {1..n} satisfying the basis exchange property; validation goes through
`check_basis_exchange` and constructors re-validate their own output. That
check is the polymatroid one-step exchange walk on the bases' 0/1 indicator
vectors, each basis handed to it as the map from its elements to 1
(`polymatroid._exchange_failures`). `matroid_classes` lists matroids up to
isomorphism, each class grown from the classes on one element fewer by a
single-element extension (a backtracking walk whose in/out decisions are two
bitmasks over the d-subsets, the old subsets' decisions fixed) or a coloop,
with every labelled member in its orbit; `enumerate_matroids` reads the
labelled matroids off those orbits.
Ground-set elements are 1-indexed everywhere, including JSON.
"""

from __future__ import annotations

from itertools import combinations, permutations

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

ENUMERATION_CAP = 7


class Matroid(Record):
    """Matroid on {1..n} listed by its full set of bases.

    bases: lexicographically sorted tuple of ascending d-tuples. The
    exchange property itself is not re-checked here; build instances through
    `check_basis_exchange` or the constructors below.
    """

    n: int
    d: int
    bases: tuple[tuple[int, ...], ...]
    _json = ("n", "bases")

    def __post_init__(self):
        object.__setattr__(self, "bases", tuple(map(tuple, self.bases)))
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


class ExchangeFailure(Record):
    """Violating triple for the basis exchange property.

    No b2 in basis_b \\ basis_a repairs basis_a \\ {element}.
    """

    basis_a: tuple[int, ...]
    basis_b: tuple[int, ...]
    element: int
    error = "exchange_failure"
    _json = ("error", "basis_a", "basis_b", "element")


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

    The exchange is the polymatroid walk on the indicator vectors, listed
    in sorted-basis order. Returns a Matroid on success, or the first
    ExchangeFailure triple in that order (lex pairs of bases, smallest
    leaving element first). The walk gives a field only to the elements
    some basis uses, so neither its work nor its memory grows with n.
    """
    if n < 1:
        raise InvalidInstance("ground set must have at least one element")
    fam = _normalize_family(n, family)  # the one validation: Matroid's would repeat it
    if not fam:
        raise EmptyFamily("the basis family is empty")
    d = len(fam[0])
    for b in fam:
        if len(b) != d:
            raise UnequalCardinalities(fam[0], b)
    for a, c, x in _exchange_failures([dict.fromkeys(b, 1) for b in fam]):
        return ExchangeFailure(fam[a], fam[c], x)
    return Matroid.unchecked(n, d, tuple(fam))


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
        """Whether edges idxs close no cycle: each joins two components,
        which then merge under one label."""
        comp = list(range(vertices + 1))
        for i in idxs:
            cu, cv = (comp[e] for e in edge_list[i - 1])
            if cu == cv:
                return False
            comp = [cu if c == cv else c for c in comp]
        return True

    kept = []  # a spanning forest, grown greedily: its size is the rank
    for i in range(1, len(edge_list) + 1):
        if forest(kept + [i]):
            kept.append(i)
    fam = [c for c in combinations(range(1, len(edge_list) + 1), len(kept)) if forest(c)]
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


def _walk(early, late, can_in: int = -1, can_out: int = -1, k: int = 0, inn: int = 0,
          out: int = 0):
    """The extension step's backtracking from subset k on: every nonempty
    in-mask over the len(early) subsets whose pairs all stay alive. Subset k
    is decided in only if can_in has bit k, and out only if can_out has it."""
    if k == len(early):
        if inn:
            yield inn
        return
    if can_in >> k & 1 and not _dead(early[k], inn | 1 << k, out):
        yield from _walk(early, late, can_in, can_out, k + 1, inn | 1 << k, out)
    if can_out >> k & 1 and not _dead(late[k], inn, out | 1 << k):
        yield from _walk(early, late, can_in, can_out, k + 1, inn, out | 1 << k)


def enumerate_matroids(n: int, d: int) -> list[Matroid]:
    """Every matroid of rank d on ground set {1..n}, labelled: the members of
    matroid_classes's orbits, isomorphic duplicates kept on purpose. Output is
    sorted by the basis tuple.
    """
    if n < 1:
        raise InvalidInstance("ground set must have at least one element")
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"ground set size {n} exceeds the enumeration cap {ENUMERATION_CAP}")
    if d < 1 or d > n:
        raise BadRank(f"rank {d} not in 1..{n}")
    return [Matroid.unchecked(n, d, bases) for bases in sorted(matroid_classes([(n, d)])[0])]


def matroid_classes(pairs: list) -> list[dict]:
    """The isomorphism classes of rank-d matroids on {1..n} for each (n, d)
    in pairs, rank 0 included: a dict from every labelled member's bases to
    its class's lex-least member. Grown by single-element extension (McKay,
    J. Algorithms 26, 1998; Mayhew and Royle, JCTB 98, 2008), memoised per
    (n, d) for this call only:
    - n not a coloop: M extends M \\ n, made a representative N of rank d on
      {1..n-1} by relabelling, so _walk runs with the d-subsets
      avoiding n fixed in or out as N's bases;
    - n a coloop: M is a representative of rank d - 1 with n in every basis.
    A leaf not yet in an orbit goes through check_basis_exchange and starts
    a class: its images under the n! relabellings are the orbit, and the
    least image the representative.
    """
    for n, d in pairs:
        if n > ENUMERATION_CAP:
            raise CapExceeded(f"ground set size {n} exceeds the enumeration cap {ENUMERATION_CAP}")
        if n < 1 or not 0 <= d <= n:
            raise BadRank(f"no rank-{d} matroid on {n} elements")
    memo = {}

    def classes(n: int, d: int) -> dict:
        if (n, d) in memo:
            return memo[n, d]
        orbit = memo[n, d] = {}
        subsets = list(combinations(range(1, n + 1), d))
        index = {s: k for k, s in enumerate(subsets)}
        # each subset's image under a permutation p, from the bits 1 << p(e) summed
        at = {sum(1 << e for e in s): 1 << k for k, s in enumerate(subsets)}
        relabel = [[at[sum(map(bits.__getitem__, s))] for s in subsets]
                   for bits in ([0, *(1 << e for e in p)] for p in permutations(range(1, n + 1)))]
        leaves = [1] if d == 0 else []
        if 0 < d < n:
            early, late = _exchange_watch(subsets)
            free = sum(1 << k for k, s in enumerate(subsets) if n in s)
            for rep in set(classes(n - 1, d).values()):
                fixed = sum(1 << index[b] for b in rep.bases)
                leaves += _walk(early, late, fixed | free, ~fixed)
        if d > 0:
            below = [r.bases for r in set(classes(n - 1, d - 1).values())] if d > 1 else [[()]]
            leaves += (sum(1 << index[b + (n,)] for b in bases) for bases in below)
        for inn in leaves:
            key = [k for k in range(len(subsets)) if inn >> k & 1]
            fam = tuple(map(subsets.__getitem__, key))
            if fam not in orbit and isinstance(check_basis_exchange(n, fam), Matroid):
                images = [tuple(s for k, s in enumerate(subsets) if m >> k & 1)
                          for m in {sum(map(t.__getitem__, key)) for t in relabel}]
                rep = Matroid(n, d, min(images))
                orbit.update(dict.fromkeys(images, rep))
        return orbit

    return [classes(n, d) for n, d in pairs]


def basis_monomial_ideal(m: Matroid) -> MonomialIdeal:
    """Squarefree ideal generated by the basis indicator monomials."""
    ground = range(1, m.n + 1)
    return MonomialIdeal(m.n, tuple(tuple(int(e in b) for e in ground) for b in m.bases))

