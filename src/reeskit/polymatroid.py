"""Discrete polymatroids given by their sets of bases.

Bases are integer vectors in N^n of one common modulus |a| = sum of entries,
closed under the one-step exchange: whenever a_i > c_i some j with a_j < c_j
repairs a - e_i + e_j back into the set. Matroid bases are the 0/1 case
(Herzog-Hibi, Discrete polymatroids, 2002), so `_exchange_failures` is the
one exchange walk: `check_polymatroid_bases` runs it on lex-sorted vectors,
`matroid.check_basis_exchange` on bases and `symmetric_exchange_violations`
with the reverse step required too. It reads a family as bitmasks over its
positions, per coordinate some vector uses and value in that column, and
tests all c against one (a, i) in a few mask operations; its work and
memory follow the coordinates used, not n. `divide_by_variable` returns,
as `check_polymatroid_bases` does, the bases or the ExchangeFailure, which
would refute L3.10 (base sets closed under dividing by a variable).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import attrgetter

from .errors import (
    EmptyInput,
    IntegrityError,
    InvalidInstance,
    Record,
    UnequalModuli,
    VariableAbsent,
)


class PolymatroidBases(Record):
    """Validated base set of a discrete polymatroid.

    vectors: lex-sorted tuple of distinct vectors in N^n, all of modulus d.
    """

    n: int
    d: int
    vectors: tuple[tuple[int, ...], ...]
    polymatroid = True
    _json = ("n", "exponents", "polymatroid")
    exponents = property(attrgetter("vectors"))

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(map(tuple, self.vectors)))


class ExchangeFailure(Record):
    """Witness (a, c, i) that no j with a_j < c_j repairs a - e_i + e_j.

    The coordinate i is 1-indexed like everything else in this package.
    """

    vec_a: tuple[int, ...]
    vec_b: tuple[int, ...]
    index: int
    error = "exchange_failure"
    _json = ("error", "vec_a", "vec_b", "index")


def _normalize_vectors(n, vectors):
    out = []
    for v in vectors:
        w = tuple(int(e) for e in v)
        if len(w) != n:
            raise InvalidInstance(f"vector {w} has dimension != {n}")
        if any(e < 0 for e in w):
            raise InvalidInstance(f"vector {w} has a negative entry")
        out.append(w)
    return sorted(set(out))


def _exchange_failures(family, symmetric: bool = False):
    """Triples (a, c, i), a and c indexing family in the order given and i
    ascending, where a_i > c_i and no j with a_j < c_j puts a - e_i + e_j in
    the family (and, when symmetric, c + e_i - e_j too). Each vector is a
    map from coordinate labels to its nonzero entries, and i is a label.

    For each label x some vector uses and each value e in its column, two
    bitmasks over the family's positions hold the members with c_x < e and
    those with c_x <= e. For a and each i with a_i > 0, the failing c start
    as those with c_i < a_i, and each j that puts a - e_i + e_j in the
    family clears those with c_j > a_j (when symmetric, only those with
    c + e_i - e_j in it too: a mask kept per (i, j), asked only of the c
    with c_j > 0). a's failures are then sorted by c's position and i, the
    order of a walk over the pairs (a, c).

    Membership is asked of packed vectors: one int of w-bit fields, one per
    label used, w - 1 bits holding the largest entry, so a step past it sets
    a field's free top bit and never lands on a member. Which j put
    a - e_i + e_j in the family is asked once per vector a - e_i."""
    support = sorted({x for v in family for x in v})
    w = max((e for v in family for e in v.values()), default=0).bit_length() + 1
    unit = {x: 1 << (k * w) for k, x in enumerate(support)}
    # x -> {e: the members with c_x == e}, then -> {e: (c_x < e, c_x <= e)};
    # users[x]: the positions of the members with c_x > 0
    packed, column, users = [], {x: {} for x in support}, {x: [] for x in support}
    for p, v in enumerate(family):
        c = 0
        for x, e in v.items():
            c += e * unit[x]
            at = column[x]
            at[e] = at.get(e, 0) | 1 << p
            users[x].append(p)
        packed.append(c)
    members, everyone = set(packed), (1 << len(family)) - 1
    for x, at in column.items():
        at[0] = everyone ^ sum(at.values())
        below = 0
        for e in sorted(at):
            at[e] = below, below | at[e]
            below = at[e][1]
    into, stay = {}, {}  # a - e_i -> its repairing j; (i, j) -> c with c + e_i - e_j outside
    for ia, (a, v) in enumerate(zip(packed, family)):
        found = []
        for i, e in v.items():
            fail = column[i][e][0]
            if not fail:
                continue
            moved = a - unit[i]
            fit = into.get(moved)
            if fit is None:
                fit = into[moved] = [j for j in support if moved + unit[j] in members]
            for j in fit:
                if j == i:  # would clear c_i > a_i, and each c in fail has c_i < a_i
                    continue
                keep = column[j][v.get(j, 0)][1]
                if symmetric:
                    kept = stay.get((i, j))
                    if kept is None:
                        step = unit[i] - unit[j]
                        kept = stay[i, j] = everyone ^ sum(
                            1 << p for p in users[j] if packed[p] + step in members)
                    keep |= kept
                fail &= keep
                if not fail:
                    break
            while fail:
                low = fail & -fail
                fail ^= low
                found.append((low.bit_length() - 1, i))
        found.sort()
        for ic, i in found:
            yield ia, ic, i


def first_exchange_failure(vectors):
    """The first (a, c, i), walking `vectors` in the order given, with
    a_i > c_i and no j with a_j < c_j putting a - e_i + e_j among them; None
    if there is none. i is 1-indexed, and the caller's order decides which
    witness comes first."""
    family = [{i: e for i, e in enumerate(v, 1) if e} for v in vectors]
    for ia, ic, i in _exchange_failures(family):
        return vectors[ia], vectors[ic], i
    return None


def check_polymatroid_bases(n: int, vectors):
    """Validate the exchange property, returning PolymatroidBases or a witness."""
    if n < 1:
        raise InvalidInstance("need at least one coordinate")
    vecs = _normalize_vectors(n, vectors)
    if not vecs:
        raise EmptyInput("the base family is empty")
    d = sum(vecs[0])
    for v in vecs:
        if sum(v) != d:
            raise UnequalModuli(vecs[0], v)
    bad = first_exchange_failure(vecs)
    if bad is not None:
        return ExchangeFailure(*bad)
    return PolymatroidBases(n, d, tuple(vecs))


def divide_by_variable(f: PolymatroidBases, i: int) -> PolymatroidBases | ExchangeFailure:
    """Drop one unit of coordinate i from every base that has it, and
    validate the result as check_polymatroid_bases does: L3.10 says it is
    again a base set, so an ExchangeFailure would refute it."""
    if i < 1 or i > f.n:
        raise InvalidInstance(f"coordinate {i} not in 1..{f.n}")
    kept = [a[:i - 1] + (a[i - 1] - 1,) + a[i:] for a in f.vectors if a[i - 1] >= 1]
    if not kept:
        raise VariableAbsent(f"no base uses coordinate {i}")
    return check_polymatroid_bases(f.n, kept)


def symmetric_exchange_violations(f: PolymatroidBases) -> list[tuple]:
    """Triples (a, c, i) where no j with a_j < c_j swaps BOTH ways.

    A checker, not an axiom: callers decide what a nonempty list means.
    """
    v = f.vectors
    family = [{i: e for i, e in enumerate(a, 1) if e} for a in v]
    return [(v[ia], v[ic], i) for ia, ic, i in _exchange_failures(family, True)]


def veronese_bases(n: int, d: int) -> PolymatroidBases:
    """All vectors of modulus d in N^n."""
    if n < 1 or d < 1:
        raise InvalidInstance("need n >= 1 and d >= 1")
    vecs = [tuple(map(combo.count, range(n)))
            for combo in combinations_with_replacement(range(n), d)]
    got = check_polymatroid_bases(n, vecs)
    if isinstance(got, ExchangeFailure):
        raise IntegrityError(f"full degree-{d} family failed validation: {got.to_json()}")
    return got
