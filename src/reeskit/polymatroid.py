"""Discrete polymatroids given by their sets of bases.

Bases are integer vectors in N^n of one common modulus |a| = sum of entries,
closed under the one-step exchange: whenever a_i > c_i some j with a_j < c_j
repairs a - e_i + e_j back into the set. Matroid bases are the 0/1 case
(Herzog-Hibi, Discrete polymatroids, 2002), so `_exchange_failures` is the
one exchange walk: `check_polymatroid_bases` runs it on lex-sorted vectors,
`matroid.check_basis_exchange` on bases and `symmetric_exchange_violations`
with the reverse step required too. It alone packs a family, one guarded bit
field per coordinate some vector uses, so its work does not grow with n.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import (
    EmptyInput,
    IntegrityError,
    InvalidInstance,
    Record,
    TheoremCounterexample,
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

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(map(tuple, self.vectors)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "exponents": [list(v) for v in self.vectors],
            "polymatroid": True,
        }


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

    Each vector is read as one int of w-bit fields, one per label some
    vector uses, ascending; w - 1 bits hold the largest entry, so each
    field's top bit is a free guard. A label no vector uses is 0 in all of
    them, never an i or a j, so it needs no field. With G the guard bits and
    ONES each field's unit, ((A|G) - C - ONES) & G marks the i with
    a_i > c_i and ((C|G) - A - ONES) & G the j with a_j < c_j; no field
    borrows from its neighbour. Which j put a - e_i + e_j in the family is
    asked once per vector a - e_i and kept as guard bits; a step that
    overflows or borrows sets a guard bit, so it never lands on a member."""
    support = sorted({x for v in family for x in v})
    w = max((e for v in family for e in v.values()), default=0).bit_length() + 1
    unit = {x: 1 << (k * w) for k, x in enumerate(support)}
    packed = [sum(e * unit[x] for x, e in v.items()) for v in family]
    members, units = set(packed), list(unit.values())
    ones, shift = sum(units), w - 1
    guard = ones << shift
    rows = [(c, c + ones, c | guard) for c in packed]
    # v -> guard bits of the j with v + e_j (into) or v - e_j (out_of) a member
    into, out_of = {}, {}
    for ia, a in enumerate(packed):
        ag, a1 = a | guard, a + ones
        for ic, (c, c1, cg) in enumerate(rows):
            down = (ag - c1) & guard  # zero when a == c
            while down:
                g = down & -down
                down ^= g
                moved = a - (g >> shift)
                fit = into.get(moved)
                if fit is None:
                    fit = into[moved] = sum(u << shift for u in units if moved + u in members)
                fit &= cg - a1
                if symmetric and fit:
                    back = c + (g >> shift)
                    ok = out_of.get(back)
                    if ok is None:
                        ok = out_of[back] = sum(u << shift for u in units if back - u in members)
                    fit &= ok
                if not fit:
                    yield ia, ic, support[g.bit_length() // w - 1]


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


def divide_by_variable(f: PolymatroidBases, i: int) -> PolymatroidBases:
    """Drop one unit of coordinate i from every base that has it.

    The result must again be a discrete polymatroid base set; if the
    re-validation ever failed that would contradict the closure property
    this operation relies on, so the failure is raised as a
    TheoremCounterexample instead of being returned quietly.
    """
    if i < 1 or i > f.n:
        raise InvalidInstance(f"coordinate {i} not in 1..{f.n}")
    kept = [a[:i - 1] + (a[i - 1] - 1,) + a[i:] for a in f.vectors if a[i - 1] >= 1]
    if not kept:
        raise VariableAbsent(f"no base uses coordinate {i}")
    got = check_polymatroid_bases(f.n, kept)
    if isinstance(got, ExchangeFailure):
        raise TheoremCounterexample(
            "L3.10",
            {"input": f.to_json(), "coordinate": i, "witness": got.to_json()},
        )
    return got


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
