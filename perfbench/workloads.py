"""Seeded instance files and the op list of one pass, per workload.

Every workload writes its instances as JSON files under a work directory and
returns the ops of one pass as `reeskit` argument lists. The program sees only
these files.

The program's run time depends strongly on how an instance is labelled: the
pulling triangulation and the membership DP both follow lex order. Relabelling
the edges of K5 minus one edge moved one `analyze` between 9.5 s and 24.3 s
over seeds 0-5, and permuting the coordinates of a fixed set of ideals moved a
pass by a factor of two. No regression bound of at most 25% could absorb that,
so the instance *sets* below are fixed and the seed permutes only what the
program puts into canonical order itself: the order of the rows in each file
and the order of the ops in a pass. Outputs are therefore identical for every
seed, while the input bytes differ.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The low-dimensional pool is one fixed draw; see lowdim_hilbert.
POOL_SEED = 20060117
LOWDIM_POOL = 12

# Degree and bound vectors of the Veronese-type ideals {a : |a| = 6, a <= u}.
# Each orbit under coordinate permutation is taken whole, so the workload does
# not favour one labelling.
POLY_DEGREE = 6
POLY_BOUND_SHAPES = ((2, 2, 2, 2), (2, 2, 2, 3))
POLY_BMAX = 4

# K5 minus a matching of two edges, which is the wheel W4: 45 bases, and every
# labelling has normalized volume 2946.
GRAPHIC_REMOVED = ((1, 2), (3, 4))
GRAPHIC_VOLUME = 2946


@dataclass(frozen=True)
class Op:
    """One CLI call. `ideal` names the instance file it reads ('' for none)."""

    argv: tuple[str, ...]
    ideal: str = ""


def _write(path: Path, kind: str, name: str, payload: dict) -> str:
    doc = {"kind": kind, "name": name, "payload": payload}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return str(path)


def _shuffled(rows, rng: random.Random) -> list[list[int]]:
    out = [list(r) for r in rows]
    rng.shuffle(out)
    return out


def _spanning_trees(vertices: int, edges) -> list[tuple[int, ...]]:
    """1-indexed edge sets of the spanning trees, by union-find."""
    trees = []
    for subset in itertools.combinations(range(len(edges)), vertices - 1):
        parent = list(range(vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in subset:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                break
            parent[a] = b
        else:
            trees.append(tuple(i + 1 for i in subset))
    return trees


def corpus5_r2(seed: int, workdir: Path) -> list[Op]:
    """Exhaustive, so the seed is ignored."""
    return [Op(("corpus", "5", "--rank", "2"))]


def graphic_analyze(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    edges = [
        (a, b)
        for a, b in itertools.combinations(range(5), 2)
        if (a + 1, b + 1) not in GRAPHIC_REMOVED
    ]
    bases = _spanning_trees(5, edges)
    path = _write(
        workdir / "graphic.json",
        "matroid",
        "k5_minus_matching",
        {"n": len(edges), "bases": _shuffled(bases, rng)},
    )
    return [Op(("analyze", path), path)]


def veronese_type(u, degree: int = POLY_DEGREE) -> list[tuple[int, ...]]:
    return [
        a
        for a in itertools.product(*(range(x + 1) for x in u))
        if sum(a) == degree
    ]


def polymatroid_bounds() -> list[tuple[int, ...]]:
    return [
        u
        for shape in POLY_BOUND_SHAPES
        for u in sorted(set(itertools.permutations(shape)))
    ]


def polymatroid_dilation(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    bounds = polymatroid_bounds()
    rng.shuffle(bounds)
    ops = []
    for u in bounds:
        name = "veronese_type_" + "".join(map(str, u))
        path = _write(
            workdir / f"{name}.json",
            "polymatroid",
            name,
            {"n": len(u), "exponents": _shuffled(veronese_type(u), rng),
             "polymatroid": True},
        )
        ops += [
            Op(("polymatroid-check", path), path),
            Op(("normality", path), path),
            Op(("ehrhart-check", path, "--bmax", str(POLY_BMAX)), path),
        ]
    return ops


def lowdim_pool() -> list[tuple[int, list[tuple[int, ...]]]]:
    """Mixed-degree ideals: n in {3, 4}, 5-8 distinct nonzero generators,
    entries up to 30 (n = 3) or 14 (n = 4). One fixed draw."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(LOWDIM_POOL):
        n = rng.choice((3, 4))
        top = 30 if n == 3 else 14
        gens: set[tuple[int, ...]] = set()
        target = rng.randint(5, 8)
        while len(gens) < target:
            g = tuple(rng.randint(0, top) for _ in range(n))
            if any(g):
                gens.add(g)
        pool.append((n, sorted(gens)))
    return pool


def lowdim_hilbert(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    pool = list(enumerate(lowdim_pool()))
    rng.shuffle(pool)
    ops = []
    for idx, (n, gens) in pool:
        name = f"lowdim_{idx:02d}"
        path = _write(
            workdir / f"{name}.json",
            "ideal",
            name,
            {"n": n, "exponents": _shuffled(gens, rng)},
        )
        ops += [Op(("hilbert", path), path), Op(("normality", path), path)]
    return ops


WORKLOADS = {
    "corpus5_r2": corpus5_r2,
    "graphic_analyze": graphic_analyze,
    "polymatroid_dilation": polymatroid_dilation,
    "lowdim_hilbert": lowdim_hilbert,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir)
