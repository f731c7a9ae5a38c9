"""Acceptance gate: ten end-to-end criteria, one test and one verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines inline). Each criterion asserts its substance and its wall-clock
budget. The criteria share only the matroid lists of the module fixtures;
each one recomputes the cone artefacts it reads, and its budget covers that
work.
"""

from __future__ import annotations

import json
import random
import signal
import threading
import time
from itertools import combinations

import pytest

from reeskit.cli import main as cli_main
from reeskit.errors import MethodDisagreement
from reeskit.jsonio import analysis_ideal, bundled_names, load_bundled, realize
from reeskit.matroid import (
    MonomialIdeal,
    basis_monomial_ideal,
    enumerate_matroids,
    graphic_matroid,
    uniform_matroid,
)
from reeskit.polymatroid import (
    PolymatroidBases,
    check_polymatroid_bases,
    divide_by_variable,
    veronese_bases,
)
from reeskit.reescone import (
    Verdict,
    basis_rees_cone,
    classify,
    facet_normals,
    facet_normals_oracle,
    rees_generators,
    verify_basis_facet_shape,
)
from reeskit.semigroup import IdealSession

TWO_SQUARES = MonomialIdeal(2, ((2, 0), (0, 2)))
MIXED = MonomialIdeal(2, ((3, 0), (1, 1), (0, 3)))


def verdict_line(number: int, message: str) -> None:
    print(f"criterion {number:02d}: PASS - {message}", flush=True)


class Budget:
    """Fails the test when its block runs past `seconds`. On the main thread
    an interval timer interrupts the block at the deadline, so code that
    regresses to exponential time fails there instead of hanging; the
    elapsed time is checked again when the block ends. The previous SIGALRM
    handler and timer are restored on exit."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def _expire(self, signum, frame):
        pytest.fail(f"budget {self.seconds}s exceeded: still running at the deadline")

    def __enter__(self):
        self.armed = threading.current_thread() is threading.main_thread()
        if self.armed:
            self.handler = signal.signal(signal.SIGALRM, self._expire)
            self.timer = signal.setitimer(signal.ITIMER_REAL, self.seconds)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.handler)
            delay, interval = self.timer
            if delay:  # an outer timer resumes with what it had left
                signal.setitimer(signal.ITIMER_REAL, max(delay - self.elapsed, 1e-3), interval)
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"budget {self.seconds}s exceeded: {self.elapsed:.1f}s"
            )
        return False


@pytest.fixture(scope="module")
def corpus5():
    out = []
    for n in range(1, 6):
        for d in range(1, n + 1):
            for idx, m in enumerate(enumerate_matroids(n, d)):
                out.append((f"n{n}_d{d}_{idx:04d}", m))
    return out


@pytest.fixture(scope="module")
def k4():
    return graphic_matroid(4, tuple(combinations(range(1, 5), 2)))


def test_criterion_01_rank_one_facet_formula():
    with Budget(1.0):
        fs = facet_normals(basis_rees_cone(uniform_matroid(1, 1)))
        assert fs.unit_normals == (2,)
        assert fs.ell_normals == ((1, -1),)
        for n in range(2, 7):
            fs = facet_normals(basis_rees_cone(uniform_matroid(n, 1)))
            assert fs.unit_normals == tuple(range(1, n + 2))
            assert fs.ell_normals == ((1,) * n + (-1,),)
    verdict_line(1, "rank-1 facet systems match the closed form for n=1..6")


def test_criterion_02_oracle_agreement():
    with Budget(120.0):
        checked = 0
        for name in bundled_names():
            ideal = analysis_ideal(realize(load_bundled(name)))
            cone = rees_generators(ideal)
            if len(cone.generators) > 12:
                continue
            assert facet_normals(cone) == facet_normals_oracle(cone), name
            checked += 1
        assert checked >= 10
        rng = random.Random(20260817)
        for _ in range(200):
            n = rng.randint(1, 4)
            q = min(rng.randint(1, 6), 5 ** n - 1)
            vecs = set()
            while len(vecs) < q:
                v = tuple(rng.randint(0, 4) for _ in range(n))
                if any(v):
                    vecs.add(v)
            ideal = MonomialIdeal(n, tuple(sorted(vecs)))
            cone = rees_generators(ideal)
            assert facet_normals(cone) == facet_normals_oracle(cone), ideal
    verdict_line(
        2, f"incremental facets equal subset-minor oracle on {checked} bundled "
        "and 200 random instances"
    )


def test_criterion_03_facet_shape_over_corpus(corpus5):
    with Budget(300.0):
        for name, m in corpus5:
            facets = facet_normals(basis_rees_cone(m))
            assert verify_basis_facet_shape(m, facets) == (), name
            got = classify(facets)
            assert got.verdict is not Verdict.NEITHER, name
    verdict_line(
        3, f"all {len(corpus5)} basis cones keep 0/1 facet coefficients with "
        "heights in [-d,-1]"
    )


def test_criterion_04_basis_ideals_normal(corpus5, k4):
    with Budget(600.0):
        for name, m in corpus5:
            cert = IdealSession(basis_monomial_ideal(m)).normality
            assert cert.verdict == "normal", (name, cert.to_json())
        cert = IdealSession(basis_monomial_ideal(k4)).normality
        assert cert.verdict == "normal"
    verdict_line(
        4, f"the direct route certifies all {len(corpus5)} corpus basis ideals and "
        "the 16-tree graphic instance"
    )


def test_criterion_05_dilation_equality(corpus5):
    with Budget(300.0):
        for name, m in corpus5:
            report = IdealSession(basis_monomial_ideal(m)).equality(3)
            assert report.passed, (name, report.to_json())
    verdict_line(
        5, f"dilation counts match semigroup reach up to b=3 on all "
        f"{len(corpus5)} corpus matroids"
    )


def test_criterion_06_decomposition(corpus5):
    with Budget(60.0):
        report = IdealSession(TWO_SQUARES).decomposition
        assert report.holds, "the non-normal control must still decompose"
        checked = 1
        for name in bundled_names():
            ideal = analysis_ideal(realize(load_bundled(name)))
            fs = facet_normals(rees_generators(ideal))
            if classify(fs).verdict is Verdict.NEITHER:
                continue
            report = IdealSession(ideal).decomposition
            assert report.holds, (name, report.to_json())
            checked += 1
    verdict_line(
        6, f"height-b Hilbert elements all lie in the b-fold dilation on "
        f"{checked} quasi-ideal instances"
    )


def test_criterion_07_negative_controls():
    with Budget(1.0):
        cert = IdealSession(TWO_SQUARES).normality
        assert cert.verdict == "not_normal"
        assert cert.witness == (1, 1, 1)
        got = classify(facet_normals(rees_generators(MIXED)))
        assert got.verdict is Verdict.NEITHER
        assert got.offending_normal == (1, 2, -3)
    verdict_line(
        7, "controls fail exactly as frozen: witness (1,1,1), offender (1,2,-3)"
    )


def test_criterion_08_pipeline_agreement(corpus5):
    with Budget(600.0):
        compared = 0
        ideals = [basis_monomial_ideal(m) for _, m in corpus5]
        for name in bundled_names():
            ideals.append(analysis_ideal(realize(load_bundled(name))))
        for ideal in ideals:
            fs = facet_normals(rees_generators(ideal))
            if classify(fs).verdict is Verdict.NEITHER:
                continue
            try:
                cert = IdealSession(ideal).certificate
            except MethodDisagreement as exc:
                pytest.fail(f"route disagreement: {exc}")
            assert cert.verdict == IdealSession(ideal).normality.verdict
            compared += 1
    verdict_line(
        8, f"equality route agrees with the direct route on {compared} "
        "quasi-ideal instances, zero disagreements"
    )


def test_criterion_09_polymatroid_suite(corpus5):
    with Budget(300.0):
        families = [
            check_polymatroid_bases(m.n, basis_monomial_ideal(m).exponents)
            for _, m in corpus5
        ]
        for name in bundled_names():
            value = realize(load_bundled(name))
            if isinstance(value, PolymatroidBases):
                families.append(value)
        divisions = 0
        for fam in families:
            assert isinstance(fam, PolymatroidBases)
            for i in range(1, fam.n + 1):
                if all(v[i - 1] == 0 for v in fam.vectors):
                    continue
                out = divide_by_variable(fam, i)
                assert isinstance(out, PolymatroidBases)
                divisions += 1
        normal_checked = 0
        for n in range(1, 4):
            for d in range(1, 5):
                vb = veronese_bases(n, d)
                assert IdealSession(MonomialIdeal(n, vb.vectors)).normality.verdict == "normal"
                normal_checked += 1
        for name in bundled_names():
            value = realize(load_bundled(name))
            if hasattr(value, "bases"):
                ideal = basis_monomial_ideal(value)
                assert IdealSession(ideal).normality.verdict == "normal", name
                normal_checked += 1
    verdict_line(
        9, f"{divisions} variable divisions re-validate; {normal_checked} "
        "polymatroidal ideals certify normal"
    )


def test_criterion_10_determinism(capsys):
    with Budget(120.0):
        for name in bundled_names():
            first_code = cli_main(["analyze", f"bundled:{name}"])
            first = capsys.readouterr().out
            second_code = cli_main(["analyze", f"bundled:{name}"])
            second = capsys.readouterr().out
            assert first_code == second_code == 0, name
            assert first == second, name
            json.loads(first)  # payload is well-formed JSON
    verdict_line(
        10, "repeated analyze runs are byte-identical on every bundled instance"
    )
