"""One analysis session per ideal: each cone artefact is built once per
session, and nothing is kept once the session is gone.

The counters wrap the module attributes the session calls, so they see every
build the CLI triggers.
"""

from __future__ import annotations

import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import lifted_membership

from reeskit import reescone, semigroup
from reeskit.cli import main
from reeskit.errors import CapExceeded
from reeskit.matroid import MonomialIdeal
from reeskit.semigroup import IdealSession

TWO_SQUARES = MonomialIdeal(2, ((2, 0), (0, 2)))
VERONESE_2_2 = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
MIXED_QUASI = MonomialIdeal(2, ((0, 2), (1, 2)))  # quasi-ideal, degrees 2 and 3


def count_calls(monkeypatch, module, name) -> list:
    """Wrap module.name; the returned list grows by one per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_analyze_builds_one_hilbert_basis(monkeypatch, capsys):
    calls = count_calls(monkeypatch, semigroup, "hilbert_basis")
    code, doc = run_json(capsys, "analyze", "bundled:graphic_k4")
    assert code == 0
    assert doc["normality"]["method"] == "both"
    assert len(calls) == 1


def test_corpus_builds_one_facet_system_and_no_membership_per_matroid(monkeypatch, capsys):
    facets = count_calls(monkeypatch, semigroup, "facet_normals")
    facets_elsewhere = count_calls(monkeypatch, reescone, "facet_normals")
    code, doc = run_json(capsys, "corpus", "4", "--rank", "2")
    assert code == 0
    # 44 labelled matroids of rank 2 on at most 4 elements in 1 + 3 + 7
    # isomorphism classes: one session, so one facet system, per class
    assert doc["reports"][0]["instances"] == 44
    assert len(facets) == 11
    assert facets_elsewhere == []


def test_corpus_opens_one_session_per_matroid(monkeypatch, capsys):
    sessions = count_calls(monkeypatch, IdealSession, "__init__")
    hilbert = count_calls(monkeypatch, semigroup, "hilbert_basis")
    code, doc = run_json(capsys, "corpus", "4", "--cap", "2")
    assert code == 1
    # the 27 class representatives, and the 19 other labelled members of the
    # classes that fail: each member is checked on one session, for the codes
    # that failed, and a session past its cap runs hilbert_basis once
    assert len(sessions) == 46
    assert len(hilbert) == 46


def test_nothing_outlives_a_call(monkeypatch, capsys):
    calls = count_calls(monkeypatch, semigroup, "hilbert_basis")
    facets = count_calls(monkeypatch, semigroup, "facet_normals")
    first = run_json(capsys, "analyze", "bundled:graphic_k3")
    second = run_json(capsys, "analyze", "bundled:graphic_k3")
    assert first == second
    assert len(calls) == 2
    assert len(facets) == 2


def test_equality_check_builds_one_membership_for_all_dilations(monkeypatch):
    facets = count_calls(monkeypatch, semigroup, "facet_normals")
    report = IdealSession(TWO_SQUARES).equality(4)
    assert [d.b for d in report.dilations] == [1, 2, 3, 4]
    assert [len(d.failures) for d in report.dilations] == [1, 2, 3, 4]
    assert len(facets) == 1
    # every slice point of a normal ideal's dilation is a sum: no cone at all
    assert IdealSession(VERONESE_2_2).equality(4).passed
    assert len(facets) == 1


@st.composite
def equigenerated_ideals(draw):
    """n <= 4 variables, distinct generators of one degree <= 3."""
    n = draw(st.integers(1, 4))
    degree = draw(st.integers(1, 3))
    slice_ = [a for a in product(range(degree + 1), repeat=n) if sum(a) == degree]
    vecs = draw(st.lists(st.sampled_from(slice_), min_size=1, unique=True))
    return MonomialIdeal(n, tuple(vecs))


@st.composite
def mixed_degree_ideals(draw):
    """n <= 3 variables, distinct nonzero generators with entries <= 3, of at
    least two degrees."""
    n = draw(st.integers(1, 3))
    cube = [a for a in product(range(4), repeat=n) if any(a)]
    vecs = draw(
        st.lists(st.sampled_from(cube), min_size=2, max_size=6, unique=True).filter(
            lambda vs: len({sum(v) for v in vs}) > 1
        )
    )
    return MonomialIdeal(n, tuple(vecs))


class TestInDilation:
    @settings(max_examples=80, deadline=None)
    @given(equigenerated_ideals(), st.integers(0, 3))
    @example(TWO_SQUARES, 3)
    @example(MonomialIdeal(4, ((0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0))), 3)
    def test_equality_matches_the_lifted_polytope(self, ideal, b_max):
        # the lifted polytope's own cone decides bP on the same box slices;
        # the two examples are not normal, so their failures are not empty
        session = IdealSession(ideal)
        args = (ideal.exponents, session.degree, b_max)
        member = lifted_membership(ideal.exponents)
        report = semigroup._equality_report(*args, member.contains)
        assert session.equality(b_max) == report

    @pytest.mark.parametrize("ideal", [TWO_SQUARES, VERONESE_2_2])
    def test_matches_lifted_membership_on_a_box(self, ideal):
        session = IdealSession(ideal)
        member = lifted_membership(ideal.exponents)
        in_cone_off_slice = 0
        for point in product(range(-1, 6), repeat=ideal.n + 1):
            assert session.in_dilation(point) == member.contains(point), point
            a, b = point[:-1], point[-1]
            in_cone_off_slice += session.facets.contains(point) and sum(a) != session.degree * b
        assert in_cone_off_slice > 0

    def test_rejects_cone_points_off_the_slice(self):
        session = IdealSession(TWO_SQUARES)
        assert session.facets.contains((2, 1, 1))
        assert not session.in_dilation((2, 1, 1))
        assert session.in_dilation((1, 1, 1))

    def test_mixed_degree_uses_the_lifted_polytope(self, monkeypatch):
        # lifted by x -> (x, 2 - |x|) to the segment from (1, 0, 1) to (0, 2, 0)
        facets = count_calls(monkeypatch, semigroup, "facet_normals")
        session = IdealSession(MonomialIdeal(2, ((1, 0), (0, 2))))
        assert session.degree is None
        # P is the segment from (1, 0) to (0, 2), and 2P meets (1, 2)
        assert session.in_dilation((1, 2, 2))
        assert session.in_dilation((0, 2, 1))
        assert not session.in_dilation((1, 1, 1))
        assert not session.in_dilation((1, 0, 0))
        assert session.padded.ideal.exponents == ((0, 2, 0), (1, 0, 1))
        assert session.padded.degree == 2
        assert len(facets) == 1  # the padded cone's; the ideal's own is not needed

    def test_mixed_degree_decomposition_builds_two_facet_systems(self, monkeypatch):
        facets = count_calls(monkeypatch, semigroup, "facet_normals")
        session = IdealSession(MIXED_QUASI)
        assert session.degree is None
        assert session.decomposition.holds
        assert session.decomposition is session.decomposition
        assert len(facets) == 2  # the session's own and the padded one

    @settings(max_examples=40, deadline=None)
    @given(mixed_degree_ideals())
    @example(MonomialIdeal(2, ((1, 0), (0, 2))))
    def test_mixed_degree_matches_the_lifted_cone_on_a_box(self, ideal):
        """On every point (a, b) with -1 <= b <= 2 and -1 <= a_i <= 2 * 3 + 1,
        a box around 2P, the padded session agrees with the lifted
        polytope's own cone."""
        session = IdealSession(ideal)
        member = lifted_membership(ideal.exponents)
        for point in product(*[range(-1, 8)] * ideal.n, range(-1, 3)):
            assert session.in_dilation(point) == member.contains(point), point


class TestIdealSession:
    def test_artefacts_are_built_once(self, monkeypatch):
        facets = count_calls(monkeypatch, semigroup, "facet_normals")
        hilbert = count_calls(monkeypatch, semigroup, "hilbert_basis")
        session = IdealSession(VERONESE_2_2)
        assert session.certificate.method == "both"
        assert session.decomposition.holds
        assert session.normality.verdict == "normal"
        assert session.hilbert is session.hilbert
        assert (len(facets), len(hilbert)) == (1, 1)

    def test_cap_applies_to_the_hilbert_basis(self):
        session = IdealSession(TWO_SQUARES, cap=1)
        with pytest.raises(CapExceeded):
            session.hilbert
        with pytest.raises(CapExceeded):
            session.certificate

    def test_cap_exceeded_is_raised_again_not_recomputed(self, monkeypatch):
        hilbert = count_calls(monkeypatch, semigroup, "hilbert_basis")
        session = IdealSession(TWO_SQUARES, cap=1)
        messages = []
        for name in ("hilbert", "normality", "decomposition", "certificate", "hilbert"):
            with pytest.raises(CapExceeded) as exc:
                getattr(session, name)
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        assert len(hilbert) == 1
