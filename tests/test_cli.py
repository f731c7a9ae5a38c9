from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import canonical, labelled_walk
from test_acceptance import Budget

from reeskit import cli, jsonio, polymatroid
from reeskit.cli import main
from reeskit.errors import ReesKitError
from reeskit.matroid import basis_monomial_ideal, enumerate_matroids, matroid_classes
from reeskit.polymatroid import check_polymatroid_bases
from reeskit.semigroup import IdealSession


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def labelled_instances(n_max: int, rank: int | None = None) -> list:
    """(name, matroid) for every labelled matroid of a corpus sweep, from the
    oracle walk, each named by its position in its (n, d)'s sorted list."""
    return [(f"n{n}_d{d}_{idx:04d}", m) for n, d in cli._corpus_pairs(n_max, rank)
            for idx, m in enumerate(labelled_walk(n, d))]


def labelled_corpus(*argv) -> tuple[int, str]:
    """`corpus` as a labelled sweep: every selected check on every labelled
    matroid, one session each. The oracle for the class sweep of
    cmd_corpus; returns (exit code, stdout)."""
    args = cli._command_parser(None).parse_args(["corpus", *argv])
    codes = sorted(cli.CHECKS if args.checks is None else set(args.checks.split(",")))
    instances = labelled_instances(args.n_max, args.rank)
    failures = [[] for _ in codes]
    for name, m in instances:
        session = IdealSession(basis_monomial_ideal(m), args.cap)
        for code, found in zip(codes, failures):
            try:
                bad = cli._run_check(code, m, session, args)
            except ReesKitError as exc:
                bad = {"error": type(exc).__name__, "detail": str(exc)}
            if bad is not None:
                found.append({"instance": name, "matroid": m.to_json(), **bad})
    reports = []
    for code, found in zip(codes, failures):
        found.sort(key=lambda f: f["instance"])
        reports.append({
            "check": code,
            "title": cli.CHECKS[code],
            "instances": len(instances),
            "failures": found,
            "status": "pass" if not found else "fail",
        })
    out = jsonio.dumps({"n_max": args.n_max, "reports": reports})
    return (1 if any(failures) else 0), out


def loops(m) -> list[int]:
    """Elements in no basis of m."""
    return sorted(set(range(1, m.n + 1)) - {e for b in m.bases for e in b})


def count_polymatroid_walks(monkeypatch) -> list:
    """The families polymatroid._exchange_failures walks from here on; the
    walks check_basis_exchange runs on matroid bases are not counted."""
    walks, walk = [], polymatroid._exchange_failures

    def counting(family, *rest):
        walks.append(family)
        return walk(family, *rest)

    monkeypatch.setattr(polymatroid, "_exchange_failures", counting)
    return walks


def veronese_3_50(tmp_path) -> str:
    """Veronese(3, 50): 1,326 generators, where a per-generator recursion dies."""
    exps = [[a, b, 50 - a - b] for a in range(51) for b in range(51 - a)]
    p = tmp_path / "veronese_3_50.json"
    p.write_text(json.dumps({"n": 3, "exponents": exps}))
    return str(p)


class TestValidate:
    def test_bundled_ok(self, capsys):
        code, doc, _ = run_json(capsys, "validate", "bundled:u_2_3")
        assert code == 0
        assert doc["valid"] is True
        assert doc["kind"] == "matroid"

    def test_exchange_failure(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 4, "bases": [[1, 2], [3, 4]]}')
        code, doc, _ = run_json(capsys, "validate", str(p))
        assert code == 1
        assert doc["valid"] is False
        assert doc["witness"]["error"] == "exchange_failure"

    def test_parse_error(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("never json")
        code, doc, _ = run_json(capsys, "validate", str(p))
        assert code == 2
        assert doc["error"] == "parse"

    def test_missing_file(self, capsys, tmp_path):
        code, doc, _ = run_json(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_bundled_names_stay_in_the_instances_folder(self, capsys, tmp_path):
        outside = tmp_path / "outside.json"
        outside.write_text('{"n": 2, "bases": [[1], [2]]}')
        escape = os.path.relpath(outside, jsonio.INSTANCES)[: -len(".json")]
        assert os.path.exists(os.path.join(jsonio.INSTANCES, f"{escape}.json"))
        for name in (escape, "../instances/u_2_3", "./u_2_3"):
            code, doc, _ = run_json(capsys, "validate", f"bundled:{name}")
            assert code == 2
            assert doc["error"] == "parse"
            assert doc["detail"] == f"no bundled instance named {name!r}"

    def test_polymatroid_instance(self, capsys):
        code, doc, _ = run_json(capsys, "validate", "bundled:transversal_12_123")
        assert code == 0
        assert doc["normalized"]["polymatroid"] is True

    @pytest.mark.parametrize("n, shown", [
        (10**5, 10**5),
        (123456789012345678901, "123456789012345678901"),
    ])
    def test_large_ground_set_is_one_document(self, capsys, tmp_path, n, shown):
        # the exchange check packs only the elements some basis uses
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"n": n, "bases": [[1], [2]]}))
        with Budget(1.0):
            code, doc, _ = run_json(capsys, "validate", str(p))
        assert code == 0
        assert doc == {"kind": "matroid", "name": "big", "valid": True,
                       "normalized": {"n": shown, "bases": [[1], [2]]}}


class TestClassify:
    def test_quasi(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "bundled:ideal_two_squares")
        assert code == 0
        assert doc["classification"]["verdict"] == "quasi_ideal"

    def test_neither_exits_one(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "bundled:ideal_mixed_neither")
        assert code == 1
        assert doc["classification"]["offending_normal"] == [1, 2, -3]

    def test_ideal(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "bundled:ideal_principal")
        assert code == 0
        assert doc["classification"]["verdict"] == "ideal"


class TestNormality:
    def test_not_normal_exits_one(self, capsys):
        code, doc, _ = run_json(capsys, "normality", "bundled:ideal_two_squares")
        assert code == 1
        assert doc["certificate"]["witness"] == [1, 1, 1]
        assert doc["certificate"]["method"] == "both"

    def test_normal(self, capsys):
        code, doc, _ = run_json(capsys, "normality", "bundled:u_2_3")
        assert code == 0
        assert doc["certificate"]["verdict"] == "normal"


class TestHilbert:
    def test_elements(self, capsys):
        code, doc, _ = run_json(capsys, "hilbert", "bundled:ideal_two_squares")
        assert code == 0
        assert [1, 1, 1] in doc["hilbert"]["elements"]

    def test_cap_exits_three(self, capsys):
        code, doc, _ = run_json(
            capsys, "hilbert", "bundled:ideal_two_squares", "--cap", "1"
        )
        assert code == 3
        assert doc["error"] == "cap_exceeded"


class TestAnalyze:
    def test_full_report(self, capsys):
        code, doc, _ = run_json(capsys, "analyze", "bundled:graphic_k3")
        assert code == 0
        for key in ("ideal", "generators", "facets", "classification",
                    "hilbert", "normality"):
            assert key in doc

    def test_cap_notice_stays_in_band(self, capsys):
        code, doc, _ = run_json(
            capsys, "analyze", "bundled:ideal_two_squares", "--cap", "1"
        )
        assert code == 0
        assert doc["hilbert"]["error"] == "cap_exceeded"
        assert doc["normality"]["error"] == "cap_exceeded"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "analyze", "bundled:u_2_4")
        _, second, _ = run(capsys, "analyze", "bundled:u_2_4")
        assert first == second

    def test_invalid_instance(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 4, "bases": [[1, 2], [3, 4]]}')
        code, doc, _ = run_json(capsys, "analyze", str(p))
        assert code == 1
        assert doc["error"] == "invalid_instance"


class TestReesFacets:
    def test_oracle_runs_below_cap(self, capsys):
        code, doc, _ = run_json(capsys, "rees-facets", "bundled:u_2_3")
        assert code == 0
        assert doc["oracle_checked"] is True

    def test_oracle_skipped_above_cap(self, capsys):
        # 22 generators: the subset oracle would be too slow by default
        code, doc, _ = run_json(capsys, "rees-facets", "bundled:graphic_k4")
        assert code == 0
        assert doc["oracle_checked"] is False


class TestEhrhartCheck:
    def test_failing_ideal(self, capsys):
        code, doc, _ = run_json(
            capsys, "ehrhart-check", "bundled:ideal_two_squares", "--bmax", "2"
        )
        assert code == 1
        assert doc["equality"]["first_witness"] == {"b": 1, "point": [1, 1]}

    def test_passing_default_bound(self, capsys):
        code, doc, _ = run_json(capsys, "ehrhart-check", "bundled:veronese_2_3")
        assert code == 0
        assert doc["equality"]["passed"] is True

    def test_negative_bmax_is_a_parse_error(self, capsys):
        code, doc, _ = run_json(
            capsys, "ehrhart-check", "bundled:veronese_2_3", "--bmax", "-1"
        )
        assert code == 2
        assert doc["error"] == "parse"
        assert "--bmax" in doc["detail"]

    def test_many_generators_do_not_recurse(self, capsys, tmp_path):
        code, doc, _ = run_json(
            capsys, "ehrhart-check", veronese_3_50(tmp_path), "--bmax", "1"
        )
        assert code == 0
        assert doc["equality"]["dilations"] == [{"b": 1, "failures": [], "points": 1326}]

    def test_normality_many_generators_do_not_recurse(self, capsys, tmp_path):
        code, out, _ = run(capsys, "normality", veronese_3_50(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"] == {"verdict": "normal", "method": "both"}


class TestPolymatroidCheck:
    def test_bundled_polymatroid(self, capsys):
        code, doc, _ = run_json(
            capsys, "polymatroid-check", "bundled:transversal_12_123"
        )
        assert code == 0
        assert doc["valid"] is True
        assert doc["symmetric_exchange_violations"] == []

    def test_matroid_instances_convert(self, capsys):
        code, doc, _ = run_json(capsys, "polymatroid-check", "bundled:u_2_4")
        assert code == 0

    def test_matroid_bases_are_what_the_walk_returns(self):
        # every labelled matroid on at most 5 elements: the record built
        # without a second walk is the one the walk returns
        for n in range(1, 6):
            for d in range(1, n + 1):
                for m in enumerate_matroids(n, d):
                    session = IdealSession(basis_monomial_ideal(m))
                    want = check_polymatroid_bases(n, session.ideal.exponents)
                    assert cli._matroid_bases(session) == want

    def test_matroid_bases_are_walked_once(self, capsys, monkeypatch):
        # u_2_4: check_basis_exchange validates it; then four divisions and
        # the symmetric walk, and no second walk of its bases
        walks = count_polymatroid_walks(monkeypatch)
        code, doc, _ = run_json(capsys, "polymatroid-check", "bundled:u_2_4")
        assert code == 0
        assert len(walks) == 5

    def test_invalid_vectors(self, capsys, tmp_path):
        p = tmp_path / "gap.json"
        p.write_text('{"n": 2, "exponents": [[2, 0], [0, 2]], "polymatroid": true}')
        code, doc, _ = run_json(capsys, "polymatroid-check", str(p))
        assert code == 1
        assert doc["valid"] is False


class TestCorpus:
    def test_small_sweep_passes(self, capsys):
        code, doc, _ = run_json(capsys, "corpus", "3")
        assert code == 0
        assert {r["check"] for r in doc["reports"]} == {
            "T3.6", "P3.7", "C3.9", "T2.2", "L3.10"
        }
        for r in doc["reports"]:
            assert r["status"] == "pass"
            # 1 + (3+1) + (7+7+1) labeled matroids on up to 3 elements
            assert r["instances"] == 20
            assert r["failures"] == []

    def test_rank_filter(self, capsys):
        code, doc, _ = run_json(capsys, "corpus", "3", "--rank", "2")
        assert code == 0
        # rank 2 exists on 2 and 3 elements: 1 + 7 matroids
        assert doc["reports"][0]["instances"] == 8

    def test_check_selection(self, capsys):
        code, doc, _ = run_json(capsys, "corpus", "2", "--checks", "T3.6")
        assert code == 0
        assert len(doc["reports"]) == 1

    def test_unknown_check(self, capsys):
        code, doc, _ = run_json(capsys, "corpus", "2", "--checks", "T9.9")
        assert code == 2

    def test_repeated_check_runs_once(self, capsys, monkeypatch):
        calls = []
        run_check = cli._run_check

        def counting(code, *rest):
            calls.append(code)
            return run_check(code, *rest)

        monkeypatch.setattr("reeskit.cli._run_check", counting)
        code, doc, _ = run_json(capsys, "corpus", "2", "--checks", "T3.6,T3.6")
        assert code == 0
        assert [r["check"] for r in doc["reports"]] == ["T3.6"]
        # one T3.6 run per class: the 1 + (3 + 1) labelled matroids on at
        # most 2 elements form 1 + (2 + 1) classes
        assert calls == ["T3.6"] * 4
        assert doc["reports"][0]["instances"] == 5

    @pytest.mark.parametrize("checks", ["", ","])
    def test_empty_selection_is_a_parse_error(self, capsys, checks):
        code, doc, _ = run_json(capsys, "corpus", "2", "--checks", checks)
        assert code == 2
        assert doc["error"] == "parse"

    def test_negative_bmax_is_a_parse_error(self, capsys):
        code, doc, _ = run_json(capsys, "corpus", "3", "--bmax", "-1")
        assert code == 2
        assert doc["error"] == "parse"
        assert "--bmax" in doc["detail"]

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_is_a_parse_error(self, capsys, n_max):
        code, doc, _ = run_json(capsys, "corpus", n_max)
        assert code == 2
        assert doc["error"] == "parse"
        assert "n_max" in doc["detail"]

    @pytest.mark.parametrize("rank", ["0", "-2", "4"])
    def test_rank_outside_range_is_a_parse_error(self, capsys, rank):
        code, doc, _ = run_json(capsys, "corpus", "3", "--rank", rank)
        assert code == 2
        assert doc["error"] == "parse"
        assert "--rank" in doc["detail"]

    def test_above_cap_exits_three_before_enumerating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"enumerated {args} past the cap")

        monkeypatch.setattr("reeskit.cli.enumerate_matroids", refuse)
        monkeypatch.setattr("reeskit.cli.matroid_classes", refuse)
        code, doc, _ = run_json(capsys, "corpus", "8")
        assert code == 3
        assert doc["error"] == "cap_exceeded"

    def test_above_cap_exits_promptly(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reeskit.cli", "corpus", "8"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 3
        assert json.loads(proc.stdout)["error"] == "cap_exceeded"


class TestCorpusClasses:
    """The class sweep prints what the labelled sweep prints."""

    @pytest.mark.parametrize("n_max", ["1", "2", "3", "4", "5"])
    @pytest.mark.parametrize("checks", [None, *sorted(cli.CHECKS)])
    def test_matches_labelled_sweep(self, capsys, n_max, checks):
        argv = [n_max] if checks is None else [n_max, "--checks", checks]
        code, out, _ = run(capsys, "corpus", *argv)
        assert (code, out) == labelled_corpus(*argv)

    def test_classes_group_by_canonical_form(self):
        # one class per canonical form, represented by its first labelled member
        instances = labelled_instances(5)
        want = {}
        for i, (_, m) in enumerate(instances):
            want.setdefault(canonical(m), []).append(i)
        index = {(m.n, m.bases): i for i, (_, m) in enumerate(instances)}
        got = {}
        pairs = cli._corpus_pairs(5, None)
        for (n, _), orbit in zip(pairs, matroid_classes(pairs)):
            for bases, rep in orbit.items():
                got.setdefault(index[n, rep.bases], []).append(index[n, bases])
        assert sorted((rep, sorted(members)) for rep, members in got.items()) == [
            (members[0], members) for members in want.values()]

    def test_six_elements_make_161_classes(self):
        # 1 + 3 + 7 + 16 + 37 + 97: OEIS A055545 less rank 0
        reps = {rep for orbit in matroid_classes(cli._corpus_pairs(6, None))
                for rep in orbit.values()}
        assert len(reps) == 161

    @pytest.mark.parametrize("argv", [
        ("5", "--rank", "2"),
        ("3", "--cap", "0"),
        ("4", "--cap", "2"),
        ("4", "--bmax", "0"),
        ("3", "--format", "text"),
    ])
    def test_matches_labelled_sweep_with_options(self, capsys, argv):
        code, out, _ = run(capsys, "corpus", *argv)
        want_code, want = labelled_corpus(*argv)
        if "text" in argv:
            want = cli._render_text(json.loads(want)) + "\n"
        assert (code, out) == (want_code, want)

    def test_label_invariant_failure_reports_every_member(self, capsys, monkeypatch):
        run_check = cli._run_check

        def loops_fail(code, m, *rest):
            if code == "T3.6" and loops(m):
                return {"loops": loops(m)}
            return run_check(code, m, *rest)

        monkeypatch.setattr("reeskit.cli._run_check", loops_fail)
        code, out, _ = run(capsys, "corpus", "4")
        assert (code, out) == labelled_corpus("4")
        assert code == 1
        reports = {r["check"]: r for r in json.loads(out)["reports"]}
        names = [f["instance"] for f in reports["T3.6"]["failures"]]
        want = sorted(name for name, m in labelled_instances(4) if loops(m))
        assert names == want
        assert len(names) > len({canonical(m) for _, m in labelled_instances(4)
                                 if loops(m)})
        assert all(r["status"] == "pass" for c, r in reports.items() if c != "T3.6")

    def test_passing_class_runs_each_check_once(self, capsys, monkeypatch):
        calls = []
        run_check = cli._run_check

        def recording(code, m, *rest):
            calls.append((code, m))
            return run_check(code, m, *rest)

        monkeypatch.setattr("reeskit.cli._run_check", recording)
        code, doc, _ = run_json(capsys, "corpus", "4")
        assert code == 0
        seen, reps = set(), []
        for _, m in labelled_instances(4):
            if canonical(m) not in seen:
                seen.add(canonical(m))
                reps.append(m)
        # 1 + 3 + 7 + 16 classes (OEIS A055545 less rank 0) of 1 + 4 + 15 + 67
        # labelled matroids
        assert (len(reps), doc["reports"][0]["instances"]) == (27, 87)
        for c in cli.CHECKS:
            assert [m for code, m in calls if code == c] == reps

    def test_l310_walks_each_class_once_per_division(self, capsys, monkeypatch):
        walks = count_polymatroid_walks(monkeypatch)
        code, doc, _ = run_json(capsys, "corpus", "4", "--checks", "L3.10")
        assert code == 0
        reps = {m for orbit in matroid_classes(cli._corpus_pairs(4, None))
                for m in orbit.values()}
        # one walk per variable some basis uses, none to revalidate the bases
        assert len(walks) == sum(len({e for b in m.bases for e in b}) for m in reps)


class TestEnumerateMatroids:
    def test_count(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate-matroids", "3", "2")
        assert code == 0
        assert doc["count"] == 7
        assert len(doc["matroids"]) == 7

    def test_cap(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate-matroids", "8", "2")
        assert code == 3

    @pytest.mark.parametrize("n, d", [("0", "1"), ("3", "4"), ("3", "0"), ("8", "9")])
    def test_bad_sizes_are_parse_errors(self, capsys, n, d):
        # checked before the cap, so (8, 9) is a usage error, not exit 3
        code, doc, _ = run_json(capsys, "enumerate-matroids", n, d)
        assert code == 2
        assert doc["error"] == "parse"


class TestInstances:
    def test_list(self, capsys):
        code, doc, _ = run_json(capsys, "instances")
        assert code == 0
        assert "veronese_3_4" in doc["bundled"]

    def test_show(self, capsys):
        code, doc, _ = run_json(capsys, "instances", "--show", "u_1_1")
        assert code == 0
        assert doc["payload"] == {"n": 1, "bases": [[1]]}

    def test_show_unknown(self, capsys):
        code, doc, _ = run_json(capsys, "instances", "--show", "missing")
        assert code == 2


class TestCapFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            (name, "bundled:graphic_k4")
            for name in ("validate", "analyze", "rees-facets", "classify", "hilbert",
                         "normality", "ehrhart-check", "polymatroid-check")
        ]
        + [("corpus", "2", "--checks", "C3.9"), ("enumerate-matroids", "3", "2"),
           ("instances",)],
    )
    def test_negative_cap_is_a_parse_error(self, capsys, argv):
        code, doc, _ = run_json(capsys, *argv, "--cap", "-1")
        assert code == 2
        assert doc["error"] == "parse"
        assert "--cap" in doc["detail"]

    def test_zero_cap_keeps_its_meaning(self, capsys):
        code, doc, _ = run_json(capsys, "hilbert", "bundled:ideal_two_squares", "--cap", "0")
        assert code == 3
        assert doc["error"] == "cap_exceeded"
        code, doc, _ = run_json(capsys, "classify", "bundled:ideal_two_squares", "--cap", "0")
        assert code == 0
        assert doc["classification"]["verdict"] == "quasi_ideal"


BAD_MATROID = {"kind": "matroid", "name": "bad_m",
               "payload": {"n": 4, "bases": [[1, 2], [3, 4]]}}
EXCHANGE_FAILURE = {"basis_a": [1, 2], "basis_b": [3, 4], "element": 1,
                    "error": "exchange_failure"}


class TestInvalidInstance:
    """Every command that analyses an instance reads it once and answers an
    invalid one with the same document, through one path."""

    @pytest.mark.parametrize("command", ["analyze", "rees-facets", "classify", "hilbert",
                                         "normality", "ehrhart-check", "polymatroid-check"])
    def test_one_document_and_one_read(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_MATROID))
        reads = []
        load = jsonio.load_instance
        monkeypatch.setattr(jsonio, "load_instance", lambda src: reads.append(src) or load(src))
        code, out, _ = run(capsys, command, str(path))
        want = {"error": "invalid_instance", "witness": EXCHANGE_FAILURE}
        if command == "analyze":  # analyze alone names the instance
            want.update(kind="matroid", name="bad_m")
        assert (code, out) == (1, jsonio.dumps(want))
        assert reads == [str(path)]

    def test_not_caught_as_a_library_error(self):
        # so corpus's per-check net and main's generic branch never see it
        assert not issubclass(cli._Invalid, ReesKitError)


DIGIT_LIMITED = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                   reason="the interpreter has no int digit limit")


class TestMalformedInput:
    """An input the decoder or the writer cannot take ends in one document."""

    @pytest.mark.parametrize("command, text, code, error", [
        pytest.param("validate", '{"n": %s, "bases": [[1]]}' % ("1" * 5000), 2, "parse",
                     marks=DIGIT_LIMITED, id="5000-digit-literal"),
        pytest.param("validate", '{"n": "%s", "bases": [[1]]}' % ("1" * 5000), 2, "parse",
                     marks=DIGIT_LIMITED, id="5000-digit-string"),
        pytest.param("validate", "[" * 100000 + "]" * 100000, 2, "parse", id="deep-nesting"),
        pytest.param("validate", b'{"n": 1, "bases": [[1]], "name": "\xff"}', 2, "parse",
                     id="non-utf-8"),
        # the l-normal's last entry, -ab, has about 6,000 digits
        pytest.param("classify", json.dumps({"n": 2, "exponents": [
            [str(10**3000 + 1), "0"], ["0", str(10**3000 + 3)]]}), 3, "cap_exceeded",
            marks=DIGIT_LIMITED, id="oversized-result"),
    ])
    def test_one_document(self, request, capsys, tmp_path, command, text, code, error):
        path = tmp_path / "malformed.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text, encoding="utf-8")
        got, doc, err = run_json(capsys, command, str(path))
        assert (got, doc["error"], sorted(doc)) == (code, error, ["detail", "error"])
        assert err.count("wall_time_s") == 1
        if request.node.callspec.id in ("5000-digit-literal", "5000-digit-string",
                                        "oversized-result"):
            # a CLI user can set the environment variable, not call the function
            assert "PYTHONINTMAXSTRDIGITS" in doc["detail"]
            assert "sys.set_int_max_str_digits" not in doc["detail"]


class TestHandlers:
    ARGV = [
        ["validate", "bundled:u_2_3"],
        ["analyze", "bundled:graphic_k3"],
        ["rees-facets", "bundled:ideal_two_squares"],
        ["classify", "bundled:ideal_mixed_neither"],
        ["hilbert", "bundled:ideal_two_squares"],
        ["normality", "bundled:ideal_two_squares"],
        ["ehrhart-check", "bundled:veronese_2_3"],
        ["polymatroid-check", "bundled:transversal_12_123"],
        ["corpus", "3"],
        ["enumerate-matroids", "3", "2"],
        ["instances"],
    ]

    def test_every_command_is_covered(self):
        assert sorted(argv[0] for argv in self.ARGV) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_returns_its_document_and_writes_nothing(self, capsys, argv):
        args = cli._parse(argv)
        got = args.handler(args)
        assert capsys.readouterr().out == ""
        assert isinstance(got, tuple) and len(got) == 2
        doc, code = got
        assert isinstance(doc, dict) and type(code) is int
        assert main(argv) == code
        assert capsys.readouterr().out == jsonio.dumps(doc)


class TestFormatAndTrailer:
    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "classify", "bundled:ideal_two_squares", "--format", "text"
        )
        assert code == 0
        assert "verdict: quasi_ideal" in out
        assert "[1, 1, -2]" in out

    @pytest.mark.parametrize("e", [2**53 - 1, 2**53])
    def test_53_bit_rule_in_both_formats(self, capsys, tmp_path, e):
        # x^e: generators (1, 0) and (e, 1), one facet normal (1, -e); an int
        # outside (-2^53, 2^53) is its decimal string in JSON, and the text
        # form shows the same digits either way
        path = tmp_path / "power.json"
        path.write_text(json.dumps({"n": 1, "exponents": [[str(e)]]}))
        code, doc, _ = run_json(capsys, "rees-facets", str(path))
        wire = str if e == 2**53 else int
        assert code == 0
        assert doc["generators"] == [[1, 0], [wire(e), 1]]
        assert doc["facets"]["ell_normals"] == [[1, wire(-e)]]
        code, out, _ = run(capsys, "rees-facets", str(path), "--format", "text")
        assert code == 0
        assert out == (f"facets:\n  ell_normals:\n    - [1, {-e}]\n  unit_normals: [2]\n"
                       f"generators:\n  - [1, 0]\n  - [{e}, 1]\nname: power\n"
                       "oracle_checked: True\n")

    def test_wall_time_on_stderr_only(self, capsys):
        _, out, err = run(capsys, "classify", "bundled:ideal_principal")
        assert "wall_time_s" in err
        assert "wall_time_s" not in out

    def test_no_command_prints_help(self, capsys):
        code, doc, err = run_json(capsys)
        assert code == 2
        assert doc == {"error": "parse", "detail": "no command given"}
        assert "usage: reeskit" in err

    def test_unknown_command_exits_two(self, capsys):
        code, doc, err = run_json(capsys, "no-such-command")
        assert code == 2
        assert doc["error"] == "parse"
        assert "invalid choice: 'no-such-command'" in doc["detail"]
        assert "usage: reeskit" in err

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (("analyze",), "the following arguments are required: instance"),
            (("hilbert", "bundled:u_1_1", "--cap", "q"), "argument --cap: invalid int value: 'q'"),
            (("corpus",), "the following arguments are required: n_max"),
            (("validate", "bundled:u_1_1", "--format", "xml"), "argument --format: invalid choice"),
            (("instances", "--bogus"), "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_errors_print_one_json_document(self, capsys, argv, detail):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"] == "parse"
        assert doc["detail"].startswith(detail)

    def test_help_keeps_its_behaviour(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: reeskit")


class TestParserReuse:
    def test_one_parser_built_on_the_first_call(self):
        # the full parser is the one entry after an unknown command, and the
        # argv it parses later (none, unknown, rejected by a command's own
        # parser) reuse it: only that command's parser is added
        script = (
            "import contextlib, io\n"
            "from reeskit import cli\n"
            "sizes = [cli._command_parser.cache_info().currsize]\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    for argv in (['no-such-command'], [], ['no-such-command'],\n"
            "                 ['instances', '--bogus']):\n"
            "        cli.main(argv)\n"
            "        sizes.append(cli._command_parser.cache_info().currsize)\n"
            "print(*sizes, cli._command_parser.cache_info().misses)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["0", "1", "1", "1", "2", "2"]

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("no-such-command",),
            ("hilbert", "bundled:u_1_1", "--cap", "q"),
            ("corpus",),
            ("instances", "--bogus"),
            ("hilbert", "bundled:u_1_1", "--cap", "-1"),
            ("validate", "bundled:u_1_1"),
        ],
    )
    def test_repeated_calls_print_the_same_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        for other in (("instances",), ("corpus",), argv):
            run(capsys, *other)
        again = run(capsys, *argv)
        assert again[:2] == first[:2]
        assert again[2].split("wall_time_s")[0] == first[2].split("wall_time_s")[0]


def run_any(capsys, argv) -> tuple:
    """(exit code, stdout, stderr less the wall-time trailer) of main(argv),
    a help request's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err.split("wall_time_s")[0]


ONE_COMMAND_ARGVS = [
    ("corpus", "2"), ("corpus",), ("corpus", "x"), ("corpus", "2", "extra"),
    ("corpus", "2", "--bogus"), ("corpus", "2", "--ra", "2"), ("corpus", "-h"),
    ("corpus", "--help", "x"), ("corpus", "2", "--format", "xml"),
    ("corpus", "2", "--checks"), ("corpus", "--", "2"), ("analyze",), ("analyze", "-h"),
    ("hilbert", "bundled:u_1_1", "--cap", "q"), ("hilbert", "bundled:u_1_1", "--cap", "-1"),
    ("validate", "bundled:u_1_1"), ("validate", "bundled:u_1_1", "extra"),
    ("instances",), ("instances", "--bogus"), ("instances", "--show"),
    ("instances", "-h", "--bogus"), ("enumerate-matroids", "3"),
    ("enumerate-matroids", "3", "2", "-h"), ("rees-facets", "bundled:u_1_1", "--oracle"),
    ("ehrhart-check", "bundled:u_1_1", "--bmax", "x"),
    ("polymatroid-check", "bundled:u_1_1", "--format", "text"),
]


class TestOneCommandParser:
    """A known command is parsed by a parser holding that command alone."""

    def test_commands_are_the_full_parsers(self):
        (sub,) = cli._command_parser(None)._subparsers._group_actions
        assert tuple(sub.choices) == cli.COMMANDS

    @pytest.mark.parametrize("argv", ONE_COMMAND_ARGVS)
    def test_prints_what_the_full_parser_prints(self, capsys, monkeypatch, argv):
        got = run_any(capsys, argv)
        monkeypatch.setattr(cli, "COMMANDS", ())  # every argv to the full parser
        assert got == run_any(capsys, argv)

    def test_built_once_per_command_and_the_full_parser_only_on_need(self):
        # two known commands that parse: their two parsers and no full one;
        # a rejected argv then adds the full parser, once
        script = (
            "import contextlib, io\n"
            "from reeskit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    cli.main(['instances'])\n"
            "    cli.main(['enumerate-matroids', '2', '1'])\n"
            "    cli.main(['instances'])\n"
            "    print(cli._command_parser.cache_info().currsize, file=sys.__stdout__)\n"
            "    cli.main(['instances', '--bogus'])\n"
            "    cli.main(['enumerate-matroids', '2', 'x'])\n"
            "    info = cli._command_parser.cache_info()\n"
            "    print(info.currsize, info.misses, file=sys.__stdout__)\n"
        )
        proc = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["2", "3", "3"]


# Successive main() calls in one process, as a batch caller makes them:
# instance files that are random, malformed or truncated JSON, interleaved
# with usage errors and valid calls.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.text(max_size=3),
    st.sampled_from(["3", "-1", "x", 1.5, 10**20]),
)
VECTORS = st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=5)
PAYLOADS = st.fixed_dictionaries(
    {"n": st.one_of(st.integers(-1, 4), JSON_SCALARS)},
    optional={
        "exponents": st.one_of(VECTORS, JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3)),
        "bases": st.one_of(VECTORS, JSON_SCALARS),
        "polymatroid": st.one_of(st.booleans(), JSON_SCALARS),
    },
)
WELL_FORMED = st.integers(1, 3).flatmap(
    lambda n: st.one_of(
        st.fixed_dictionaries({
            "n": st.just(n),
            "exponents": st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                                  min_size=1, max_size=4),
        }, optional={"polymatroid": st.booleans()}),
        st.fixed_dictionaries({
            "n": st.just(n),
            "bases": st.lists(st.sets(st.integers(1, n), min_size=1).map(sorted),
                              min_size=1, max_size=4),
        }),
    )
)
DOCUMENTS = st.one_of(
    PAYLOADS,
    st.fixed_dictionaries(
        {"payload": st.one_of(PAYLOADS, WELL_FORMED, JSON_SCALARS)},
        optional={
            "kind": st.one_of(st.sampled_from(["ideal", "matroid", "polymatroid", "graph"]),
                              JSON_SCALARS, st.lists(JSON_SCALARS, max_size=2)),
            "name": JSON_SCALARS,
        },
    ),
    st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=5),
)
TEXTS = st.one_of(
    WELL_FORMED.map(json.dumps),
    DOCUMENTS.map(json.dumps),
    DOCUMENTS.map(lambda doc: json.dumps(doc)[:-1]),
    st.text(max_size=12),
)
INSTANCE_COMMANDS = (
    "validate", "classify", "hilbert", "normality", "analyze", "rees-facets",
    "polymatroid-check", "ehrhart-check",
)
OTHER_CALLS = (
    (), ("no-such-command",), ("analyze",), ("corpus",), ("instances", "--bogus"),
    ("instances", "--show", "no_such_instance"), ("instances",), ("corpus", "0"),
    ("corpus", "2", "--rank", "5"), ("corpus", "2", "--checks", "T3.6,XX"),
    ("enumerate-matroids", "3", "0"), ("enumerate-matroids", "3", "2"),
    ("validate", "{file}", "--format", "xml"), ("hilbert", "{file}", "--cap", "q"),
    ("hilbert", "{file}", "--cap", "-1"), ("ehrhart-check", "{file}", "--bmax", "-2"),
    ("classify", "{file}", "--no-such-flag"), ("normality", "{missing}"),
)
CALLS = st.one_of(
    st.tuples(
        st.sampled_from(INSTANCE_COMMANDS).map(lambda c: (c, "{file}")),
        st.sampled_from(((), ("--cap", "0"), ("--cap", "6"), ("--cap", "400"))),
    ).map(lambda pair: pair[0] + pair[1]),
    st.sampled_from(OTHER_CALLS),
)


class TestMainFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(TEXTS, CALLS), min_size=1, max_size=5))
    def test_every_call_prints_one_json_document(self, calls):
        with tempfile.TemporaryDirectory() as tmp:
            for i, (text, call) in enumerate(calls):
                path = Path(tmp) / f"instance_{i}.json"
                path.write_text(text)
                argv = [a.format(file=path, missing=Path(tmp) / "missing.json") for a in call]
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 1, 2, 3), (argv, text, code)
                doc = json.loads(out.getvalue())
                assert isinstance(doc, dict), (argv, text)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "reeskit.cli", "validate", "bundled:u_1_1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
    assert "wall_time_s" in proc.stderr
