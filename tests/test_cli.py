from __future__ import annotations

import contextlib
import hashlib
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

from reeskit import cli, jsonio, polymatroid, semigroup
from reeskit.cli import main
from reeskit.errors import ReesKitError
from reeskit.matroid import Matroid, basis_monomial_ideal, enumerate_matroids, matroid_classes
from reeskit.polymatroid import check_polymatroid_bases
from reeskit.reescone import FacetSystem, facet_normals
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

    @pytest.mark.parametrize("doc, detail", [
        ({"kind": "matroid", "payload": {"n": 2}}, "payload of kind 'matroid' is missing 'bases'"),
        ({"kind": "bogus", "payload": {"n": 1}},
         "unknown kind 'bogus'; expected one of ('matroid', 'ideal', 'polymatroid')"),
    ], ids=["missing_key", "unknown_kind"])
    def test_explicit_kind_is_not_inferred(self, capsys, tmp_path, doc, detail):
        # the kind is inferred from the payload's keys only when none is given
        p = tmp_path / "kinded.json"
        p.write_text(json.dumps(doc))
        code, got, _ = run_json(capsys, "validate", str(p))
        assert (code, got) == (2, {"error": "parse", "detail": detail})

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

    @pytest.mark.parametrize("payload, error, detail", [
        ({"n": 0, "exponents": [[1]]}, "InvalidInstance", "need at least one variable"),
        ({"n": 2, "exponents": [[1, 0, 0]]}, "InvalidInstance",
         "exponent vector (1, 0, 0) has dimension != 2"),
        ({"n": 2, "exponents": [[1, -1]]}, "InvalidInstance",
         "exponent vector (1, -1) has a negative entry"),
        ({"n": 2, "exponents": []}, "EmptyInput", "need at least one generator"),
        ({"n": 2, "exponents": [[1]], "polymatroid": True}, "InvalidInstance",
         "vector (1,) has dimension != 2"),
        ({"n": 0, "exponents": [[1]], "polymatroid": True}, "InvalidInstance",
         "need at least one coordinate"),
    ], ids=["ideal_n0", "ideal_long_row", "ideal_negative", "ideal_empty",
            "polymatroid_short_row", "polymatroid_n0"])
    def test_invalid_family_is_a_witness(self, capsys, tmp_path, payload, error, detail):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        code, doc, _ = run_json(capsys, "validate", str(p))
        kind = "polymatroid" if "polymatroid" in payload else "ideal"
        assert (code, doc) == (1, {"kind": kind, "name": "bad", "valid": False,
                                   "witness": {"error": error, "detail": detail}})


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

    def test_forced_oracle_charges_its_subsets_to_the_cap(self, capsys):
        # veronese_3_4: 18 generators in dimension 4, so C(18, 3) = 816 subsets
        code, doc, _ = run_json(capsys, "rees-facets", "bundled:veronese_3_4", "--oracle",
                                "--cap", "816")
        assert code == 0
        assert doc["oracle_checked"] is True
        code, doc, _ = run_json(capsys, "rees-facets", "bundled:veronese_3_4", "--oracle",
                                "--cap", "815")
        assert code == 3
        assert doc == {"error": "cap_exceeded", "detail": "the oracle's 816 subsets of 3 "
                       "of the 18 generators exceed the cap 815"}

    def test_forced_oracle_past_the_cap_ends_before_enumerating(self, capsys):
        # graphic_k4: C(22, 6) = 74,613 subsets, about 3 s of eliminations
        with Budget(1.0):
            code, doc, _ = run_json(capsys, "rees-facets", "bundled:graphic_k4", "--oracle",
                                    "--cap", "74612")
        assert code == 3
        assert doc["error"] == "cap_exceeded"


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
        # every labelled matroid on at most 5 elements, and the rank-0 ones:
        # the record built without a second walk is the one the walk returns
        for n in range(1, 6):
            for m in (Matroid(n, 0, ((),)), *(m for d in range(1, n + 1)
                                                for m in enumerate_matroids(n, d))):
                vectors = [[int(e in b) for e in range(1, n + 1)] for b in m.bases]
                assert cli._bases(m) == check_polymatroid_bases(n, vectors)

    def test_matroid_bases_are_walked_once(self, capsys, monkeypatch):
        # u_2_4: check_basis_exchange validates it; then four divisions and
        # the symmetric walk, and no second walk of its bases
        walks = count_polymatroid_walks(monkeypatch)
        code, doc, _ = run_json(capsys, "polymatroid-check", "bundled:u_2_4")
        assert code == 0
        assert len(walks) == 5

    @pytest.mark.parametrize("kind", ["polymatroid", "ideal"])
    def test_other_kinds_are_walked_once(self, capsys, monkeypatch, tmp_path, kind):
        # Veronese(3, 2): one walk validates it, then three divisions and the
        # symmetric walk; neither kind's bases are walked a second time
        exps = jsonio.load_bundled("veronese_3_2").vectors
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"kind": kind, "payload": {"n": 3, "exponents": exps}}))
        walks = count_polymatroid_walks(monkeypatch)
        code, _, _ = run(capsys, "polymatroid-check", str(path))
        assert (code, len(walks)) == (0, 5)

    def test_invalid_vectors(self, capsys, tmp_path):
        # a polymatroid that fails exchange is an invalid instance; the same
        # vectors as an ideal are valid, just not polymatroid bases
        witness = {"error": "exchange_failure", "vec_a": [0, 2], "vec_b": [2, 0], "index": 2}
        p = tmp_path / "gap.json"
        p.write_text('{"n": 2, "exponents": [[2, 0], [0, 2]], "polymatroid": true}')
        code, doc, _ = run_json(capsys, "polymatroid-check", str(p))
        assert (code, doc) == (1, {"error": "invalid_instance", "witness": witness})
        p.write_text('{"n": 2, "exponents": [[2, 0], [0, 2]]}')
        code, doc, _ = run_json(capsys, "polymatroid-check", str(p))
        assert (code, doc) == (1, {"name": "gap", "valid": False, "witness": witness})


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

    def test_show_polymatroid(self, capsys):
        code, doc, _ = run_json(capsys, "instances", "--show", "veronese_2_2")
        assert (code, doc) == (0, {"kind": "polymatroid", "name": "veronese_2_2", "payload": {
            "n": 2, "exponents": [[0, 2], [1, 1], [2, 0]], "polymatroid": True}})

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
# one invalid instance of each kind -> the witness its document carries
BAD_INSTANCES = [
    (BAD_MATROID, EXCHANGE_FAILURE),
    ({"kind": "polymatroid", "name": "bad_p",
      "payload": {"n": 2, "exponents": [[2, 0], [0, 1]], "polymatroid": True}},
     {"error": "UnequalModuli", "detail": "vectors (0, 1) and (2, 0) have different moduli"}),
    ({"kind": "ideal", "name": "bad_i", "payload": {"n": 2, "exponents": [[1, 1], [1, 1]]}},
     {"error": "InvalidInstance", "detail": "exponent vectors must be pairwise distinct"}),
]
ANALYSING = ["analyze", "rees-facets", "classify", "hilbert", "normality", "ehrhart-check",
             "polymatroid-check"]


class TestInvalidInstance:
    """Every command that analyses an instance reads it once and answers an
    invalid one with the same document, through one path."""

    @pytest.mark.parametrize("command", ANALYSING)
    def test_one_document_and_one_read(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "bad.json"
        reads = []
        load = jsonio.load_instance
        monkeypatch.setattr(jsonio, "load_instance", lambda src: reads.append(src) or load(src))
        for instance, witness in BAD_INSTANCES:
            path.write_text(json.dumps(instance))
            code, out, _ = run(capsys, command, str(path))
            want = {"error": "invalid_instance", "witness": witness}
            if command == "analyze":  # analyze alone names the instance
                want.update(kind=instance["kind"], name=instance["name"])
            assert (code, out) == (1, jsonio.dumps(want)), instance["name"]
        assert reads == [str(path)] * len(BAD_INSTANCES)

    @pytest.mark.parametrize("command", ANALYSING)
    def test_every_command_writes_validates_witness(self, capsys, tmp_path, command):
        # each family validate refuses gets its witness from every command
        for family, payload in INVALID_FAMILIES.items():
            path = tmp_path / f"{family}.json"
            path.write_text(json.dumps(payload))
            _, refuted, _ = run_json(capsys, "validate", str(path))
            code, doc, _ = run_json(capsys, command, str(path))
            want = {"error": "invalid_instance", "witness": refuted["witness"]}
            if command == "analyze":
                want.update(kind=refuted["kind"], name=family)
            assert (code, doc) == (1, want), family

    def test_not_caught_as_a_library_error(self):
        # so corpus's per-check net and main's generic branch never see it
        assert not issubclass(cli._Invalid, ReesKitError)


# A valid family whose one member is the zero vector: a rank-0 matroid and a
# degree-0 polymatroid. Each validates, but gives cone analysis no
# nonconstant generator.
ZERO_FAMILIES = {
    "matroid": {"n": 2, "bases": [[]]},
    "polymatroid": {"n": 2, "exponents": [[0, 0]], "polymatroid": True},
}
NO_GENERATOR = {"error": "invalid_instance", "witness": {
    "error": "InvalidInstance", "detail": "the zero exponent vector is not allowed"}}


class TestZeroFamilies:
    @pytest.mark.parametrize("kind", sorted(ZERO_FAMILIES))
    @pytest.mark.parametrize("command", ["validate", "analyze", "rees-facets", "classify",
                                         "hilbert", "normality", "ehrhart-check",
                                         "polymatroid-check"])
    def test_one_document_per_command(self, capsys, tmp_path, kind, command):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(ZERO_FAMILIES[kind]))
        code, doc, _ = run_json(capsys, command, str(path))
        if command == "validate":
            assert (code, doc) == (0, {"valid": True, "kind": kind, "name": "zero",
                                       "normalized": ZERO_FAMILIES[kind]})
        elif command == "polymatroid-check":  # the same report for both kinds
            bases = {"n": 2, "exponents": [[0, 0]], "polymatroid": True}
            assert (code, doc) == (0, {"name": "zero", "valid": True, "bases": bases,
                                       "division_closure": [],
                                       "symmetric_exchange_violations": []})
        else:
            want = dict(NO_GENERATOR)
            if command == "analyze":
                want.update(kind=kind, name="zero")
            assert (code, doc) == (1, want)


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


# Families that fail validation, each by one structural fault; the exchange
# failure of a matroid is pinned in test_golden (not_a_matroid).
INVALID_FAMILIES = {
    "matroid_unequal_sizes": {"n": 3, "bases": [[1, 2], [3]]},
    "polymatroid_exchange_failure": {"n": 2, "exponents": [[2, 0], [0, 2]], "polymatroid": True},
    "polymatroid_unequal_moduli": {"n": 2, "exponents": [[2, 0], [0, 1]], "polymatroid": True},
    "ideal_zero_vector": {"n": 2, "exponents": [[0, 0], [1, 1]]},
    "ideal_negative_entry": {"n": 2, "exponents": [[1, -1]]},
    "ideal_repeated_vector": {"n": 2, "exponents": [[1, 1], [1, 1]]},
    "ideal_no_variables": {"n": 0, "exponents": [[]]},
}


class TestValidationDocuments:
    """The bytes each command that validates an instance writes when it fails,
    and those of showing a bundled instance, read back through its kind's key."""

    # (command, family) -> (exit code, sha256 of stdout)
    PINNED = {
        ("validate", "matroid_unequal_sizes"):
            (1, "4ac6364b0467950f83ac0ed24d162fddceb9c97c66d61332c348da2af8cd71ac"),
        ("analyze", "matroid_unequal_sizes"):
            (1, "4a8aeaebe951661ca9c583c6f2179bbf4b93341f1cc179023ebb6b14e22217c3"),
        ("polymatroid-check", "matroid_unequal_sizes"):
            (1, "7c291135794f7e289f0958971a7ee964af7e74a6450945ad4df81affd4f5f114"),
        ("validate", "polymatroid_exchange_failure"):
            (1, "3853cc88b416411c01fe1b9885bac78e311027390183e42a52859280b6b38ccb"),
        ("analyze", "polymatroid_exchange_failure"):
            (1, "0797a36a26091a37932b9b6cba7adf01e369d9be011453a3dec7bbac50414aaa"),
        ("polymatroid-check", "polymatroid_exchange_failure"):
            (1, "060b91ea66f09adcd80590a697dd5b77088458323ee36cd64778de3994a41ed9"),
        ("validate", "polymatroid_unequal_moduli"):
            (1, "35105379f7840d39eedc40b4c3388f47e2f8741609ad55487a5a5ed9e0d9647a"),
        ("analyze", "polymatroid_unequal_moduli"):
            (1, "7ac98d5d7992ffacad55567475aea1d61c6c005737ef7b90ad0361d9ae34aa83"),
        ("polymatroid-check", "polymatroid_unequal_moduli"):
            (1, "3e6699bc5795d421b34cf3abc17d06c1de258cfc59e78a02f32b79b8249e649b"),
        ("validate", "ideal_zero_vector"):
            (1, "9f458ec4c02935aac4d053e4521547e2101163dece80cb9956074bb5ac82b639"),
        ("analyze", "ideal_zero_vector"):
            (1, "3140a35d05bea0834b291286f810b6e0841acb0ed8af083f4bfd108bebfc24c2"),
        ("polymatroid-check", "ideal_zero_vector"):
            (1, "50dce03d7a40ca1edaa52b36fd0996376ba9f5ef41299765206e702806267c64"),
        ("analyze", "ideal_negative_entry"):
            (1, "8e9f286c0f4e86a9290e7b3b273543e8f6d5b951c453a3e22bf3bc15fc44523d"),
        ("polymatroid-check", "ideal_negative_entry"):
            (1, "79b30954217536a16907e7e53b542ffe4e89c7f3bb21d95e5a08a729057cb13f"),
        ("validate", "ideal_repeated_vector"):
            (1, "b7ee44547030dd95b8fa6cf463cd47a34d8b80c49c5dca4b926e85d81eadf72c"),
        ("analyze", "ideal_repeated_vector"):
            (1, "f7fc6626fbf5cc6baef685fc2c5faa7dcb2880e200bb02ff00c4e352cc92ebde"),
        ("polymatroid-check", "ideal_repeated_vector"):
            (1, "2df92aa7517e5aa6dc6a2f2ba4ec9acfc749401844674e55c2f9e7f2868f989b"),
        ("polymatroid-check", "ideal_no_variables"):
            (1, "88f943333c824ac524836a490c9ce2325976cf8512e3c9507f984ef759ef53c4"),
    }
    # bundled name -> sha256 of `instances --show NAME`
    SHOWN = {
        "graphic_k4": "7640432b953ceb661679a230e556c4fbd7820e06429bc51acfc702d0abd5a6cc",
        "veronese_3_2": "56f111e181bf3432e99fca9b11d8c1ed255933606031f53c86fd47113939c339",
    }

    @pytest.mark.parametrize("command, family", sorted(PINNED), ids="-".join)
    def test_invalid_family(self, capsys, tmp_path, command, family):
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps(INVALID_FAMILIES[family]))
        code, out, _ = run(capsys, command, str(path))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == self.PINNED[command, family]

    @pytest.mark.parametrize("name", sorted(SHOWN))
    def test_show(self, capsys, name):
        code, out, _ = run(capsys, "instances", "--show", name)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, self.SHOWN[name])


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


def refute_l310(n, vectors):
    """Stands in for check_polymatroid_bases inside reeskit.polymatroid, where
    only the L3.10 division and veronese_bases reach it: every family fails."""
    vecs = sorted(map(tuple, vectors))
    return polymatroid.ExchangeFailure(vecs[0], vecs[-1], 1)


class TestForcedFailures:
    """The documents of failures no real input reaches: a counterexample to
    L3.10, two normality routes that disagree, and a facet oracle that
    disagrees with the engine. Each is one document, exit 1."""

    # argv -> sha256 of stdout, with every L3.10 division refuted
    L310 = {
        ("polymatroid-check", "bundled:veronese_2_3"):
            "9754da878b6e6c92dcc463b1a7f1f95f070ebe97260227cbbd6a2b182536b3b9",
        ("polymatroid-check", "bundled:u_2_3"):
            "b6f234c91ddebb4d2ad620879d3382dd0e6491261c7c68d7ac8c7f87d8d6fd23",
        ("corpus", "3", "--checks", "L3.10"):
            "80d187248013ba3f9dbb5380d0f29d539cf974464bc2bdb1b8a8148914785206",
    }

    @pytest.mark.parametrize("argv", sorted(L310), ids=" ".join)
    def test_l310_counterexample(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("reeskit.polymatroid.check_polymatroid_bases", refute_l310)
        code, out, _ = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (1, self.L310[argv])
        doc = json.loads(out)
        if argv[0] == "corpus":
            found = doc["reports"][0]["failures"]
        else:
            found = [d for d in doc["division_closure"] if not d["ok"]]
            assert len(found) == len(doc["division_closure"]) == doc["bases"]["n"]
        for f in found:
            assert list(f["witness"]) == ["coordinate", "input", "witness"]
            assert f["witness"]["witness"]["error"] == "exchange_failure"

    def test_t36_violation(self, capsys, monkeypatch):
        # every cone gains the normal (2, 0, .., 0, -1), whose leading 2 is
        # outside T3.6's shape
        def facets(session):
            fs = facet_normals(session.cone)
            bad = (2,) + (0,) * (fs.dim - 2) + (-1,)
            return FacetSystem(fs.dim, fs.unit_normals, fs.ell_normals + (bad,))

        monkeypatch.setattr(IdealSession, "facets", property(facets))
        code, out, _ = run(capsys, "corpus", "3", "--checks", "T3.6")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            1, "beb219dbdc26cb31533053b0df18da8f97becceabca32c42cac3ef32a5054c53")
        for f in json.loads(out)["reports"][0]["failures"]:
            assert f["violations"] == [[2, *[0] * (f["matroid"]["n"] - 1), -1]]

    @pytest.mark.parametrize("command", ["normality", "analyze"])
    def test_method_disagreement(self, capsys, monkeypatch, command):
        # veronese_2_2 is normal by the Hilbert route; the equality route
        # is made to find one point of P that is no generator
        def one_failure(vecs, degree, b_max, in_dilation):
            return semigroup.EqualityReport(degree, b_max,
                                            (semigroup.DilationCheck(1, 1, ((1, 1),)),))

        monkeypatch.setattr(semigroup, "_equality_report", one_failure)
        code, out, _ = run(capsys, command, "bundled:veronese_2_2")
        assert (code, out) == (1, jsonio.dumps({
            "error": "MethodDisagreement",
            "detail": "hilbert route says normal, equality route says not_normal on "
                      "{'n': 2, 'exponents': [[0, 2], [1, 1], [2, 0]]}"}))

    def test_facet_oracle_disagreement(self, capsys, monkeypatch):
        oracle = cli.facet_normals_oracle

        def drops_a_unit(cone, cap):
            fs = oracle(cone, cap=cap)
            return FacetSystem(fs.dim, fs.unit_normals[1:], fs.ell_normals)

        monkeypatch.setattr("reeskit.cli.facet_normals_oracle", drops_a_unit)
        code, out, _ = run(capsys, "rees-facets", "bundled:u_2_3")
        ells = [[0, 1, 1, -1], [1, 0, 1, -1], [1, 1, 0, -1], [1, 1, 1, -2]]
        assert (code, out) == (1, jsonio.dumps({
            "error": "integrity", "detail": "oracle disagrees with the engine",
            "facets": {"unit_normals": [1, 2, 3, 4], "ell_normals": ells},
            "oracle": {"unit_normals": [2, 3, 4], "ell_normals": ells}}))


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
        # argv it parses later (none, unknown) reuse it; a known command's
        # argv, rejected or not, adds only that command's parser
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
        # two known commands: their two parsers and no full one, also when
        # their own parsers reject an argv
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
        assert proc.stdout.split() == ["2", "2", "2"]


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
