"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Run from the root of the checkout. They spawn a few short passes, so they take
about half a minute.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import verify
import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from reeskit import cli  # noqa: E402


def _files(workload, seed, where: Path) -> dict[str, bytes]:
    workloads.build(workload, seed, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_instances(workload, tmp_path):
    assert _files(workload, 7, tmp_path / "a") == _files(workload, 7, tmp_path / "b")


def test_other_seed_changes_input_but_not_volume(tmp_path, capsys):
    a = workloads.build("graphic_analyze", 0, tmp_path / "a")[0].ideal
    b = workloads.build("graphic_analyze", 1, tmp_path / "b")[0].ideal
    assert Path(a).read_bytes() != Path(b).read_bytes()
    docs = []
    for path in (a, b):
        assert cli.main(["hilbert", path]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    for doc in docs:
        assert doc["hilbert"]["method"]["parallelepiped_points"] == workloads.GRAPHIC_VOLUME
    assert docs[0]["hilbert"] == docs[1]["hilbert"]


@pytest.fixture(scope="module")
def small_pass(tmp_path_factory):
    """Two low-dimensional ideals, run once untraced and once traced."""
    work = tmp_path_factory.mktemp("work")
    ops = workloads.build("lowdim_hilbert", 3, work)[:4]
    return ops, run.spawn(ops, False), run.spawn(ops, True)


def test_trace_leaves_stdout_unchanged(small_pass):
    ops, plain, traced = small_pass
    assert [r["stdout"] for r in plain["ops"]] == [r["stdout"] for r in traced["ops"]]
    assert "trace" not in plain
    assert traced["trace"]["calls"]["semigroup.hilbert_basis"] == 4
    assert verify.check_pass("lowdim_hilbert", ops, plain["ops"]) == [None] * 4


def _corrupt(results, i, edit):
    bad = copy.deepcopy(results)
    doc = json.loads(bad[i]["stdout"])
    edit(doc)
    bad[i]["stdout"] = json.dumps(doc)
    return bad


def test_verifier_catches_flipped_verdict(small_pass):
    ops, plain, _ = small_pass

    def flip(doc):
        cert = doc["certificate"]
        cert["verdict"] = "normal" if cert["verdict"] == "not_normal" else "not_normal"

    got = verify.check_pass("lowdim_hilbert", ops, _corrupt(plain["ops"], 1, flip))
    assert got[1] is not None


def test_verifier_catches_dropped_hilbert_element(tmp_path):
    ops = workloads.build("graphic_analyze", 0, tmp_path)
    report = run.spawn(ops, False)
    assert verify.check_pass("graphic_analyze", ops, report["ops"]) == [None]

    def drop(doc):
        doc["hilbert"]["elements"].pop()

    assert verify.check_pass("graphic_analyze", ops, _corrupt(report["ops"], 0, drop))[0]


def test_verifier_catches_non_json_and_exit_code(small_pass):
    ops, plain, _ = small_pass
    bad = copy.deepcopy(plain["ops"])
    bad[0]["stdout"] += "{}"
    bad[2]["code"] = 3
    got = verify.check_pass("lowdim_hilbert", ops, bad)
    assert got[0] and got[2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "corpus5_r2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
