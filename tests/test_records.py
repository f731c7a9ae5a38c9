"""Record semantics of the value classes, and what `import reeskit.cli` loads."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from oracles import record_json

import reeskit
from reeskit import jsonio, matroid, polymatroid, reescone, semigroup
from reeskit.errors import InvalidInstance, Record
from reeskit.reescone import Verdict

IDEAL = matroid.MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
SESSION = semigroup.IdealSession(IDEAL)


def samples() -> dict[type, Record]:
    """One instance of every record class, most of them computed."""
    u32 = matroid.uniform_matroid(3, 2)
    status = semigroup.ElementStatus((1, 0, 0), "unit", True)
    found = [
        jsonio.load_bundled("u_1_2"),
        jsonio.realize(jsonio.load_bundled("u_1_2")),
        u32,
        matroid.check_basis_exchange(4, [(1, 2), (3, 4)]),
        IDEAL,
        polymatroid.veronese_bases(2, 2),
        polymatroid.check_polymatroid_bases(2, [(2, 0), (0, 2)]),
        SESSION.cone,
        SESSION.facets,
        SESSION.classification,
        SESSION.hilbert,
        SESSION.normality,
        semigroup.DilationCheck(2, 3, ((1, 1),)),
        SESSION.equality(2),
        semigroup.IdealSession(matroid.MonomialIdeal(2, ((2, 0), (0, 2)))).equality(1)
        .first_witness,
        status,
        semigroup.DecompositionReport(Verdict.IDEAL, (status,)),
    ]
    return {type(r): r for r in found}


SAMPLES = samples()


def rebuilt(record: Record) -> Record:
    return type(record)(*(getattr(record, f) for f in record._fields))


def test_every_record_class_has_a_sample():
    assert set(SAMPLES) == set(Record.__subclasses__())
    assert len(SAMPLES) == 17


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: (c.__module__, c.__name__)),
                         ids=lambda c: f"{c.__module__.rsplit('.', 1)[-1]}.{c.__name__}")
class TestRecordSemantics:
    def test_fields_are_frozen(self, cls):
        record = SAMPLES[cls]
        for name in (*record._fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_equal_fields_give_equal_records(self, cls):
        record = SAMPLES[cls]
        twin = rebuilt(record)
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        assert repr(record).startswith(f"{cls.__name__}(")

    def test_other_classes_never_compare_equal(self, cls):
        record = SAMPLES[cls]
        assert record != tuple(getattr(record, f) for f in record._fields)
        assert all(other != record for other in SAMPLES.values() if other is not record)


# The fields of every record class; a class constant such as _json or error
# is unannotated and so never becomes one.
FIELDS = {
    "jsonio.Instance": ("kind", "name", "n", "vectors"),
    "jsonio.ValidationOutcome": ("ok", "value", "witness"),
    "matroid.ExchangeFailure": ("basis_a", "basis_b", "element"),
    "matroid.Matroid": ("n", "d", "bases"),
    "matroid.MonomialIdeal": ("n", "exponents"),
    "polymatroid.ExchangeFailure": ("vec_a", "vec_b", "index"),
    "polymatroid.PolymatroidBases": ("n", "d", "vectors"),
    "reescone.ConeClassification": ("verdict", "offending_normal"),
    "reescone.FacetSystem": ("dim", "unit_normals", "ell_normals", "slack", "rays", "masks"),
    "reescone.ReesCone": ("n", "generators"),
    "semigroup.DecompositionReport": ("verdict", "statuses"),
    "semigroup.DilationCheck": ("b", "points", "failures"),
    "semigroup.DilationWitness": ("b", "point"),
    "semigroup.ElementStatus": ("element", "kind", "ok"),
    "semigroup.EqualityReport": ("degree", "b_max", "dilations"),
    "semigroup.HilbertBasisResult": ("elements", "simplices", "parallelepiped_points",
                                     "candidates"),
    "semigroup.NormalityCertificate": ("verdict", "witness", "method"),
}


def test_record_fields_are_the_annotated_names():
    assert {f"{c.__module__.rsplit('.', 1)[-1]}.{c.__name__}": c._fields
            for c in SAMPLES} == FIELDS
    for cls in (matroid.ExchangeFailure, polymatroid.ExchangeFailure):
        fields = ((1, 2), (3, 4), 1)
        assert cls(*fields) == cls.unchecked(*fields)
        assert cls(*fields).error == "exchange_failure"
        with pytest.raises(TypeError):
            cls(*fields, "exchange_failure")


# The classes whose JSON the field-by-field reference writes. Each takes
# Record.to_json's rule; a renamed or computed key is a property named in its
# _json.
RULE_CLASSES = (
    matroid.Matroid, matroid.ExchangeFailure, matroid.MonomialIdeal,
    polymatroid.ExchangeFailure, reescone.ReesCone, reescone.FacetSystem,
    reescone.ConeClassification, semigroup.NormalityCertificate,
    semigroup.DilationCheck, semigroup.DilationWitness, semigroup.ElementStatus,
    semigroup.HilbertBasisResult, semigroup.EqualityReport, semigroup.DecompositionReport,
    polymatroid.PolymatroidBases,
)
STATUSES = (SAMPLES[semigroup.ElementStatus],
            semigroup.ElementStatus((1, 1, 2), "dilation", False))
RULE_RECORDS = [
    *(SAMPLES[cls] for cls in RULE_CLASSES),
    semigroup.NormalityCertificate("normal", None, "hilbert"),
    semigroup.NormalityCertificate("not_normal", (1, 1, 1), "both"),
    reescone.ConeClassification(Verdict.IDEAL),
    reescone.ConeClassification(Verdict.NEITHER, (1, 2, -3)),
    semigroup.HilbertBasisResult((), 0, 0, 0),
    semigroup.DilationWitness(3, (0, 3, 3)),
    semigroup.EqualityReport(2, 3, (semigroup.DilationCheck(1, 3, ()),
                                    semigroup.DilationCheck(2, 6, ((1, 3), (2, 2))),
                                    semigroup.DilationCheck(3, 9, ((3, 3),)))),
    semigroup.EqualityReport(2, 0, ()),
    semigroup.DecompositionReport(Verdict.QUASI_IDEAL, STATUSES),
    semigroup.DecompositionReport(Verdict.NEITHER, ()),
    polymatroid.PolymatroidBases(2, 0, ((0, 0),)),
]


def test_only_the_rule_classes_take_record_to_json():
    assert not [c for c in SAMPLES if "to_json" in c.__dict__]


@pytest.mark.parametrize("record", RULE_RECORDS, ids=lambda r: type(r).__name__)
def test_to_json_follows_the_field_by_field_reference(record):
    got, want = record.to_json(), record_json(record)
    assert got == want and list(got) == list(want)  # same key order too
    assert jsonio.dumps(got) == jsonio.dumps(want)


@pytest.mark.parametrize("record", [*SAMPLES.values(), *RULE_RECORDS],
                         ids=lambda r: type(r).__name__)
def test_dumps_writes_a_record_as_its_to_json(record):
    assert jsonio.dumps(record) == jsonio.dumps(record.to_json())
    assert jsonio.dumps({"r": (record,)}) == jsonio.dumps({"r": [record.to_json()]})


def test_to_json_leaves_out_none_only():
    assert semigroup.ElementStatus((1, 0), "unit", False).to_json() == {
        "element": [1, 0], "kind": "unit", "ok": False}
    assert semigroup.DilationCheck(1, 0, ()).to_json() == {"b": 1, "points": 0, "failures": []}
    verdict = reescone.ConeClassification(Verdict.IDEAL).to_json()
    assert verdict == {"verdict": "ideal"} and type(verdict["verdict"]) is str  # not the enum
    cert = semigroup.NormalityCertificate("normal", None, "hilbert").to_json()
    assert list(cert) == ["verdict", "method"]


def test_defaults_and_keywords():
    assert jsonio.ValidationOutcome(True) == jsonio.ValidationOutcome(True, None, None)
    outcome = jsonio.ValidationOutcome(False, witness={"error": "x"})
    assert (outcome.ok, outcome.value, outcome.witness) == (False, None, {"error": "x"})
    assert reescone.ConeClassification(Verdict.IDEAL).offending_normal is None
    assert repr(reescone.ConeClassification(Verdict.IDEAL)).endswith("offending_normal=None)")


def test_construction_rejects_bad_field_lists():
    with pytest.raises(TypeError):
        jsonio.ValidationOutcome(True, None, None, None)
    with pytest.raises(TypeError):
        jsonio.ValidationOutcome(True, colour="red")
    with pytest.raises(AttributeError):  # a field without default left out
        jsonio.Instance("ideal", "x", 2)


def test_post_init_still_validates_and_normalises():
    with pytest.raises(InvalidInstance):
        matroid.Matroid(3, 2, ((1, 3), (1, 2)))
    with pytest.raises(InvalidInstance):
        matroid.MonomialIdeal(2, ((1, 0), (0, 0)))
    assert matroid.MonomialIdeal(2, [[1, 0], [0, 1]]).exponents == ((0, 1), (1, 0))


def test_matroid_stores_list_bases_as_tuples():
    # a list of bases, or of lists, is the same value as the tuple form
    base = matroid.Matroid(2, 1, ((1,), (2,)))
    for bases in ([(1,), (2,)], [[1], [2]]):
        m = matroid.Matroid(2, 1, bases)
        assert m == base and hash(m) == hash(base)
        assert m.bases == ((1,), (2,)) and m.to_json() == base.to_json()
    with pytest.raises(InvalidInstance):
        matroid.Matroid(3, 2, [[1, 3], [1, 2]])


def test_polymatroid_bases_store_list_vectors_as_tuples():
    # a list of vectors, or of lists, is the same value as the tuple form
    base = polymatroid.PolymatroidBases(2, 2, ((0, 2), (2, 0)))
    for vectors in ([(0, 2), (2, 0)], [[0, 2], [2, 0]]):
        bases = polymatroid.PolymatroidBases(2, 2, vectors)
        assert bases == base and hash(bases) == hash(base)
        assert bases.vectors == ((0, 2), (2, 0)) and bases.to_json() == base.to_json()


def test_unchecked_skips_post_init():
    m = matroid.Matroid.unchecked(3, 2, ((1, 2), (1, 3)))
    assert m == matroid.Matroid(3, 2, ((1, 2), (1, 3)))
    assert matroid.Matroid.unchecked(3, 2, ((1, 3), (1, 2))).bases == ((1, 3), (1, 2))
    with pytest.raises(AttributeError):
        m.n = 4


def test_facet_slack_is_left_out_of_equality():
    fs = SESSION.facets
    bare = reescone.FacetSystem(fs.dim, fs.unit_normals, fs.ell_normals)
    assert len(fs.slack) == len(fs.rays) and bare.slack == ()
    assert fs.rays and fs.masks and bare.rays == bare.masks == ()
    assert bare == fs and hash(bare) == hash(fs)
    assert not any(f in repr(fs) for f in ("slack", "rays", "masks"))
    assert bare.normals() == fs.normals()


STARTUP_PROBE = textwrap.dedent(
    """
    import contextlib, io, json, sys
    sys.path.insert(0, sys.argv[1])
    before = set(sys.modules)
    import reeskit.cli
    loaded = sorted(set(sys.modules) - before)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = reeskit.cli.main(["instances", "--show", "graphic_k4"])
    after = sorted(set(sys.modules) - before)
    from reeskit.exactlat import adjugate
    adj = adjugate([[2, 1], [1, 1]])
    print(json.dumps({"loaded": loaded, "after": after, "code": code, "out": out.getvalue(),
                      "adjugate": adj}))
    """
)

# Stdlib modules a command does not need; importing any of them costs start-up.
NOT_AT_STARTUP = (
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    "fractions", "decimal", "importlib.resources", "pathlib",
)


def test_cli_import_leaves_out_unneeded_stdlib():
    """In an interpreter without site (-S), which preloads nothing, importing
    the CLI loads none of NOT_AT_STARTUP; showing a bundled instance, read
    from the package folder, loads neither importlib.resources nor pathlib,
    and the exact linear algebra still works afterwards."""
    root = str(Path(reeskit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE, root],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert not set(NOT_AT_STARTUP) & set(report["loaded"]), report["loaded"]
    assert "reeskit.cli" in report["loaded"]
    assert report["code"] == 0
    assert json.loads(report["out"])["name"] == "graphic_k4"
    assert not {"importlib.resources", "pathlib"} & set(report["after"]), report["after"]
    assert report["adjugate"] == [[[1, -1], [-1, 2]], 1]
