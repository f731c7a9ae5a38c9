from __future__ import annotations

import json
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import encode

from reeskit import jsonio
from reeskit.errors import ParseError
from reeskit.matroid import Matroid, MonomialIdeal
from reeskit.polymatroid import PolymatroidBases


class TestIntCoding:
    def test_small_ints_stay_ints(self):
        small = [42, -(2 ** 52), 2 ** 53 - 1, -(2 ** 53 - 1)]
        assert json.loads(jsonio.dumps(small)) == small

    def test_big_ints_become_strings(self):
        big = [2 ** 53, -(2 ** 53), 2 ** 60 + 7, -(2 ** 60 + 7)]
        assert json.loads(jsonio.dumps(big)) == [str(b) for b in big]

    def test_decode(self):
        assert jsonio.decode_int(17) == 17
        assert jsonio.decode_int("123456789012345678901") == 123456789012345678901
        assert jsonio.decode_int("-5") == -5

    def test_decode_rejects_junk(self):
        # only ASCII digits: int() would take "²" (and fail) or "２", "٣" (as 2, 3);
        # past the interpreter's digit limit, where it has one, int() fails too
        too_long = ("1" * 5000,) if hasattr(sys, "get_int_max_str_digits") else ()
        for junk in (True, "abc", "1.5", None, [], "²", "２", "٣", *too_long):
            with pytest.raises(ParseError):
                jsonio.decode_int(junk)

    def test_roundtrip_through_dumps(self):
        big = 10 ** 30
        text = jsonio.dumps({"value": big})
        assert json.loads(text)["value"] == str(big)


class TestDumps:
    def test_sorted_and_stable(self):
        a = jsonio.dumps({"b": 1, "a": [2, 3]})
        b = jsonio.dumps({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert a.index('"a"') < a.index('"b"')

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.sampled_from([2**53 - 1, 2**53, -(2**53) + 1, -(2**53), 3**40, -(5**30)])
            | st.text()
            | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\t\n\x7f", "é€😀", ""]),
            lambda inner: st.lists(inner)
            | st.lists(inner).map(tuple)
            | st.dictionaries(st.text(), inner),
            max_leaves=30,
        )
    )
    @example({"a": {}, "b": [], "c": (), "d": [[]], "e": {"f": [True, False, None]}})
    # lists of ints written in one join, and those at its edges that are not
    @example([2**53 - 1, -(2**53) + 1])
    @example([2**53, 1])
    @example([-(2**53), 1])
    @example([True, 1])
    @example([1, None])
    @example((1, 2))
    def test_matches_json_dumps_of_encode(self, payload):
        """The writer gives json.dumps's bytes for indent=2, sort_keys=True,
        with the 53-bit rule applied in the same walk."""
        oracle = json.dumps(encode(payload), indent=2, sort_keys=True) + "\n"
        assert jsonio.dumps(payload) == oracle


class TestParseInstance:
    def test_bare_matroid(self):
        inst = jsonio.parse_instance('{"n": 2, "bases": [[1], [2]]}', "x")
        assert inst.kind == "matroid" and inst.n == 2
        assert inst.vectors == ((1,), (2,))
        assert inst.name == "x"

    def test_bare_ideal(self):
        inst = jsonio.parse_instance('{"n": 2, "exponents": [[2, 0]]}')
        assert inst.kind == "ideal"

    def test_bare_polymatroid(self):
        text = '{"n": 2, "exponents": [[1, 1]], "polymatroid": true}'
        assert jsonio.parse_instance(text).kind == "polymatroid"

    def test_wrapped(self):
        text = json.dumps(
            {"kind": "ideal", "name": "w", "payload": {"n": 1, "exponents": [[2]]}}
        )
        inst = jsonio.parse_instance(text)
        assert inst.name == "w" and inst.kind == "ideal"

    def test_malformed(self):
        for text in (
            "not json",
            "[1, 2]",
            '{"n": 2}',
            '{"bases": [[1]]}',
            '{"n": 2, "bases": [1]}',
            '{"kind": "mystery", "payload": {"n": 1, "exponents": [[1]]}}',
            '{"name": 3, "payload": {"n": 1, "exponents": [[1]]}}',
            '{"kind": "matroid", "payload": {"n": 1, "exponents": [[1]]}}',  # no bases
        ):
            with pytest.raises(ParseError):
                jsonio.parse_instance(text)


class TestRealize:
    def test_matroid_ok(self):
        inst = jsonio.parse_instance('{"n": 2, "bases": [[1], [2]]}')
        out = jsonio.realize(inst)
        assert out.ok and isinstance(out.value, Matroid)

    def test_exchange_failure_is_witness(self):
        inst = jsonio.parse_instance('{"n": 4, "bases": [[1, 2], [3, 4]]}')
        out = jsonio.realize(inst)
        assert not out.ok
        assert out.witness.error == "exchange_failure"

    def test_structural_error_is_witness(self):
        inst = jsonio.parse_instance('{"n": 2, "bases": [[1], [1, 2]]}')
        out = jsonio.realize(inst)
        assert not out.ok
        assert out.witness["error"] == "UnequalCardinalities"

    def test_ideal(self):
        inst = jsonio.parse_instance('{"n": 2, "exponents": [[2, 0], [0, 2]]}')
        out = jsonio.realize(inst)
        assert out.ok and isinstance(out.value, MonomialIdeal)

    def test_polymatroid(self):
        inst = jsonio.parse_instance(
            '{"n": 2, "exponents": [[1, 1], [2, 0]], "polymatroid": true}'
        )
        out = jsonio.realize(inst)
        assert out.ok and isinstance(out.value, PolymatroidBases)


class TestAnalysisIdeal:
    def test_matroid_to_indicators(self):
        inst = jsonio.parse_instance('{"n": 2, "bases": [[1], [2]]}')
        ideal = jsonio.analysis_ideal(jsonio.realize(inst).value)
        assert ideal.exponents == ((0, 1), (1, 0))

    def test_polymatroid_passthrough(self):
        inst = jsonio.parse_instance(
            '{"n": 2, "exponents": [[1, 1], [0, 2]], "polymatroid": true}'
        )
        ideal = jsonio.analysis_ideal(jsonio.realize(inst).value)
        assert ideal.exponents == ((0, 2), (1, 1))


class TestBundled:
    def test_names_listed(self):
        names = jsonio.bundled_names()
        assert "graphic_k4" in names
        assert "ideal_two_squares" in names
        assert names == sorted(names)

    def test_each_bundled_instance_realizes(self):
        for name in jsonio.bundled_names():
            inst = jsonio.load_bundled(name)
            out = jsonio.realize(inst)
            assert out.ok, (name, out.witness)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            jsonio.load_bundled("no_such_instance")

    def test_load_instance_prefix(self):
        inst = jsonio.load_instance("bundled:u_1_2")
        assert inst.kind == "matroid"
        assert inst.name == "u_1_2"


def test_load_instance_missing_file(tmp_path):
    with pytest.raises(ParseError):
        jsonio.load_instance(str(tmp_path / "missing.json"))


def test_load_instance_names_bare_payload_by_file_stem(tmp_path):
    for filename, stem in (("my.ideal.json", "my.ideal"), ("plain", "plain"), (".hidden", ".hidden")):
        path = tmp_path / filename
        path.write_text(json.dumps({"n": 2, "exponents": [[1, 0], [0, 1]]}))
        assert jsonio.load_instance(str(path)).name == stem
