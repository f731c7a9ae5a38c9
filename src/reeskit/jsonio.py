"""Instance files and deterministic JSON rendering.

Wire formats, all 1-indexed:
  matroid      {"n": int, "bases": [[int, ...], ...]}
  ideal        {"n": int, "exponents": [[int, ...], ...]}
  polymatroid  same as ideal plus "polymatroid": true
KINDS maps each kind to its payload key and its (n, vectors) validator. An
instance file either wraps a payload as {"kind", "name", "payload"} or is a
bare payload; the kind is inferred from the payload's keys only when "kind" is
absent, and the name defaults to the file stem. realize returns an instance's
validated value, one of VALUES, or what refutes it. Integers beyond 53 bits
travel as ASCII decimal strings both ways so nothing downstream ever rounds,
up to the interpreter's digit limit (4,300): past it an input is a ParseError,
a result CapExceeded. dumps is the one writer: a caller puts records and
tuples into a document as they are, and dumps writes json.dumps's bytes at
indent=2 with sorted keys, each record as its Record.to_json, in one walk of
its own. The CLI's text form is rendered from its document.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _quote

from .errors import CapExceeded, InvalidInstance, ParseError, Record
from .matroid import Matroid, MonomialIdeal, basis_monomial_ideal, check_basis_exchange
from .polymatroid import PolymatroidBases, check_polymatroid_bases

_BIG = 1 << 53
_TOO_LONG = ("is past the interpreter's digit limit: 4,300 digits, unless the "
             "PYTHONINTMAXSTRDIGITS environment variable sets another")

KINDS = {
    "matroid": ("bases", check_basis_exchange),
    "ideal": ("exponents", MonomialIdeal),
    "polymatroid": ("exponents", check_polymatroid_bases),
}
VALUES = (Matroid, MonomialIdeal, PolymatroidBases)


def decode_int(v) -> int:
    if isinstance(v, bool):
        raise ParseError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        s = v.strip()
        sign = s[1:] if s[:1] in "+-" else s
        if sign.isascii() and sign.isdigit():
            try:
                return int(s)
            except ValueError as exc:
                raise ParseError(f"decimal string {_TOO_LONG}") from exc
    raise ParseError(f"expected an integer or decimal string, got {v!r}")


def dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n", in one walk, as
    an indent selects json's slower pure-Python encoder: an int past 53 bits
    as its decimal string, a record as its to_json, and a list of plain ints
    (no bool) within 53 bits in one join. Dict keys must be strings."""
    out: list[str] = []
    try:
        _write(payload, out, "\n")
    except ValueError as exc:
        raise CapExceeded(f"a result integer {_TOO_LONG}") from exc
    return "".join(out) + "\n"


def _write(obj, out: list[str], pad: str) -> None:
    """Append obj's JSON text to out; pad is a newline and obj's indent."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj) if -_BIG < obj < _BIG else f'"{obj}"')
    elif (obj and isinstance(obj, (list, tuple)) and set(map(type, obj)) <= {int}
          and -_BIG < min(obj) and max(obj) < _BIG):
        out.append(f"[{pad}  " + f",{pad}  ".join(map(int.__repr__, obj)) + f"{pad}]")
    elif obj and isinstance(obj, (dict, list, tuple)):
        inner = pad + "  "
        if isinstance(obj, dict):
            sep, close, items = "{", "}", [(_quote(k) + ": ", obj[k]) for k in sorted(obj)]
        else:
            sep, close, items = "[", "]", [("", v) for v in obj]
        for key, v in items:
            out.append(sep + inner + key)
            _write(v, out, inner)
            sep = ","
        out.append(pad + close)
    elif isinstance(obj, Record):
        _write(obj.to_json(), out, pad)
    else:
        out.append(json.dumps(obj))  # null, true, false, an empty container


def _decode_vector_list(raw, what: str) -> list[list[int]]:
    if not isinstance(raw, list) or not all(isinstance(v, list) for v in raw):
        raise ParseError(f"{what} must be a list of lists")
    return [[decode_int(e) for e in v] for v in raw]


class Instance(Record):
    kind: str
    name: str
    n: int
    vectors: tuple[tuple[int, ...], ...]  # bases or exponent rows, as given


def _payload_kind(payload: dict) -> str:
    """The first kind whose key payload has, where "polymatroid": true makes
    any kind but a matroid a polymatroid."""
    kind = next((kind for kind, (key, _) in KINDS.items() if key in payload), None)
    if kind != "matroid" and payload.get("polymatroid") is True:
        return "polymatroid"
    if kind is None:
        keys = dict.fromkeys(key for key, _ in KINDS.values())
        raise ParseError(f"payload has neither {' nor '.join(map(repr, keys))}")
    return kind


def parse_instance(text: str, default_name: str = "instance") -> Instance:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # a literal past the digit limit
        raise ParseError(f"an integer literal {_TOO_LONG}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")
    if "payload" in doc:
        payload = doc["payload"]
        if not isinstance(payload, dict):
            raise ParseError("'payload' must be a JSON object")
        name = doc.get("name", default_name)
        kind = doc["kind"] if "kind" in doc else _payload_kind(payload)
    else:
        payload, name, kind = doc, default_name, _payload_kind(doc)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {tuple(KINDS)}")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    if "n" not in payload:
        raise ParseError("payload is missing 'n'")
    n = decode_int(payload["n"])
    key = KINDS[kind][0]
    if key not in payload:
        raise ParseError(f"payload of kind {kind!r} is missing {key!r}")
    rows = _decode_vector_list(payload[key], key)
    return Instance(kind, name, n, tuple(tuple(r) for r in rows))


def load_instance(source: str) -> Instance:
    """Read an instance from a filesystem path or a 'bundled:<name>' token."""
    if source.startswith("bundled:"):
        return load_bundled(source.split(":", 1)[1])
    try:
        with open(source, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    return parse_instance(text, default_name=os.path.splitext(os.path.basename(source))[0])


def realize(instance: Instance):
    """A parsed instance's validated value, one of VALUES, or what refutes it:
    its ExchangeFailure record, or {"error", "detail"} for an InvalidInstance.
    Only wire-format problems raise."""
    try:
        return KINDS[instance.kind][1](instance.n, instance.vectors)
    except InvalidInstance as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}


def analysis_ideal(value) -> MonomialIdeal:
    """The monomial ideal a validated domain object feeds into cone analysis."""
    if isinstance(value, MonomialIdeal):
        return value
    if isinstance(value, Matroid):
        return basis_monomial_ideal(value)
    if isinstance(value, PolymatroidBases):
        return MonomialIdeal(value.n, value.vectors)
    raise TypeError(f"no ideal view for {type(value).__name__}")


INSTANCES = os.path.join(os.path.dirname(__file__), "instances")


def bundled_names() -> list[str]:
    """Stems of the instance files shipped in the package's instances folder."""
    return sorted(f[: -len(".json")] for f in os.listdir(INSTANCES) if f.endswith(".json"))


def bundled_text(name: str) -> str:
    """Text of the bundled instance name. Only a name bundled_names() lists is
    read, so no name, a relative path included, reaches another file."""
    if name not in bundled_names():
        raise ParseError(f"no bundled instance named {name!r}")
    with open(os.path.join(INSTANCES, f"{name}.json"), encoding="utf-8") as f:
        return f.read()


def load_bundled(name: str) -> Instance:
    return parse_instance(bundled_text(name), default_name=name)
