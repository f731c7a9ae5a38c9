"""Instance files and deterministic JSON rendering.

Wire formats, all 1-indexed:
  matroid      {"n": int, "bases": [[int, ...], ...]}
  ideal        {"n": int, "exponents": [[int, ...], ...]}
  polymatroid  same as ideal plus "polymatroid": true
An instance file either wraps one of these as {"kind", "name", "payload"} or
is a bare payload, in which case the kind is inferred and the name defaults
to the file stem. Integers beyond 53 bits travel as ASCII decimal strings
both ways so nothing downstream ever rounds, up to the interpreter's digit
limit (4,300): past it an input is a ParseError, a result CapExceeded. dumps
is the one writer: a caller puts records and tuples into a document as they
are, and dumps writes json.dumps's bytes at indent=2 with sorted keys, each
record as its Record.to_json, in one walk of its own. The CLI's text form is
rendered from its document.
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

KINDS = ("matroid", "ideal", "polymatroid")


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


class ValidationOutcome(Record):
    ok: bool
    value: object | None = None
    witness: dict | Record | None = None


def _payload_kind(payload: dict) -> str:
    if "bases" in payload:
        return "matroid"
    if payload.get("polymatroid") is True:
        return "polymatroid"
    if "exponents" in payload:
        return "ideal"
    raise ParseError("payload has neither 'bases' nor 'exponents'")


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
        kind = doc.get("kind", _payload_kind(payload))
    else:
        payload = doc
        name = default_name
        kind = _payload_kind(payload)
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    if "n" not in payload:
        raise ParseError("payload is missing 'n'")
    n = decode_int(payload["n"])
    key = "bases" if kind == "matroid" else "exponents"
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


def realize(instance: Instance) -> ValidationOutcome:
    """Turn a parsed instance into its validated domain object.

    An exchange-style violation comes back as its ExchangeFailure record and
    a structural InvalidInstance error as an {"error", "detail"} payload;
    only wire-format problems raise.
    """
    try:
        if instance.kind == "matroid":
            got = check_basis_exchange(instance.n, instance.vectors)
        elif instance.kind == "polymatroid":
            got = check_polymatroid_bases(instance.n, instance.vectors)
        else:
            got = MonomialIdeal(instance.n, instance.vectors)
    except InvalidInstance as exc:
        return ValidationOutcome(
            False,
            witness={"error": type(exc).__name__, "detail": str(exc)},
        )
    if isinstance(got, (Matroid, PolymatroidBases, MonomialIdeal)):
        return ValidationOutcome(True, value=got)
    return ValidationOutcome(False, witness=got)


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
