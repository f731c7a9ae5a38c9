"""Batch command line interface.

Exit codes: 0 pass, 1 domain-negative result or failure witness, 2 usage or
parse error, 3 resource cap exceeded. Stdout carries one deterministic JSON
document, or that document rendered as text; wall time goes to a stderr
trailer so byte-wise output comparison stays meaningful. Each cmd_* handler
returns its (document, exit code) and writes nothing; main, the one writer
of stdout, writes that document or the one of the error raised on the way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from math import comb

from . import jsonio
from .errors import CapExceeded, InvalidInstance, ParseError, ReesKitError
from .matroid import (ENUMERATION_CAP, Matroid, basis_monomial_ideal, enumerate_matroids,
                      matroid_classes)
from .polymatroid import (
    PolymatroidBases,
    check_polymatroid_bases,
    divide_by_variable,
    symmetric_exchange_violations,
)
from .reescone import ORACLE_CAP, Verdict, facet_normals_oracle, verify_basis_facet_shape
from .semigroup import DEFAULT_CAP, IdealSession

CHECKS = {
    "T3.6": "quasi-ideal facet shape of basis Rees cones",
    "P3.7": "dilation equality for basis monomials",
    "C3.9": "normality of basis monomial ideals",
    "T2.2": "decomposition of the normalization",
    "L3.10": "closure of base sets under variable division",
}


def _scalar_list(v) -> bool:
    return isinstance(v, list) and not any(isinstance(e, (dict, list)) for e in v)


def _render_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        items = [(f"{k}:", f"{k}: ", payload[k]) for k in sorted(payload)]
    elif isinstance(payload, list):
        items = [("-", "- ", v) for v in payload]
    else:
        return f"{pad}{payload}"
    lines = []
    for head, lead, v in items:
        if _scalar_list(v):
            lines.append(f"{pad}{lead}[{', '.join(str(e) for e in v)}]")
        elif isinstance(v, (dict, list)):
            lines += [f"{pad}{head}", _render_text(v, indent + 1)]
        else:
            lines.append(f"{pad}{lead}{v}")
    return "\n".join(line for line in lines if line != "")


class _Invalid(Exception):
    """An instance that fails validation; args[0] is its invalid_instance
    document, which main writes before exiting 1. Not a ReesKitError, so
    neither corpus's _failures nor main's generic branch can catch it."""


def _valid(instance, view, named: bool = False):
    """view(value) for instance's validated value: how _session and
    polymatroid-check read every kind. An instance that fails validation, or
    whose value view refuses (a rank-0 matroid has no nonconstant generator),
    raises _Invalid, naming kind and name when named."""
    got = jsonio.realize(instance)
    try:
        if isinstance(got, jsonio.VALUES):
            return view(got)
    except InvalidInstance as exc:
        got = {"error": type(exc).__name__, "detail": str(exc)}
    payload = {"error": "invalid_instance", "witness": got}
    if named:
        payload.update(kind=instance.kind, name=instance.name)
    raise _Invalid(payload)


def _session(args, named: bool = False):
    """(instance, session): the instance args names, read once, and an
    IdealSession on the ideal it feeds into cone analysis (see _valid)."""
    instance = jsonio.load_instance(args.instance)
    return instance, IdealSession(_valid(instance, jsonio.analysis_ideal, named), args.cap)


def _bases(value):
    """A validated value's polymatroid bases, or the ExchangeFailure refuting an
    ideal's exponents, each family walked once: a matroid's indicator vectors
    come lex-sorted and unwalked, as its validating walk is the one they would
    take, and an ideal of unequal degrees raises UnequalModuli."""
    if isinstance(value, Matroid):
        ground = range(1, value.n + 1)
        return PolymatroidBases(value.n, value.d,
                                sorted(tuple(int(e in b) for e in ground) for b in value.bases))
    if isinstance(value, PolymatroidBases):
        return value
    return check_polymatroid_bases(value.n, value.exponents)


def _divisions(bases: PolymatroidBases):
    """(i, witness) for each coordinate i some base uses: witness is None when
    dividing by x_i leaves a polymatroid (L3.10), else the counterexample.
    Lazy, so a caller can stop at the first witness."""
    for i in range(1, bases.n + 1):
        if all(v[i - 1] == 0 for v in bases.vectors):
            continue
        got = divide_by_variable(bases, i)
        yield i, (None if isinstance(got, PolymatroidBases)
                  else {"input": bases, "coordinate": i, "witness": got})


def cmd_validate(args) -> tuple[dict, int]:
    instance = jsonio.load_instance(args.instance)
    got = jsonio.realize(instance)
    valid = isinstance(got, jsonio.VALUES)
    return {"valid": valid, "kind": instance.kind, "name": instance.name,
            "normalized" if valid else "witness": got}, 0 if valid else 1


def cmd_analyze(args) -> tuple[dict, int]:
    instance, session = _session(args, named=True)
    payload = {
        "name": instance.name,
        "kind": instance.kind,
        "ideal": session.ideal,
        "generators": session.cone.generators,
        "facets": session.facets,
        "classification": session.classification,
    }
    try:
        payload["hilbert"] = session.hilbert
        payload["normality"] = session.certificate
    except CapExceeded as exc:
        notice = {"error": "cap_exceeded", "detail": str(exc)}
        payload.setdefault("hilbert", notice)
        payload["normality"] = notice
    return payload, 0


def cmd_rees_facets(args) -> tuple[dict, int]:
    instance, session = _session(args)
    cone, fs = session.cone, session.facets
    g = len(cone.generators)
    run_oracle = args.oracle or g <= ORACLE_CAP
    if run_oracle:  # --oracle lifts the oracle's own cap, so its subsets count against --cap
        if g > ORACLE_CAP and (subsets := comb(g, cone.dim - 1)) > args.cap:
            raise CapExceeded(f"the oracle's {subsets} subsets of {cone.dim - 1} of the "
                              f"{g} generators exceed the cap {args.cap}")
        oracle = facet_normals_oracle(cone, cap=max(ORACLE_CAP, g))
        if oracle != fs:
            return {"error": "integrity", "detail": "oracle disagrees with the engine",
                    "facets": fs, "oracle": oracle}, 1
    return {"name": instance.name, "generators": cone.generators,
            "facets": fs, "oracle_checked": run_oracle}, 0


def cmd_classify(args) -> tuple[dict, int]:
    instance, session = _session(args)
    result = session.classification
    return ({"name": instance.name, "facets": session.facets,
             "classification": result}, 1 if result.verdict is Verdict.NEITHER else 0)


def cmd_hilbert(args) -> tuple[dict, int]:
    instance, session = _session(args)
    return {"name": instance.name, "generators": session.cone.generators,
            "facets": session.facets, "hilbert": session.hilbert}, 0


def cmd_normality(args) -> tuple[dict, int]:
    instance, session = _session(args)
    cert = session.certificate
    return {"name": instance.name, "certificate": cert}, 0 if cert.verdict == "normal" else 1


def cmd_ehrhart_check(args) -> tuple[dict, int]:
    instance, session = _session(args)
    report = session.equality(args.bmax)
    return {"name": instance.name, "equality": report}, 0 if report.passed else 1


def cmd_polymatroid_check(args) -> tuple[dict, int]:
    instance = jsonio.load_instance(args.instance)
    got = _valid(instance, _bases)
    if not isinstance(got, PolymatroidBases):
        return {"name": instance.name, "valid": False, "witness": got}, 1
    divisions = [{"coordinate": i, "ok": w is None, **({} if w is None else {"witness": w})}
                 for i, w in _divisions(got)]
    sym = symmetric_exchange_violations(got)
    payload = {
        "name": instance.name,
        "valid": True,
        "bases": got,
        "division_closure": divisions,
        "symmetric_exchange_violations": [{"vec_a": a, "vec_b": c, "index": i} for a, c, i in sym],
    }
    return payload, 1 if any(not d["ok"] for d in divisions) or sym else 0


def _corpus_pairs(n_max: int, rank_filter: int | None) -> list:
    """The (n, d) a corpus sweep covers, in its order."""
    return [(n, d) for n in range(1, n_max + 1)
            for d in ([rank_filter] if rank_filter is not None else range(1, n + 1)) if d <= n]


def _failures(m, codes, args) -> dict:
    """{code: failure payload} for each of codes that fails on matroid m, all
    run on one session; a ReesKitError is its code's payload."""
    session, found = IdealSession(basis_monomial_ideal(m), args.cap), {}
    for code in codes:
        try:
            found[code] = _run_check(code, m, session, args)
        except ReesKitError as exc:
            found[code] = {"error": type(exc).__name__, "detail": str(exc)}
    return {code: bad for code, bad in found.items() if bad is not None}


def cmd_corpus(args) -> tuple[dict, int]:
    """Run the selected checks over every matroid with n <= n_max, once per
    isomorphism class.

    A permutation of the ground set permutes the variables of the basis
    ideal and the first n coordinates of its Rees cone, so it maps facets,
    T3.6's family, Hilbert bases, dilations and exchange failures onto
    themselves (the total simplex volume that --cap bounds too): a check's
    verdict is constant on a class. The classes come from
    `matroid_classes`, grown by single-element extension, and each check
    runs on each class's lex-least member, in (n, d, bases) order, on one
    session (_failures). A failure's witness or cap message may depend on
    the labelling, so the checks that fail there run again, on one session
    each, on every other member of the class, named by its position in that
    (n, d)'s orbit keys, sorted once: the report is the one a labelled sweep
    gives. `instances` counts labelled matroids: the classes' orbit sizes.
    """
    if args.n_max < 1:
        raise ParseError(f"n_max must be at least 1, got {args.n_max}")
    if args.rank is not None and not 1 <= args.rank <= args.n_max:
        raise ParseError(f"--rank must lie in 1..{args.n_max}, got {args.rank}")
    # each code runs once; an empty name ("", ",") is unknown, not "all"
    codes = sorted(CHECKS if args.checks is None else set(args.checks.split(",")))
    for c in codes:
        if c not in CHECKS:
            raise ParseError(f"unknown check {c!r}; expected one of {sorted(CHECKS)}")
    if args.n_max > ENUMERATION_CAP:
        raise CapExceeded(
            f"ground set size {args.n_max} exceeds the enumeration cap {ENUMERATION_CAP}"
        )
    pairs = _corpus_pairs(args.n_max, args.rank)
    instances = 0
    failures = {code: [] for code in codes}
    for (n, d), orbit in zip(pairs, matroid_classes(pairs)):
        instances += len(orbit)
        names = None
        for m in sorted(set(orbit.values()), key=lambda m: m.bases):
            if not (bad := _failures(m, codes, args)):
                continue
            names = names or {b: f"n{n}_d{d}_{i:04d}" for i, b in enumerate(sorted(orbit))}
            for bases, name in names.items():
                if orbit[bases] is m:
                    mi = Matroid.unchecked(n, d, bases)
                    for code, got in (bad if mi == m else _failures(mi, bad, args)).items():
                        failures[code].append({"instance": name, "matroid": mi, **got})
    reports = []
    for code, found in failures.items():
        found.sort(key=lambda f: f["instance"])
        reports.append({
            "check": code,
            "title": CHECKS[code],
            "instances": instances,
            "failures": found,
            "status": "pass" if not found else "fail",
        })
    return {"n_max": args.n_max, "reports": reports}, 1 if any(failures.values()) else 0


def _run_check(code: str, m, session: IdealSession, args):
    """None when the check passes on matroid m, else a failure payload."""
    if code == "T3.6":
        violations = verify_basis_facet_shape(m, session.facets)
        return {"violations": violations} if violations else None
    if code == "C3.9":
        cert = session.normality
        return None if cert.verdict == "normal" else {"certificate": cert}
    if code == "P3.7":
        report = session.equality(args.bmax)
        return None if report.passed else {"equality": report}
    if code == "T2.2":
        report = session.decomposition
        return None if report.holds else {"decomposition": report}
    if code == "L3.10":
        witness = next((w for _, w in _divisions(_bases(m)) if w is not None), None)
        return None if witness is None else {"witness": witness}
    raise ParseError(f"unknown check {code!r}")


def cmd_enumerate_matroids(args) -> tuple[dict, int]:
    if args.n < 1:
        raise ParseError(f"n must be at least 1, got {args.n}")
    if not 1 <= args.d <= args.n:
        raise ParseError(f"d must lie in 1..{args.n}, got {args.d}")
    found = enumerate_matroids(args.n, args.d)
    return {"n": args.n, "d": args.d, "count": len(found), "matroids": found}, 0


def cmd_instances(args) -> tuple[dict, int]:
    if args.show:
        instance = jsonio.load_bundled(args.show)
        payload = {"n": instance.n, jsonio.KINDS[instance.kind][0]: instance.vectors}
        if instance.kind == "polymatroid":
            payload["polymatroid"] = True
        return {"kind": instance.kind, "name": instance.name, "payload": payload}, 0
    return {"bundled": jsonio.bundled_names()}, 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (an unknown command, a missing or
    ill-typed argument) raise ParseError after the usage line on stderr, so
    main answers them with a JSON document like any other parse error.
    Subcommand parsers are built with the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


COMMANDS = ("validate", "analyze", "rees-facets", "classify", "hilbert", "normality",
            "ehrhart-check", "polymatroid-check", "corpus", "enumerate-matroids", "instances")


def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given `only`, one of that command
    alone, whose usage line lists every command as the full parser's does;
    parse_args leaves either unchanged, so each is built once per process,
    by _command_parser, and reused."""
    parser = _Parser(
        prog="reeskit",
        description="Exact Rees-cone analysis of monomial ideals, matroids, "
        "and discrete polymatroids.",
    )
    sub = parser.add_subparsers(dest="command",
                                metavar=only and "{" + ",".join(COMMANDS) + "}")

    def add(name, handler, help_, instance=True):
        if only not in (None, name):
            return None
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if instance:
            p.add_argument(
                "instance",
                help="path to an instance file, or bundled:<name>",
            )
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="parallelepiped lattice-point budget")
        return p

    add("validate", cmd_validate, "validate an instance file")
    add("analyze", cmd_analyze, "full report: generators, facets, "
        "classification, Hilbert basis, normality")
    if p := add("rees-facets", cmd_rees_facets, "facet system of the Rees cone"):
        p.add_argument("--oracle", action="store_true",
                       help="force the brute-force cross-check (auto below "
                       f"{ORACLE_CAP + 1} generators; past that its subsets count against --cap)")
    add("classify", cmd_classify, "ideal / quasi_ideal / neither")
    add("hilbert", cmd_hilbert, "Hilbert basis of the cone's lattice points")
    add("normality", cmd_normality, "two-route normality certificate")
    if p := add("ehrhart-check", cmd_ehrhart_check, "dilation equality up to a bound"):
        p.add_argument("--bmax", type=int, default=None,
                       help="dilation bound (default: largest Hilbert height)")
    add("polymatroid-check", cmd_polymatroid_check,
        "validate bases, division closure, symmetric exchange")
    if p := add("corpus", cmd_corpus, "run structural checks over all matroids up "
                "to a ground-set size", instance=False):
        p.add_argument("n_max", type=int)
        p.add_argument("--rank", type=int, default=None, help="restrict to one rank")
        p.add_argument("--checks", default=None,
                       help="comma list from " + ",".join(sorted(CHECKS)))
        p.add_argument("--bmax", type=int, default=3,
                       help="dilation bound for P3.7")
    if p := add("enumerate-matroids", cmd_enumerate_matroids,
                "all matroids of one rank on a ground set", instance=False):
        p.add_argument("n", type=int)
        p.add_argument("d", type=int)
    if p := add("instances", cmd_instances, "list or show bundled instances",
                instance=False):
        p.add_argument("--show", default=None, metavar="NAME")
    return parser


_command_parser = cache(_parser)


def _parse(argv) -> argparse.Namespace:
    """argv parsed by the named command's own parser, usage errors included,
    or by the full parser when argv names no command."""
    parser = _command_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help(sys.stderr)
        raise ParseError("no command given")
    return args


def main(argv=None) -> int:
    """Write argv's one document to stdout, this module's only write there, and
    return its exit code; once argv parses, stderr gets the wall_time_s trailer."""
    args = doc = None
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
            start = time.perf_counter()
            for flag in ("cap", "bmax"):  # in this order, before any instance is read
                value = getattr(args, flag, None)
                if value is not None and value < 0:
                    raise ParseError(f"--{flag} must be nonnegative, got {value}")
            payload, code = args.handler(args)
            doc = jsonio.dumps(payload)  # CapExceeded past the interpreter's digit limit
        except _Invalid as exc:
            payload, code = exc.args[0], 1
        except ParseError as exc:
            payload, code = {"error": "parse", "detail": str(exc)}, 2
        except CapExceeded as exc:
            payload, code = {"error": "cap_exceeded", "detail": str(exc)}, 3
        except ReesKitError as exc:
            payload, code = {"error": type(exc).__name__, "detail": str(exc)}, 1
        doc = doc or jsonio.dumps(payload)  # the document of the error raised
        if args is not None and args.format == "text":
            doc = _render_text(json.loads(doc)) + "\n"
        sys.stdout.write(doc)
        return code
    finally:
        if args is not None:
            print(f"wall_time_s: {time.perf_counter() - start:.3f}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
