"""Checks on the outputs of one pass, and the work counts they report.

An op fails when it raised, printed anything but exactly one JSON object,
exited with a code other than the one its output implies, or contradicts a
known answer of its workload. Across passes of one seed, an op also fails when
its stdout digest differs from the first pass (checked in run.py).
"""

from __future__ import annotations

import hashlib
import json

from workloads import GRAPHIC_VOLUME

CORPUS_CHECKS = ("C3.9", "L3.10", "P3.7", "T2.2", "T3.6")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cross_check(hilbert: dict, generators, normality: dict) -> str | None:
    """An irreducible lattice point lies in the generated semigroup iff it is
    a generator, so the ideal is normal iff every Hilbert element is one, and
    the witness of the Hilbert route is the lex-first element that is not."""
    outside = [h for h in hilbert["elements"] if h not in generators]
    verdict = normality.get("verdict")
    if (verdict == "normal") != (not outside):
        return f"verdict {verdict!r} but {len(outside)} Hilbert elements are not generators"
    if verdict == "not_normal" and normality.get("witness") != min(outside):
        return f"witness {normality.get('witness')} is not the lex-first non-generator"
    return None


def _check_op(argv, code, doc, ctx: dict) -> str | None:
    """None when the parsed document of one op is right, else the reason."""
    cmd = argv[0]
    if cmd == "corpus":
        reports = doc.get("reports", [])
        if sorted(r.get("check") for r in reports) != list(CORPUS_CHECKS):
            return "corpus did not run all five checks"
        if any(r.get("status") != "pass" for r in reports):
            return "a corpus check failed"
        if len({r.get("instances") for r in reports}) != 1:
            return "corpus checks saw different instance counts"
        return None if code == 0 else f"exit {code}"
    if cmd == "analyze":
        normality = doc.get("normality", {})
        if normality != {"method": "both", "verdict": "normal"}:
            return f"graphic basis ideal not certified normal by both routes: {normality}"
        if doc["hilbert"]["method"]["parallelepiped_points"] != GRAPHIC_VOLUME:
            return "normalized volume differs from the known value"
        # Normal and generated in one degree: the Hilbert basis is exactly the
        # generator set, as no lifted generator splits off a unit.
        if sorted(doc["hilbert"]["elements"]) != sorted(doc["generators"]):
            return "Hilbert basis of a normal basis ideal is not its generator set"
        return _cross_check(doc["hilbert"], doc["generators"], normality) or (
            None if code == 0 else f"exit {code}"
        )
    if cmd == "hilbert":
        ctx.setdefault(argv[1], {})["hilbert"] = doc
        return None if code == 0 else f"exit {code}"
    if cmd == "normality":
        cert = doc.get("certificate", {})
        if cert.get("verdict") not in ("normal", "not_normal"):
            return f"no verdict: {cert}"
        if ctx.get("polymatroid") and cert.get("verdict") != "normal":
            return "polymatroidal ideal reported not normal"
        want = 0 if cert["verdict"] == "normal" else 1
        seen = ctx.setdefault(argv[1], {})
        if "hilbert" in seen:
            h = seen["hilbert"]
            bad = _cross_check(h["hilbert"], h["generators"], cert)
            if bad:
                return bad
        return None if code == want else f"exit {code}, verdict {cert['verdict']}"
    if cmd == "polymatroid-check":
        if doc.get("valid") is not True:
            return "bases rejected"
        if not all(d.get("ok") for d in doc.get("division_closure", [])):
            return "a division by a variable left the polymatroid"
        if doc.get("symmetric_exchange_violations"):
            return "symmetric exchange violated"
        return None if code == 0 else f"exit {code}"
    if cmd == "ehrhart-check":
        eq = doc.get("equality", {})
        if eq.get("passed") is not True:
            return "dilation equality failed"
        return None if code == 0 else f"exit {code}"
    return f"no check for command {cmd!r}"


def check_pass(workload: str, ops, results) -> list[str | None]:
    """Per op: None if it passed, else why it failed."""
    ctx = {"polymatroid": workload == "polymatroid_dilation"}
    verdicts = []
    for op, res in zip(ops, results):
        if res["error"]:
            verdicts.append(f"raised {res['error']}")
            continue
        try:
            doc = json.loads(res["stdout"])
        except json.JSONDecodeError:
            verdicts.append("stdout is not exactly one JSON document")
            continue
        if not isinstance(doc, dict):
            verdicts.append("stdout is not a JSON object")
            continue
        try:
            verdicts.append(_check_op(op.argv, res["code"], doc, ctx))
        except (KeyError, TypeError, ValueError) as exc:
            verdicts.append(f"malformed output: {type(exc).__name__}: {exc}")
    return verdicts


def work_counts(ops, results) -> dict:
    """Exact work the program reports in its own output."""
    counts = {"simplices": 0, "parallelepiped_points": 0, "candidates": 0,
              "hilbert_elements": 0, "dilation_points": 0, "matroids": 0,
              "stdout_bytes": 0}
    ideals = set()
    for op, res in zip(ops, results):
        counts["stdout_bytes"] += len(res["stdout"].encode())
        if op.ideal:
            ideals.add(op.ideal)
        try:
            doc = json.loads(res["stdout"])
        except json.JSONDecodeError:
            continue
        hb = doc.get("hilbert")
        if isinstance(hb, dict) and "method" in hb:
            for key in ("simplices", "parallelepiped_points", "candidates"):
                counts[key] += hb["method"][key]
            counts["hilbert_elements"] += len(hb["elements"])
        for d in doc.get("equality", {}).get("dilations", []):
            counts["dilation_points"] += d["points"]
        if op.argv[0] == "corpus":
            counts["matroids"] += doc["reports"][0]["instances"]
    counts["ideals"] = len(ideals) + counts["matroids"]
    return counts
