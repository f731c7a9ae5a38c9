"""reeskit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding `src/reeskit`).
Workloads and the reasons for them are in BENCHMARK.json and workloads.py.

The benchmark writes the workload's instance files under `.bench_work/`, then
times whole passes over them. Every pass runs in a fresh single-threaded
process (worker.py), because the package keeps unbounded module-level caches
that a second pass in the same process would hit. Passes repeat until about
`--seconds` have gone, at least MIN_PASSES times, and each timing is the
median over passes. `setup_s` is the median over SETUP_SAMPLES import-only
spawns and every pass's own spawn. Times are scaled to a host of nominal
speed by a reference loop timed around every pass (see end_to_end).

With `--trace 0` the result holds the end-to-end metrics. With `--trace 1`
untraced and traced passes alternate, and the result holds the per-layer
counts and self times (tracer.py), the exact work counts the program reports,
and the traced / untraced wall-time ratio.

Every op's output is verified (verify.py); a failed op is counted in `failed`,
and `failed / attempted` is the error rate. The known-defect probes
(probes.py) run once at the end and are printed on the line before the
result, outside the metrics. The last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import verify
import workloads

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".bench_work")
SETUP_SAMPLES = 7
MIN_PASSES = 3

# Per-layer metrics, named <module>.<function>.<calls|self_s> for wrapped
# functions; see BENCHMARK.json for what each should move.
CALLS_AND_SELF = (
    "exactlat.determinant", "exactlat.adjugate", "exactlat.rank",
    "reescone.facet_normals", "reescone.facet_tight_sets",
    "semigroup.hilbert_basis", "semigroup.ehrhart_points",
    "semigroup.semigroup_member", "matroid.check_basis_exchange",
    "polymatroid.check_polymatroid_bases", "polymatroid.divide_by_variable",
)
SELF_ONLY = (
    "exactlat.kernel_basis", "reescone.extreme_generators",
    "reescone.verify_basis_facet_shape", "semigroup.ehrhart_equality_check",
    "semigroup.decomposition_check", "semigroup.is_normal",
    "matroid.enumerate_matroids", "polymatroid.symmetric_exchange_violations",
    "jsonio.load_instance", "jsonio.realize", "jsonio.dumps",
)
# Derived per-layer metrics: name -> unit.
DERIVED = {
    "cli.self_s": "s",
    "reescone.rank_calls": "count",
    "semigroup.simplices": "count",
    "semigroup.parallelepiped_points": "count",
    "semigroup.candidates": "count",
    "semigroup.hilbert_yield": "ratio",
    "semigroup.hilbert_per_ideal": "ratio",
    "semigroup.dilation_points": "count",
    "matroid.families_tried": "count",
    "matroid.enum_yield": "ratio",
    "jsonio.stdout_bytes": "bytes",
    "trace.overhead": "ratio",
    "src.lines": "lines",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in CALLS_AND_SELF:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    for fn in SELF_ONLY:
        units[f"{fn}.self_s"] = "s"
    units.update(DERIVED)
    return units


END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Median time of worker.reference on the 2-vCPU host the benchmark was tuned on
# (Python 3.11); times are reported as if the reference had taken this long.
REFERENCE_NOMINAL_S = 0.15


def spawn(ops, trace: bool) -> dict | None:
    """Run one pass in a fresh process; None if the process itself failed."""
    # A fixed string hash keeps set and dict order, and so each pass's work,
    # the same from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spec = json.dumps({"ops": [list(op.argv) for op in ops], "trace": trace})
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )
    out, err = proc.communicate(spec)
    if proc.returncode != 0 or not out.strip():
        print(f"pass process failed (exit {proc.returncode}): {err[-500:]}", file=sys.stderr)
        return None
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - start
    return report


def measure(ops, seconds: float, trace: bool):
    """Untraced (and, with trace, traced) pass reports, alternating."""
    kinds = (False, True) if trace else (False,)
    runs: dict[bool, list] = {k: [] for k in kinds}
    start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for k in kinds:
            runs[k].append(spawn(ops, k))
        rounds += 1
        elapsed = time.monotonic() - start
        last = time.monotonic() - round_start
        if rounds >= (MIN_PASSES if not trace else 2) and elapsed + last > seconds:
            return runs


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def judge(workload: str, ops, runs) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every pass of this invocation."""
    passes = [r for k in runs for r in runs[k]]
    good = [r for r in passes if r is not None]
    attempted = len(ops) * len(passes)
    failed = len(ops) * (len(passes) - len(good))
    reasons = [] if len(good) == len(passes) else ["a pass process failed"]
    if not good:
        return attempted, failed, reasons
    first = good[0]["ops"]
    verdicts = verify.check_pass(workload, ops, first)
    digests = [verify.digest(r["stdout"]) for r in first]
    for rep in good:
        for i, (op, res) in enumerate(zip(ops, rep["ops"])):
            why = verdicts[i]
            if why is None and res["error"]:
                why = f"raised {res['error']}"
            elif why is None and res["code"] != first[i]["code"]:
                why = f"exit {res['code']} differs between passes"
            elif why is None and verify.digest(res["stdout"]) != digests[i]:
                why = "stdout differs between passes"
            if why:
                failed += 1
                reasons.append(f"{' '.join(op.argv)}: {why}")
    return attempted, failed, reasons


def end_to_end(runs, setup) -> dict:
    """Median pass and set-up times, scaled to a host of nominal speed.

    The host's speed drifts by 20-40% over minutes. Each time is therefore
    multiplied by REFERENCE_NOMINAL_S over the median time of the reference
    loop run around every pass of this invocation (worker.reference), which
    a slower host slows too but a change to the program does not.
    """
    good = [r for r in runs[False] if r is not None]
    ref = statistics.median(t for r in good for t in r["reference_s"])
    wall = statistics.median(r["wall_s"] for r in good)
    cpu = statistics.median(r["cpu_s"] for r in good)
    setup_s = statistics.median(r["setup_s"] for r in good + setup if r is not None)
    print(f"{len(good)} passes; unscaled medians: wall {wall:.3f} s, cpu {cpu:.3f} s,"
          f" setup {setup_s:.4f} s; reference {ref:.4f} s", file=sys.stderr)
    scale = REFERENCE_NOMINAL_S / ref
    return {
        "wall_s": wall * scale,
        "cpu_s": cpu * scale,
        "setup_s": setup_s * scale,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in good),
    }


def per_layer(ops, runs) -> tuple[dict, list[str]]:
    traced = [r for r in runs[True] if r is not None]
    untraced = [r for r in runs[False] if r is not None]
    reasons = []
    calls = traced[0]["trace"]["calls"]
    edges = traced[0]["trace"]["edges"]
    if any(r["trace"]["calls"] != calls or r["trace"]["edges"] != edges for r in traced):
        reasons.append("traced call counts differ between passes")
    self_s = {
        key: statistics.median(r["trace"]["self_s"].get(key, 0.0) for r in traced)
        for key in calls
    }
    counts = verify.work_counts(ops, traced[0]["ops"])
    values = {}
    for fn in CALLS_AND_SELF:
        values[f"{fn}.calls"] = calls.get(fn, 0)
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for fn in SELF_ONLY:
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    families = edges.get("matroid.check_basis_exchange@matroid", 0)
    values.update({
        "cli.self_s": statistics.median(r["trace"]["cli_self_s"] for r in traced),
        "reescone.rank_calls": edges.get("exactlat.rank@reescone", 0),
        "semigroup.simplices": counts["simplices"],
        "semigroup.parallelepiped_points": counts["parallelepiped_points"],
        "semigroup.candidates": counts["candidates"],
        "semigroup.hilbert_yield": (
            counts["hilbert_elements"] / counts["candidates"] if counts["candidates"] else 0.0
        ),
        "semigroup.hilbert_per_ideal": (
            calls.get("semigroup.hilbert_basis", 0) / counts["ideals"] if counts["ideals"] else 0.0
        ),
        "semigroup.dilation_points": counts["dilation_points"],
        "matroid.families_tried": families,
        "matroid.enum_yield": counts["matroids"] / families if families else 0.0,
        "jsonio.stdout_bytes": counts["stdout_bytes"],
        "trace.overhead": (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced)
        ),
        "src.lines": src_lines(),
    })
    return values, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reeskit" / "cli.py").is_file():
        print(f"no {SRC / 'reeskit'} here: run from the root of a reeskit checkout",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, WORK / f"{args.workload}-{args.seed}")
    spawn([], False)  # writes bytecode caches, so no sample pays for compiling
    setup = [spawn([], False) for _ in range(SETUP_SAMPLES)]
    runs = measure(ops, args.seconds, bool(args.trace))
    attempted, failed, reasons = judge(args.workload, ops, runs)

    correct = failed == 0 and all(r is not None for r in setup) and any(runs[False])
    metrics = {}
    if any(runs[False]):
        if args.trace:
            values, more = per_layer(ops, runs) if any(runs[True]) else ({}, ["no traced pass"])
            reasons += more
            units = per_layer_units()
        else:
            values, units = end_to_end(runs, setup), END_TO_END
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        correct = correct and not reasons
    for why in reasons[:20]:
        print(f"FAILED {why}", file=sys.stderr)

    print(json.dumps({"probes": probes.run_probes(str(SRC), WORK)}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
