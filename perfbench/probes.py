"""Known-defect probes, run once per benchmark invocation.

Each input runs in its own process under a short wall-clock limit. The
outcome is reported beside the result, never as a workload, a metric or a
failed op, so the defect stays visible and a change that fixes it is not
charged with a slowdown.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

PROBES = (
    {
        "name": "ehrhart_veronese_3_50",
        "defect": "membership DP recursion depth grows with the generator count",
        "known_outcome": "RecursionError",
        "limit_s": 20.0,
        "payload": {
            "n": 3,
            "exponents": [[a, b, 50 - a - b] for a in range(51) for b in range(51 - a)],
        },
    },
    {
        "name": "ehrhart_huge_box",
        "defect": "the dilation box scan has no work bound",
        "known_outcome": "timeout",
        "limit_s": 1.5,
        "payload": {"n": 2, "exponents": [[10**6, 0], [0, 10**6]]},
    },
)


def _outcome(proc: subprocess.CompletedProcess) -> str:
    last = proc.stderr.strip().splitlines()[-1:] or [""]
    if "Traceback" in proc.stderr:
        return last[0].split(":", 1)[0]
    return f"exit {proc.returncode}"


def run_probes(src: str, workdir: Path) -> list[dict]:
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    report = []
    for probe in PROBES:
        path = workdir / f"probe_{probe['name']}.json"
        path.write_text(json.dumps({"kind": "ideal", "name": probe["name"],
                                    "payload": probe["payload"]}) + "\n")
        argv = [sys.executable, "-m", "reeskit.cli", "ehrhart-check", str(path), "--bmax", "1"]
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                                  timeout=probe["limit_s"])
            outcome = _outcome(proc)
        except subprocess.TimeoutExpired:
            outcome = "timeout"
        report.append({
            "probe": probe["name"],
            "defect": probe["defect"],
            "outcome": outcome,
            "known": outcome == probe["known_outcome"],
            "seconds": round(time.monotonic() - start, 3),
        })
    return report
