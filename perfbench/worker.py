"""One pass in a fresh process: python3 perfbench/worker.py <src dir>

Imports `reeskit.cli`, then reads {"ops": [[arg, ...], ...], "trace": bool}
from stdin, runs every op through `reeskit.cli.main` in this one process, and
prints one JSON object: the monotonic time at which the import finished, the
pass's wall and CPU time, the process's peak RSS, the time of the reference
loop run just before and just after the pass, and per op the exit code,
captured stdout and any exception. With "trace" it also reports the per-layer
counts and self times of `tracer.Tracer`.

The package holds module-level caches, so a second pass in the same process
would measure cache hits; every pass gets a process of its own.
"""

import contextlib
import io
import json
import resource
import sys
import time

sys.path.insert(0, sys.argv[1])
import reeskit.cli  # noqa: E402

READY = time.monotonic()

REFERENCE_ROUNDS = 300


def reference() -> float:
    """Seconds for a fixed loop shaped like the package's hot paths: a
    fraction-free Bareiss elimination of a small integer matrix, then
    vector differences tested against a few linear forms. It does not touch
    the package, so a change to the program leaves it alone while a slower
    host slows both."""
    start = time.perf_counter()
    forms = [tuple((i * j) % 5 - 1 for j in range(8)) for i in range(6)]
    for k in range(REFERENCE_ROUNDS):
        rows = [[(i * 7 + j * 3 + k * (i + 1)) % 11 - 5 for j in range(8)] for i in range(8)]
        prev = 1
        for c in range(7):
            pivot = next((r for r in range(c, 8) if rows[r][c]), None)
            if pivot is None:
                break
            rows[c], rows[pivot] = rows[pivot], rows[c]
            for r in range(c + 1, 8):
                rows[r] = [(rows[c][c] * rows[r][j] - rows[r][c] * rows[c][j]) // prev
                           for j in range(8)]
            prev = rows[c][c]
        for a in rows:
            for b in rows:
                d = tuple(x - y for x, y in zip(a, b))
                all(sum(f * x for f, x in zip(form, d)) >= 0 for form in forms)
    return time.perf_counter() - start


def run(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main = reeskit.cli.main
    results = []
    cli_self = 0.0
    before = reference() if spec["ops"] else 0.0
    cpu_start = time.process_time()
    start = time.perf_counter()
    for argv in spec["ops"]:
        out = io.StringIO()
        code, error = None, None
        if tracer:
            tracer.enter()
        op_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            error = f"{type(exc).__name__}: {exc}"[:500]
        finally:
            if tracer:
                cli_self += time.perf_counter() - op_start - tracer.leave()
        results.append({"code": code, "stdout": out.getvalue(), "error": error})
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    after = reference() if spec["ops"] else 0.0
    report = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        "reference_s": [before, after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
    }
    if tracer:
        report["trace"] = tracer.report()
        report["trace"]["cli_self_s"] = cli_self
    return report


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.load(sys.stdin))) + "\n")
