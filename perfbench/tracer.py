"""Per-layer call counts and self time, recorded from outside the package.

The layer modules import each other's functions by name, so `semigroup`
holds its own reference to `exactlat.adjugate`. `install` therefore replaces
every `reeskit.*` module attribute that is a wrapped function object, with a
wrapper that also knows the module it was installed in: a call is charged to
the function and counted against the calling module.

Spans are folded into per-function totals as they close and stay in memory
until the pass ends. Self time is a span's duration minus the time covered by
the wrapped spans it called.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("exactlat", "matroid", "polymatroid", "reescone", "semigroup", "jsonio")

# Leaf helpers called millions of times per pass; wrapping them would dwarf
# the work measured, so their cost stays in the caller's self time.
UNWRAPPED = frozenset({"dot", "vsub", "primitive", "encode", "encode_int", "decode_int"})


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[str, int] = {}  # "<callee>@<caller module>" -> calls
        self._stack: list[float] = []  # child time accumulated per open span

    def _wrap(self, fn, key: str, caller: str):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack
        edge = f"{key}@{caller}"
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        edges.setdefault(edge, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += span
                calls[key] += 1
                edges[edge] += 1
                self_s[key] += span - child

        return traced

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"reeskit.{layer}"]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED
                ):
                    targets[obj] = f"{layer}.{name}"
        for modname, mod in list(sys.modules.items()):
            if modname != "reeskit" and not modname.startswith("reeskit."):
                continue
            caller = modname.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, name, self._wrap(obj, targets[obj], caller))

    def enter(self) -> None:
        """Open a root span, such as one CLI call."""
        self._stack.append(0.0)

    def leave(self) -> float:
        """Close the root span; return the time its wrapped children took."""
        return self._stack.pop()

    def report(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "edges": self.edges}
