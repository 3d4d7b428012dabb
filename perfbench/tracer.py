"""Outside-in tracer for fsiegel, plus the traced child entry point.

The tracer wraps the public functions of the layer modules from outside,
at every name they are bound under: `from .orbits import act` binds a
separate name in each importing module, and `checks._CHECKS` holds the
check functions in a dict.  Nothing in `src/` changes.

- A wrapped function is a span.  Each span records its total time, its
  self time (total minus its child spans) and the counters raised
  directly inside it.  Totals and inclusive counters are kept only for
  the outermost open span of a name, so recursion is not counted twice.
- The hot linear-algebra leaves (`rref`, `mm`) are not spans: each call
  raises counters on the innermost open span, because a cell makes
  hundreds of thousands of them.
- The trace's `overhead_s` is the time the wrappers themselves add: the
  calls they saw times the cost of each kind of wrapper around a no-op,
  measured in the same process after the run.  The naming and result
  hooks of the few special spans (`partition`, `orbit`, the enumerations)
  are not in it.

Run as a script, it installs the tracer, calls `fsiegel.cli.main` with
the remaining argv and writes the trace as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json verify --q 3 --n 1
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("linalg", "symplectic", "lagrangian", "orbits", "cayley", "involutions", "checks", "cli")

# global counters raised by the leaves; spans snapshot them on entry
COUNTERS = ("rref_calls", "rref_s", "mm_calls")
ZEROS = (0, 0.0, 0)
_RREF_CALLS, _RREF_S, _MM_CALLS = range(len(COUNTERS))
LEAVES = {"rref": (_RREF_CALLS, _RREF_S), "mm": (_MM_CALLS, None)}


class _Frame:
    __slots__ = ("name", "start", "snap", "child")

    def __init__(self, name, start, snap):
        self.name = name
        self.start = start
        self.snap = snap
        self.child = [0.0, *ZEROS]  # elapsed, then counters


class Tracer:
    """Span stack and per-name aggregates for one traced process."""

    def __init__(self):
        self.counters = list(ZEROS)
        self.stack = [_Frame("root", perf_counter(), tuple(self.counters))]
        self.depth: dict[str, int] = {}
        self.spans: dict[str, dict] = {}
        # distinct enumerations, keyed by cell, so a cache hit adds nothing
        self.point_sets: dict[tuple, int] = {}
        self.groups: dict[tuple, int] = {}
        self.orbit_points = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append(_Frame(name, perf_counter(), tuple(self.counters)))

    def _leave(self, failed: bool):
        now = perf_counter()
        fr = self.stack.pop()
        incl = [now - fr.start] + [c - s for c, s in zip(self.counters, fr.snap)]
        parent = self.stack[-1]
        for i, v in enumerate(incl):
            parent.child[i] += v
        self.depth[fr.name] -= 1
        outermost = self.depth[fr.name] == 0
        agg = self.spans.get(fr.name)
        if agg is None:
            agg = self.spans[fr.name] = {
                "calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "error_s": 0.0,
                "direct": list(ZEROS), "inclusive": list(ZEROS),
            }
        agg["calls"] += 1
        agg["self_s"] += incl[0] - fr.child[0]
        for i in range(len(COUNTERS)):
            agg["direct"][i] += incl[i + 1] - fr.child[i + 1]
        if outermost:
            agg["total_s"] += incl[0]
            for i in range(len(COUNTERS)):
                agg["inclusive"][i] += incl[i + 1]
        if failed:
            agg["errors"] += 1
            if outermost:
                agg["error_s"] += incl[0]

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, name, namer=None, on_result=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = namer(sig.bind(*args, **kwargs).arguments) if namer else name
            self._enter(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._leave(True)
                raise
            self._leave(False)
            if on_result is not None:
                on_result(span, sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def _leaf_wrapper(self, fn, calls_idx, time_idx):
        counters = self.counters
        if time_idx is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters[calls_idx] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[calls_idx] += 1
                counters[time_idx] += perf_counter() - t0

        return wrapper

    # -- special cases ---------------------------------------------------------

    def _partition_name(self, bound):
        gens = bound["gens"]
        first = gens[0] if isinstance(gens, (list, tuple)) and gens else None
        return f"orbits.partition[{getattr(first, 'tag', 'other')}]"

    def _orbit_name(self, bound):
        inside = any(f.name.startswith("orbits.partition[") for f in self.stack)
        return "orbits.orbit[partition]" if inside else "orbits.orbit"

    def _on_points(self, span, bound, out):
        self.point_sets[(bound["q"], bound["n"])] = len(out)

    def _on_group(self, span, bound, out):
        sp = bound["sp"]
        self.groups[(sp.q, sp.n, bound["tag"])] = len(out)

    def _on_orbit(self, span, bound, out):
        if span == "orbits.orbit":
            self.orbit_points += out.size

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers at each of its aliases."""
        modules = {layer: importlib.import_module(f"fsiegel.{layer}") for layer in LAYERS}
        special = {
            ("orbits", "partition"): {"namer": self._partition_name},
            ("orbits", "orbit"): {"namer": self._orbit_name, "on_result": self._on_orbit},
            ("lagrangian", "enumerate_lagrangians"): {"on_result": self._on_points},
            ("symplectic", "enumerate_symplectic"): {"on_result": self._on_group},
        }
        swap: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if layer == "linalg":
                    if attr in LEAVES:
                        swap[id(obj)] = self._leaf_wrapper(obj, *LEAVES[attr])
                    continue
                swap[id(obj)] = self._span_wrapper(
                    obj, f"{layer}.{attr}", **special.get((layer, attr), {})
                )
        pkg = importlib.import_module("fsiegel")
        targets = [pkg] + [m for name, m in sorted(sys.modules.items()) if name.startswith("fsiegel.")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, attr, swap[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in swap:
                            obj[key] = swap[id(val)]

    # -- results ---------------------------------------------------------------

    def overhead_s(self, costs: dict) -> float:
        span_calls = sum(a["calls"] for a in self.spans.values())
        return (span_calls * costs["span"] + self.counters[_RREF_CALLS] * costs["timed_leaf"]
                + self.counters[_MM_CALLS] * costs["leaf"])

    def report(self) -> dict:
        spans = {
            name: {
                "calls": a["calls"],
                "errors": a["errors"],
                "total_s": a["total_s"],
                "self_s": a["self_s"],
                "error_s": a["error_s"],
                "direct": dict(zip(COUNTERS, a["direct"])),
                "inclusive": dict(zip(COUNTERS, a["inclusive"])),
            }
            for name, a in sorted(self.spans.items())
        }
        return {
            "counters": dict(zip(COUNTERS, self.counters)),
            "spans": spans,
            "points": sum(self.point_sets.values()),
            "group_elements": sum(self.groups.values()),
            "orbit_points": self.orbit_points,
        }


def wrapper_costs(n: int = 20000, repeats: int = 5) -> dict:
    """Seconds each kind of wrapper adds to one call, best of `repeats` loops around a no-op."""
    t = Tracer()

    def noop():
        return None

    kinds = {
        "span": t._span_wrapper(noop, "noop"),
        "timed_leaf": t._leaf_wrapper(noop, _RREF_CALLS, _RREF_S),
        "leaf": t._leaf_wrapper(noop, _MM_CALLS, None),
    }

    def per_call(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(n):
                fn()
            best = min(best, perf_counter() - t0)
        return best / n

    base = per_call(noop)
    return {kind: max(per_call(fn) - base, 0.0) for kind, fn in kinds.items()}


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("fsiegel.cli")
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        report = tracer.report()
        report["wrapper_cost_s"] = costs = wrapper_costs()
        report["overhead_s"] = tracer.overhead_s(costs)
        with open(trace_path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
