"""Tests of the benchmark's own machinery: the tracer and the correctness gate.

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import yardstick

sys.path.insert(0, str(run.SRC))
from fsiegel.cli import strip_volatile  # noqa: E402

SMALL = ["verify", "--q", "3", "--n", "1", "--checks", "all", *run.CAPS]


def _child(entry, tmp: Path, tag: str):
    report = tmp / f"{tag}.json"
    res = run.run_child([sys.executable, *entry, *SMALL], report, 300.0)
    return res["exit_code"], strip_volatile(json.loads(report.read_text()))


def _counts(trace: dict) -> dict:
    """Everything in a trace that is a count rather than a time."""
    spans = {
        name: (s["calls"], s["errors"], s["direct"]["rref_calls"], s["direct"]["mm_calls"],
               s["inclusive"]["rref_calls"], s["inclusive"]["mm_calls"])
        for name, s in trace["spans"].items()
    }
    top = {k: trace[k] for k in ("points", "group_elements", "orbit_points")}
    return {"spans": spans, "top": top, "rref": trace["counters"]["rref_calls"],
            "mm": trace["counters"]["mm_calls"]}


def test_traced_report_equals_untraced_and_counts_repeat():
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        plain = _child(["-m", "fsiegel"], tmp, "plain")
        traces = []
        for i in range(2):
            path = tmp / f"trace-{i}.json"
            assert _child([str(run.BENCH / "tracer.py"), str(path)], tmp, f"traced-{i}") == plain
            traces.append(json.loads(path.read_text()))
    assert _counts(traces[0]) == _counts(traces[1])
    assert traces[0]["counters"]["rref_calls"] > 0
    assert traces[0]["points"] == 10  # q^2 + 1 Lagrangians at (3, 1)
    assert traces[0]["overhead_s"] > 0


ALIAS_CHECK = """
import importlib
import tracer

checks = importlib.import_module("fsiegel.checks")
orbits = importlib.import_module("fsiegel.orbits")
linalg = importlib.import_module("fsiegel.linalg")
pkg = importlib.import_module("fsiegel")
before = (checks.partition, checks._CHECKS["theorem1"], pkg.cayley, linalg.rref)
tracer.Tracer().install()
assert checks.partition is orbits.partition
assert checks.partition.__wrapped__ is before[0]
assert checks._CHECKS["theorem1"] is checks.check_theorem1
assert checks._CHECKS["theorem1"].__wrapped__ is before[1]
assert pkg.cayley is importlib.import_module("fsiegel.cayley").cayley
assert pkg.cayley.__wrapped__ is before[2]
assert linalg.rref.__wrapped__ is before[3]
"""


def test_install_patches_every_alias():
    # in a child interpreter, so this process keeps the unpatched modules
    env = run.child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(run.SRC), str(run.BENCH)])
    proc = subprocess.run([sys.executable, "-c", ALIAS_CHECK], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_leaf_counts_go_to_innermost_span_and_recursion_counts_once():
    t = tracer.Tracer()
    leaf = t._leaf_wrapper(lambda: None, tracer._RREF_CALLS, tracer._RREF_S)

    def inner_fn():
        for _ in range(3):
            leaf()

    inner = t._span_wrapper(inner_fn, "inner")

    def outer_fn(depth):
        leaf()
        if depth:
            outer(depth - 1)
        else:
            inner()

    outer = t._span_wrapper(outer_fn, "outer")
    outer(1)
    rep = t.report()["spans"]
    assert rep["inner"]["direct"]["rref_calls"] == 3
    assert rep["outer"]["direct"]["rref_calls"] == 2
    assert rep["outer"]["inclusive"]["rref_calls"] == 5
    assert rep["outer"]["calls"] == 2
    assert rep["outer"]["total_s"] >= rep["outer"]["self_s"] + rep["inner"]["total_s"] - 1e-9


def test_count_wrong_marks_records_and_whole_runs():
    ref = json.loads((run.REFERENCE / "groups-23-1.json").read_text())
    n = len(ref["report"]["checks"])
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(ref["report"]))
        assert run.count_wrong(ref, path, ref["exit_code"]) == (n, 0)
        assert run.count_wrong(ref, path, ref["exit_code"] + 1) == (n, n)
        bad = copy.deepcopy(ref["report"])
        bad["checks"][0]["status"] = "flipped"
        path.write_text(json.dumps(bad))
        assert run.count_wrong(ref, path, ref["exit_code"]) == (n, 1)
        path.write_text("{not json")
        assert run.count_wrong(ref, path, ref["exit_code"]) == (n, n)


def test_yardstick_orbit_is_deterministic():
    assert yardstick.orbit(300) == yardstick.orbit(300) >= 300
    assert len(yardstick.INV) == yardstick.Q ** 2 - 1  # every nonzero element of the field
