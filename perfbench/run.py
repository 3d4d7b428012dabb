"""Benchmark for `fsiegel verify`: time to an exact verdict, cold process.

    python3 perfbench/run.py --workload points-3-2 --seed 1 --seconds 30 --trace 0

Each workload is one fixed `fsiegel verify` invocation, run serially
(`--jobs 1`, explicit caps) in a fresh interpreter per child, so the
enumeration and closure caches start cold as they do for a user.  The
program's inputs are its argv, the same for every `--seed`: fsiegel
derives all of its sampling from the (check, q, n) triple.

`--trace 0` runs the workload child again and again for `--seconds` and
prints the end-to-end metrics.  On a shared host with 2 vCPUs the same
child ran up to half again slower for stretches of seconds to minutes,
so each child runs between two runs of `yardstick.py`, a fixed
program of the same kind of work, and set-up spawns (which import fsiegel
and build a cell's generators) follow each yardstick run.  Times are
reported in reference seconds: a child's wall or CPU time over the mean of
the two yardstick times beside it, or a spawn's over the yardstick time
just before it, times YARDSTICK_S; each metric is the median over the
run.  On a quiet host they read close to raw seconds; raw seconds go to a
`#` line.
`--trace 1` runs one traced child and prints the per-layer metrics from
`tracer.py`.  Every child's report, after the program's own
`strip_volatile`, and its exit code are compared with the reference in
`reference/`; a crash, timeout or wrong exit code marks all of that
child's records wrong.  The last stdout line is one JSON object, whose
`failed` out of `attempted` is the share of records wrong.

The references are committed data, frozen from the program as it was
when the benchmark was defined; the benchmark never rewrites them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"

CAPS = ["--jobs", "1", "--cap-group", "100000", "--cap-points", "20000"]
# One child takes about 2.5 s, 3 s and 3.5 s on 2 shared vCPUs when the host
# is quiet; with a 1 s yardstick beside each, a 30 s run holds five to eight.
WORKLOADS = {
    # point-only checks: enumeration, labels, generator partitions, lemma4
    "points-3-2": {"q": [3], "n": 2, "checks": "theorem1,lemma4,strata-map"},
    # full closures of spf and sp0 (12,144 elements each), per-element filters
    "groups-23-1": {"q": [23], "n": 1, "checks": "cayley,stabilizers,involutions"},
    # single-seed orbits with the (7,2) cap abort, brute-force scans, rank tests;
    # a lower point cap makes the abort come sooner, so a run holds more children
    "seed-orbits-7-2": {"q": [7], "n": 2, "checks": "stabilizers,siegel-criterion",
                        "caps": ["--jobs", "1", "--cap-group", "100000", "--cap-points", "5000"]},
}
SETUP_SPAWNS = 20  # at least this many per run, about 0.2 s each
# about yardstick.py's wall time on a quiet 2-vCPU Xeon host; times are reported
# in seconds of a host where the yardstick takes this long ("reference seconds")
YARDSTICK_S = 1.0
RUN_BUDGET_S = 175.0  # children are killed past this; a run must end inside 180 s

SETUP_CODE = """
import sys
import fsiegel
from fsiegel.symplectic import generators, make_space
from fsiegel.cayley import cayley
for cell in sys.argv[1:]:
    q, n = map(int, cell.split(","))
    generators(make_space(q, n), "sp0")
    cayley(q, n)
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("FSIEGEL_CAP_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def verify_argv(workload: str) -> list[str]:
    spec = WORKLOADS[workload]
    return ["verify", "--q", ",".join(map(str, spec["q"])), "--n", str(spec["n"]),
            "--checks", spec["checks"], *spec.get("caps", CAPS)]


def run_child(cmd: list[str], stdout_path: Path | None, timeout: float) -> dict:
    """Run one child; resources come from wait4 on that child alone."""
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    try:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    finally:
        if stdout_path:
            out.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": code,
    }


def count_wrong(reference: dict, report_path: Path, exit_code: int) -> tuple[int, int]:
    """(records attempted, records wrong) for one child against its reference."""
    from fsiegel.cli import strip_volatile

    want = reference["report"]
    attempted = len(want["checks"])
    if exit_code != reference["exit_code"]:
        return attempted, attempted
    try:
        got = strip_volatile(json.loads(report_path.read_text()))
    except (OSError, ValueError, KeyError, TypeError):
        return attempted, attempted
    rest = lambda r: {k: v for k, v in r.items() if k != "checks"}  # noqa: E731
    if rest(got) != rest(want) or len(got.get("checks", [])) != attempted:
        return attempted, attempted
    return attempted, sum(1 for g, w in zip(got["checks"], want["checks"]) if g != w)


class Run:
    """One benchmark run: children, their checks and the deadline."""

    def __init__(self, workload: str, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.start = perf_counter()
        self.argv = verify_argv(workload)
        self.reference = json.loads((REFERENCE / f"{workload}.json").read_text())
        if self.reference["argv"] != self.argv:
            raise SystemExit(f"reference for {workload} was frozen from other argv")
        self.attempted = 0
        self.failed = 0
        self.children = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.start)

    def workload_child(self, traced: bool) -> tuple[dict, Path | None]:
        self.children += 1
        report = self.tmp / f"report-{self.children}.json"
        trace = self.tmp / f"trace-{self.children}.json" if traced else None
        entry = [str(BENCH / "tracer.py"), str(trace)] if traced else ["-m", "fsiegel"]
        res = run_child([sys.executable, *entry, *self.argv], report, max(self.remaining(), 1.0))
        attempted, wrong = count_wrong(self.reference, report, res["exit_code"])
        self.attempted += attempted
        self.failed += wrong
        return res, trace

    def yardstick(self) -> dict:
        res = run_child([sys.executable, str(BENCH / "yardstick.py")], None, max(self.remaining(), 1.0))
        if res["exit_code"] != 0:
            raise SystemExit(f"yardstick failed with exit code {res['exit_code']}")
        return res

    def setup_s(self, spawns: int) -> list[float]:
        spec = WORKLOADS[self.workload]
        cells = [f"{q},{spec['n']}" for q in spec["q"]]
        walls = []
        for _ in range(spawns):
            res = run_child([sys.executable, "-c", SETUP_CODE, *cells], None, max(self.remaining(), 1.0))
            if res["exit_code"] != 0:
                raise SystemExit(f"set-up spawn failed with exit code {res['exit_code']}")
            walls.append(res["wall_s"])
        return walls


def end_to_end(run: Run, seconds: float) -> dict:
    """Children alternate with yardstick runs; times are given in reference seconds.

    A child's time is divided by the mean of the two yardstick times beside
    it, a set-up spawn's by the yardstick time just before it, and both are
    multiplied by YARDSTICK_S.
    """
    yards = [run.yardstick()]
    samples, raw_setup, setup = [], [], []

    def set_up(spawns):
        walls = run.setup_s(spawns)
        raw_setup.extend(walls)
        setup.extend(w / yards[-1]["wall_s"] for w in walls)

    set_up(4)
    start = perf_counter()
    while not samples or (perf_counter() - start < seconds
                          and run.remaining() > 1.5 * (samples[-1]["wall_s"] + yards[-1]["wall_s"]) + 2.0):
        samples.append(run.workload_child(traced=False)[0])
        yards.append(run.yardstick())
        set_up(2)
    set_up(max(SETUP_SPAWNS - len(setup), 0))

    def reference_s(key):
        return YARDSTICK_S * statistics.median(
            s[key] / ((a[key] + b[key]) / 2) for s, a, b in zip(samples, yards, yards[1:]))

    walls = [s["wall_s"] for s in samples]
    print(f"# {run.workload}: {len(samples)} children, {len(yards)} yardsticks, {len(setup)} set-up spawns; "
          f"raw seconds: child median {statistics.median(walls):.3f} (min {min(walls):.3f}, max {max(walls):.3f}), "
          f"yardstick median {statistics.median(y['wall_s'] for y in yards):.3f}, "
          f"set-up median {statistics.median(raw_setup):.3f}", flush=True)
    return {
        "wall_ref_s": (reference_s("wall_s"), "s"),
        "cpu_ref_s": (reference_s("cpu_s"), "s"),
        "peak_rss_mb": (statistics.median([s["peak_rss_mb"] for s in samples]), "MB"),
        "setup_s": (YARDSTICK_S * statistics.median(setup), "s"),
    }


CHECK_IDS = sorted({c for spec in WORKLOADS.values() for c in spec["checks"].split(",")})


def per_layer(run: Run) -> dict:
    traced, trace_path = run.workload_child(traced=True)
    try:
        trace = json.loads(trace_path.read_text())
    except (OSError, ValueError):
        raise SystemExit(f"traced child wrote no trace (exit code {traced['exit_code']}, "
                         f"{traced['wall_s']:.1f} s of a {RUN_BUDGET_S:.0f} s budget)")
    spans = trace["spans"]
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["total_s"]):
        print(f"{name:45s} calls {s['calls']:8d}  total {s['total_s']:9.3f} s  self {s['self_s']:9.3f} s"
              f"  rref {s['direct']['rref_calls']:8d}", file=sys.stderr)

    def span(name, field="total_s"):
        return spans.get(name, {}).get(field, 0 if field == "errors" else 0.0)

    def counter(name, kind, key):
        return spans.get(name, {}).get(kind, {}).get(key, 0)

    def total(*names):
        return sum(span(n) for n in names)

    rref_calls = trace["counters"].get("rref_calls", 0)
    rref_s = trace["counters"].get("rref_s", 0.0)
    enum_rref = counter("lagrangian.enumerate_lagrangians", "inclusive", "rref_calls")
    m = {
        "linalg.rref_calls": (rref_calls, "count"),
        "linalg.rref_s": (rref_s, "s"),
        "linalg.rref_us_per_call": (1e6 * rref_s / rref_calls if rref_calls else 0.0, "us"),
        "linalg.mm_calls": (trace["counters"].get("mm_calls", 0), "count"),
        "symplectic.closure_s": (total("symplectic.enumerate_symplectic", "symplectic.enumerate_group"), "s"),
        "symplectic.group_elements": (trace["group_elements"], "count"),
        "lagrangian.enumerate_s": (span("lagrangian.enumerate_lagrangians"), "s"),
        "lagrangian.enumerate_rref_calls": (enum_rref, "count"),
        "lagrangian.points": (trace["points"], "count"),
        "lagrangian.enumerate_yield": (trace["points"] / enum_rref if enum_rref else 0.0, "ratio"),
        "lagrangian.label_s": (span("lagrangian.strata", "self_s"), "s"),
        "lagrangian.label_rref_calls": (counter("lagrangian.strata", "direct", "rref_calls"), "count"),
        "lagrangian.conj_pair_s": (total("lagrangian.conjugate_pair_dims", "lagrangian.intersection_with_conj",
                                         "lagrangian.h_e_radical"), "s"),
        "orbits.partition_spf_s": (span("orbits.partition[spf]"), "s"),
        "orbits.partition_sp0_s": (span("orbits.partition[sp0]"), "s"),
        "orbits.orbit_s": (span("orbits.orbit"), "s"),
        "orbits.orbit_points": (trace["orbit_points"], "count"),
        "orbits.orbit_aborts": (span("orbits.orbit", "errors"), "count"),
        "orbits.aborted_s": (span("orbits.orbit", "error_s"), "s"),
        "orbits.stabilizer_filter_s": (span("orbits.stabilizer_elements"), "s"),
        "cayley.scan_s": (total("cayley.orthogonal_group_elements", "cayley.unitary_group_elements"), "s"),
        "cayley.stabilizer_s": (span("cayley.stabilizer_structure"), "s"),
        "cayley.map_strata_s": (span("cayley.map_strata"), "s"),
        "cayley.conjugation_s": (span("cayley.verify_conjugation"), "s"),
        "cayley.diagonal_subgroup_s": (span("cayley.unitary_diagonal_subgroup"), "s"),
        "involutions.correspondence_s": (span("involutions.correspondence_report"), "s"),
        "involutions.form_report_s": (span("involutions.involution_form_report"), "s"),
        "involutions.anti_involutions_s": (span("involutions.anti_involutions"), "s"),
        "involutions.classify_s": (span("involutions.classify_involutions"), "s"),
    }
    for cid in CHECK_IDS:
        m[f"checks.{cid}.self_s"] = (span(f"checks.check_{cid.replace('-', '_')}", "self_s"), "s")
    m["cli.self_s"] = (span("cli.main", "self_s"), "s")
    m["trace.overhead_s"] = (trace["overhead_s"], "s")
    print(f"# {run.workload}: traced wall {traced['wall_s']:.3f} s, wrapper overhead {trace['overhead_s']:.3f} s",
          flush=True)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="accepted for the interface; inputs are fixed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "fsiegel" / "__init__.py").is_file():
        print(f"no fsiegel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        run = Run(args.workload, Path(tmp))
        metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
