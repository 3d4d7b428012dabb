import ast
import gc
import importlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from fsiegel import checks, cli, symplectic
from fsiegel.cayley import cayley
from fsiegel.cli import main, strip_volatile
from fsiegel.errors import ConsistencyError, VerificationFailure
from fsiegel.symplectic import generator_count, generators, make_space


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


def test_census_3_1(capsys):
    code, payload = run_json(capsys, "census", "--q", "3", "--n", "1")
    assert code == 0
    cell = payload["checks"][0]
    assert cell["status"] == "pass"
    data = cell["data"]
    assert data["total"] == 10
    by_r = {row["r"]: row for row in data["strata"]}
    assert (by_r[0]["h_count"], by_r[1]["h_count"]) == (4, 6)
    assert (by_r[0]["o_count"], by_r[1]["o_count"]) == (4, 6)
    assert payload["schema_version"] == "fsiegel-report/1"
    assert payload["field_params"]["3"]["eps"] == 2


def test_census_3_2_total(capsys):
    code, payload = run_json(capsys, "census", "--q", "3", "--n", "2")
    assert code == 0
    assert payload["checks"][0]["data"]["total"] == 820


def test_census_rejects_non_prime(capsys):
    code = main(["census", "--q", "4", "--n", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "usage error" in err


def test_unknown_check_id(capsys):
    code = main(["verify", "--checks", "nonsense", "--q", "3", "--n", "1"])
    assert code == 2


@pytest.mark.parametrize("flag,value,repeated", [
    ("--q", "3,5,3", "3"), ("--n", "1,1", "1"), ("--checks", "theorem1,lemma4,theorem1", "theorem1"),
])
def test_a_repeated_grid_value_is_a_usage_error(flag, value, repeated, capsys, monkeypatch):
    """A repeated value is refused before any cell runs, its message naming the value."""
    def fail(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "run_check", fail)
    argv = {"--q": "3", "--n": "1", "--checks": "theorem1", flag: value}
    code = main(["verify", *(word for item in argv.items() for word in item)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"usage error: repeated {flag} value: {repeated}\n")


def test_verify_single_check(capsys):
    code, payload = run_json(capsys, "verify", "--checks", "lemma4", "--q", "3,5", "--n", "1")
    assert code == 0
    assert [r["status"] for r in payload["checks"]] == ["pass", "pass"]
    assert payload["counts"]["fail"] == 0


def test_verify_detects_failures_at_rank_two(capsys):
    code, payload = run_json(capsys, "verify", "--checks", "stabilizers", "--q", "3", "--n", "2")
    assert code == 1
    assert payload["checks"][0]["status"] == "fail"


def test_verify_skips_over_cap(capsys):
    code, payload = run_json(
        capsys, "verify", "--checks", "theorem1", "--q", "7", "--n", "2", "--cap-points", "1000"
    )
    assert code == 3  # the only cell was resource-skipped
    assert payload["checks"][0]["status"] == "skipped-resource"


def test_group_writes_an_order_too_long_to_print(capsys):
    # |Sp(134, 3)| has 4,316 digits; the generator count is n(n+1), read from its closed form
    code, payload = run_json(capsys, "group", "--q", "3", "--n", "67")
    assert code == 0
    assert payload["checks"][0]["data"] == {"order": "~10^4315", "generator_count": 4556}


def _refuse_generators(monkeypatch):
    """Make every fsiegel module's `generators` and `_generator_stacks` raise when called."""

    def refuse(*args):
        raise AssertionError(f"generators or their stack were built for {args}")

    for name, mod in list(sys.modules.items()):
        for attr in ("generators", "_generator_stacks"):
            if name.startswith("fsiegel") and hasattr(mod, attr):
                monkeypatch.setattr(mod, attr, refuse)


def test_verify_at_a_huge_n_builds_no_generators(capsys, monkeypatch, fresh_cell):
    """The `cayley_params` echo builds M from its own identities, so lemma4's skip comes at once."""
    _refuse_generators(monkeypatch)
    code, payload = run_json(capsys, "verify", "--q", "3", "--n", "100", "--checks", "lemma4")
    assert code == 3 and [r["status"] for r in payload["checks"]] == ["skipped-resource"]
    assert payload["cayley_params"]["3,100"]["branch"] == "minus-one-nonsquare"
    assert cayley(3, 1).normalized


def test_census_skips_a_count_too_long_to_print(capsys):
    # the closed-form count at (3, 100) has 4,819 digits, past the interpreter's limit of 4,300
    code, out = run_cli(capsys, "census", "--q", "3", "--n", "100")
    payload = json.loads(out)
    assert code == 3
    assert [r["status"] for r in payload["checks"]] == ["skipped-resource"]
    assert payload["checks"][0]["data"] == {"reason": "~10^4818 points exceed cap 20000"}


@pytest.mark.parametrize(
    "check,reason",
    [
        ("theorem1", "~10^4818 Lagrangians exceed cap 20000"),
        ("lemma4", "~10^4818 Lagrangians exceed cap 20000"),
        ("strata-map", "~10^4818 Lagrangians exceed cap 20000"),
        ("involutions", "group order ~10^9590 exceeds cap 100000"),
        ("stabilizers", "orbit exceeds cap 20000"),
    ],
)
def test_checks_skip_a_count_too_long_to_print(check, reason):
    rec = checks.run_check(check, 3, 100, 10**5, 2 * 10**4)
    assert (rec["status"], rec["data"]) == ("skipped-resource", {"reason": reason})


def test_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("FSIEGEL_CAP_POINTS", "5")
    code, payload = run_json(capsys, "census", "--q", "3", "--n", "1")
    assert code == 3
    assert payload["config"]["caps"]["points"] == 5


def test_orbits_output(capsys):
    code, payload = run_json(capsys, "orbits", "--q", "3", "--n", "1", "--group", "sp0")
    assert code == 0
    orbs = payload["checks"][0]["data"]["orbits"]
    assert sorted(o["size"] for o in orbs) == [4, 6]
    assert all("representative" in o for o in orbs)


@pytest.mark.parametrize("tag", ["spf", "sp0", "sp"])
def test_generator_count_equals_the_built_generators(tag):
    for q, n in [(3, 1), (3, 2), (5, 2)]:
        assert generator_count(tag, n) == len(generators(make_space(q, n), tag))


def test_group_without_enumerate_builds_no_generators(capsys, monkeypatch):
    _refuse_generators(monkeypatch)
    code, payload = run_json(capsys, "group", "--q", "3,5", "--n", "1,2", "--group", "sp")
    assert code == 0
    assert [r["data"]["generator_count"] for r in payload["checks"]] == [4, 12, 4, 12]


def test_group_enumerate(capsys):
    code, payload = run_json(
        capsys, "group", "--q", "3", "--n", "1", "--group", "spf", "--enumerate"
    )
    assert code == 0
    data = payload["checks"][0]["data"]
    assert data["order"] == 24 and data["closure_size"] == 24
    assert data["generator_count"] == 2


def test_group_enumeration_cap_skip(capsys):
    code, payload = run_json(
        capsys,
        "group", "--q", "5", "--n", "2", "--group", "spf", "--enumerate", "--cap-group", "1000000",
    )
    assert code == 3
    assert payload["checks"][0]["status"] == "skipped-resource"


def test_witness_3_2(capsys):
    code, payload = run_json(capsys, "witness", "--q", "3", "--n", "2")
    assert code == 0
    names = {w["name"]: w for w in payload["checks"][0]["data"]["witnesses"]}
    assert names["even_null_nonimage"]["status"] == "verified"
    assert names["coordinate_span_k1"]["in_image"] is False
    assert names["coordinate_span_k1_transported"]["in_image"] is True


def test_witness_3_3_odd(capsys):
    code, payload = run_json(capsys, "witness", "--q", "3", "--n", "3")
    assert code == 0
    names = {w["name"]: w for w in payload["checks"][0]["data"]["witnesses"]}
    assert names["odd_null_nonimage"]["status"] == "verified"
    assert names["odd_null_nonimage"]["params"] == {"c": "1", "d": "1"}


def test_witness_5_2_reports_unavailable_on_odd_only_cells(capsys):
    code, payload = run_json(capsys, "witness", "--q", "5", "--n", "3")
    assert code == 0
    names = {w["name"]: w for w in payload["checks"][0]["data"]["witnesses"]}
    assert names["odd_null_nonimage"]["status"] == "unavailable"


def test_csv_and_md_formats(capsys):
    code, out = run_cli(capsys, "census", "--q", "3", "--n", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "check,q,n,status,wall_ms"
    code, out = run_cli(capsys, "census", "--q", "3", "--n", "1", "--format", "md")
    assert code == 0
    assert out.splitlines()[0].startswith("| check |")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["census", "--q", "3", "--n", "1", "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["command"] == "census"


def test_out_to_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "census_payload", fail)
    code = main(["census", "--q", "3", "--n", "1", "--out", str(tmp_path / "no" / "x.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("usage error:")


def test_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    # the directory exists, but the path is a directory, so the write fails
    code = main(["census", "--q", "3", "--n", "1", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.startswith("usage error:")


def test_reports_deterministic_small_grid(capsys):
    argv = ["verify", "--checks", "siegel-criterion,lemma4", "--q", "3,5", "--n", "1"]
    code1, payload1 = run_json(capsys, *argv)
    code2, payload2 = run_json(capsys, *argv)
    assert code1 == code2 == 0
    a = json.dumps(strip_volatile(payload1), sort_keys=True)
    b = json.dumps(strip_volatile(payload2), sort_keys=True)
    assert a == b


def test_jobs_parallel_matches_serial(capsys):
    argv = ["verify", "--checks", "lemma4,strata-map", "--q", "3,5", "--n", "1"]
    _, serial = run_json(capsys, *argv)
    _, parallel = run_json(capsys, *argv, "--jobs", "4")
    a = json.dumps(strip_volatile(serial), sort_keys=True)
    b = json.dumps(
        strip_volatile({**parallel, "config": {**parallel["config"], "jobs": 1}}), sort_keys=True
    )
    assert a == b


def _usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("usage error:")
    assert captured.out == ""
    return captured.err


def test_n_below_one_is_a_usage_error(capsys):
    err = _usage_error(capsys, ["verify", "--checks", "lemma4", "--q", "3", "--n", "0"])
    assert "--n" in err


@pytest.mark.parametrize("text", [",", ""])
def test_empty_checks_list_is_a_usage_error(capsys, text):
    err = _usage_error(capsys, ["verify", "--checks", text, "--q", "3", "--n", "1"])
    assert "empty --checks list" in err


def test_non_integer_cap_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FSIEGEL_CAP_GROUP", "abc")
    err = _usage_error(capsys, ["verify", "--checks", "lemma4", "--q", "3", "--n", "1"])
    assert "FSIEGEL_CAP_GROUP" in err


def test_cap_below_one_is_a_usage_error(capsys, monkeypatch):
    _usage_error(capsys, ["verify", "--checks", "lemma4", "--q", "3", "--n", "1", "--cap-points", "0"])
    _usage_error(capsys, ["census", "--q", "3", "--n", "1", "--cap-group", "-5"])
    monkeypatch.setenv("FSIEGEL_CAP_POINTS", "0")
    _usage_error(capsys, ["census", "--q", "3", "--n", "1"])


def test_jobs_below_one_is_a_usage_error(capsys):
    err = _usage_error(capsys, ["verify", "--checks", "lemma4", "--q", "3", "--n", "1", "--jobs", "0"])
    assert "--jobs" in err


def test_verification_failure_becomes_a_fail_record(capsys, monkeypatch):
    def broken(q, n, cap_group, cap_points):
        raise VerificationFailure(f"cross-check broke at ({q},{n})")

    monkeypatch.setitem(checks._CHECKS, "lemma4", broken)
    code, payload = run_json(capsys, "verify", "--checks", "lemma4,strata-map", "--q", "3,5", "--n", "1")
    assert code == 1
    by_cell = {(r["check"], r["q"]): r for r in payload["checks"]}
    assert len(by_cell) == 4
    for q in (3, 5):
        assert by_cell[("lemma4", q)]["status"] == "fail"
        assert by_cell[("lemma4", q)]["data"] == {"error": f"cross-check broke at ({q},1)"}
        assert by_cell[("strata-map", q)]["status"] == "pass"
    assert payload["counts"] == {"pass": 2, "fail": 2, "skipped-resource": 0}


def test_verification_failure_in_orbits_becomes_a_fail_record(capsys, monkeypatch):
    def broken(points, gens, invariant=None, action=None):
        raise VerificationFailure("orbit escaped the supplied point set")

    monkeypatch.setattr(checks, "partition", broken)
    code, payload = run_json(capsys, "orbits", "--q", "3", "--n", "1,2")
    assert code == 1
    assert [(r["n"], r["status"], r["data"]) for r in payload["checks"]] == [
        (n, "fail", {"error": "orbit escaped the supplied point set"}) for n in (1, 2)
    ]


def test_consistency_error_stays_fatal(capsys, monkeypatch):
    def broken(q, n, cap_group, cap_points):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setitem(checks._CHECKS, "lemma4", broken)
    with pytest.raises(ConsistencyError):
        main(["verify", "--checks", "lemma4", "--q", "3", "--n", "1"])


@pytest.mark.parametrize("wrong", [lambda order: order - 2, lambda order: order // 2], ids=["order-2", "half"])
def test_a_closure_past_its_order_formula_is_fatal_not_a_skip(capsys, monkeypatch, fresh_cell, wrong):
    # Sp(2, 3) has 24 elements; under a wrong order formula its closure overshoots the cap of
    # formula + 1, which is an inconsistency in every command, not a resource skip
    true_order = symplectic.group_order
    monkeypatch.setattr(symplectic, "group_order", lambda tag, q, n: wrong(true_order(tag, q, n)))
    message = f"has more than {wrong(24) + 1} elements, order formula gives {wrong(24)}"
    with pytest.raises(ConsistencyError, match=message):
        checks.run_check("cayley", 3, 1, checks.DEFAULT_CAP_GROUP, checks.DEFAULT_CAP_POINTS)
    symplectic._slot.clear()
    with pytest.raises(ConsistencyError, match=message):
        main(["group", "--q", "3", "--n", "1", "--group", "spf", "--enumerate"])


def test_consistency_error_writes_finished_records_to_stderr(capsys, monkeypatch):
    def broken(q, n, cap_group, cap_points):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setitem(checks._CHECKS, "strata-map", broken)
    with pytest.raises(ConsistencyError):
        main(["verify", "--checks", "lemma4,strata-map", "--q", "3", "--n", "1"])
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if line.startswith("partial records: ")]
    assert len(lines) == 1
    records = json.loads(lines[0][len("partial records: "):])
    assert [(r["check"], r["q"], r["n"], r["status"]) for r in records] == [("lemma4", 3, 1, "pass")]
    assert records[0]["data"] == {"points": 10}


SRC = Path(__file__).resolve().parents[1] / "src"


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_an_internal_error_exits_4_with_its_traceback_and_the_partial_records():
    """A ConsistencyError is a broken program, not a failed check (1): the process entry prints
    its traceback and exits 4, after the records finished so far.  KeyboardInterrupt keeps
    Python's own exit, by SIGINT."""
    child = (
        "import sys\n"
        "from fsiegel import checks, errors\n"
        "from fsiegel.__main__ import run\n"
        "def broken(q, n, cap_group, cap_points):\n"
        "    raise {}\n"
        "checks._CHECKS['strata-map'] = broken\n"
        "sys.exit(run())\n"
    )
    argv = ["verify", "--checks", "lemma4,strata-map", "--q", "3", "--n", "1"]
    internal, interrupt = (
        subprocess.run([sys.executable, "-c", child.format(error), *argv], capture_output=True, text=True,
                       env=_child_env())
        for error in ("errors.ConsistencyError('two routes disagree')", "KeyboardInterrupt")
    )
    assert (internal.returncode, internal.stdout) == (4, ""), internal.stderr
    assert internal.stderr.startswith('partial records: [{"check": "lemma4"')
    assert "Traceback (most recent call last):" in internal.stderr
    assert internal.stderr.rstrip().endswith("fsiegel.errors.ConsistencyError: two routes disagree")
    assert (interrupt.returncode, interrupt.stdout) == (-signal.SIGINT, ""), interrupt.stderr
    assert interrupt.stderr.rstrip().endswith("KeyboardInterrupt")


def test_verify_of_a_group_cell_leaves_numpy_ma_unimported(tmp_path):
    # np.unique without counts or indices imports numpy.ma, 13 ms in a cold process; the
    # cells are the group closures at (23,1), the seeded samples at (7,2), the
    # conjugation-table walks of the involutions' square branch at (5,1) and the
    # partition walks of a point cell at (3,2): every closure calls np.unique
    env = _child_env()
    child = "import sys; from fsiegel.cli import main; code = main(sys.argv[1:]); print('numpy.ma' in sys.modules, code)"
    for cell, checks_, cap_points, code in [("23,1", "cayley,stabilizers,involutions", "20000", "1"),
                                            ("7,2", "stabilizers,siegel-criterion", "5000", "1"),
                                            ("5,1", "involutions", "20000", "0"),
                                            ("3,2", "theorem1", "20000", "1")]:
        q, n = cell.split(",")
        argv = ["verify", "--q", q, "--n", n, "--checks", checks_, "--jobs", "1",
                "--cap-group", "100000", "--cap-points", cap_points, "--out", str(tmp_path / "report.json")]
        proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env)
        assert proc.stdout.split() == ["False", code], proc.stderr


def test_import_fsiegel_loads_only_what_cayley_needs():
    """The package binds only `cayley`, so importing it compiles no other module, and
    `involutions` least of all."""
    child = "import sys, fsiegel; print(' '.join(sorted(m for m in sys.modules if m.startswith('fsiegel.'))))"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=_child_env())
    assert proc.stdout.split() == [
        f"fsiegel.{m}" for m in ("cayley", "errors", "field", "lagrangian", "linalg", "orbits", "symplectic")
    ], proc.stderr


def test_a_cell_out_of_memory_is_a_skip_record_not_a_traceback():
    """The (11,2) census needs about 400 MB of address space, two copies of the table's 114 MB of
    bases (while they are concatenated and sorted) over 140 MB for Python and numpy: a child that
    lowers its own address-space limit to 300 MB gets numpy's failed allocation, which becomes
    that cell's skip, so the run exits 3."""
    env = dict(_child_env(), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))\n"
        "from fsiegel.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["census", "--q", "11", "--n", "2", "--cap-points", "2000000"]
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 3, proc.stderr
    [record] = json.loads(proc.stdout)["checks"]
    assert (record["q"], record["n"], record["status"]) == (11, 2, "skipped-resource")
    assert record["data"] == {"reason": "out of memory"}


def test_python_m_fsiegel_writes_the_whole_report_to_a_pipe(capsys):
    argv = ["census", "--q", "3", "--n", "1"]
    proc = subprocess.run([sys.executable, "-m", "fsiegel", *argv], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    _, in_process = run_json(capsys, *argv)
    assert strip_volatile(json.loads(proc.stdout)) == strip_volatile(in_process)


def test_the_process_entry_freezes_the_gc_before_exit_and_keeps_atexit_and_the_code(tmp_path):
    child = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "sys.argv[0] = 'fsiegel'\n"
        "runpy.run_module('fsiegel', run_name='__main__')\n"
    )
    argv = ["verify", "--q", "3", "--n", "2", "--checks", "theorem1", "--jobs", "1", "--out", str(tmp_path / "report.json")]
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (1, "frozen True\n"), proc.stderr
    assert json.loads((tmp_path / "report.json").read_text())["checks"][0]["status"] == "fail"


def test_main_in_process_leaves_the_gc_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert run_cli(capsys, "census", "--q", "3", "--n", "1")[0] == 0
    assert gc.get_freeze_count() == before


def _gc_uses(tree) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names if alias.name == "gc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.append("from gc import")
        elif isinstance(node, ast.Attribute) and node.attr == "freeze":
            found.append(ast.unparse(node))
    return found


def test_only_the_process_entry_imports_gc_or_freezes_it():
    """A freeze inside `cli.main` would keep an in-process caller's cyclic garbage for good."""
    found = [(path.name, use) for path in sorted((SRC / "fsiegel").glob("*.py")) for use in _gc_uses(ast.parse(path.read_text()))]
    assert found == [("__main__.py", "import gc"), ("__main__.py", "gc.freeze")]


def _block_constants(tree) -> list[str]:
    """Module-level names ending in _CHUNK or _BLOCK that a module assigns."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith(("_CHUNK", "_BLOCK"))]


def test_only_linalg_sets_a_block_size():
    """Every stacked pass takes its blocks from `linalg.blocks`; `_WORD_CHUNK` counts RNG words, not matrices."""
    found = [(path.name, name) for path in sorted((SRC / "fsiegel").glob("*.py")) for name in _block_constants(ast.parse(path.read_text()))]
    assert found == [("linalg.py", "_STACK_CHUNK"), ("sampling.py", "_WORD_CHUNK")]


# Six cheap runs that between them reach every function of `src/fsiegel/` outside the
# allow-list: all five subcommands, the three formats and both cells of each rank.
_CHEAP_ARGVS = [
    ["verify", "--q", "3,5", "--n", "1,2"],
    ["verify", "--q", "3", "--n", "1", "--format", "md"],
    ["census", "--q", "3", "--n", "1", "--format", "csv"],
    ["orbits", "--q", "3", "--n", "1", "--group", "sp0"],
    ["group", "--q", "3", "--n", "1", "--group", "sp", "--enumerate"],
    ["witness", "--q", "3,5", "--n", "1,2"],
]

# The functions no CLI run needs to reach, each with the reason it stays.  Dunders are
# exempt: `Mat`, `Lagrangian`, `GroupElement` and `EScalar` need them as values.
# (The package exports only `cayley`, which is reached: the benchmark's alias check
# asserts that `fsiegel.cayley` is the function it wrapped; its set-up code imports
# `generators` and `make_space` from `fsiegel.symplectic`.)
_UNREACHED_BY_DESIGN = {
    # the determinism contract: reports compare equal once it has dropped the wall times
    "cli.strip_volatile",
    # the process entry; in process a run calls `cli.main`, for `run` freezes the gc
    "__main__.run",
    # the cell-slot decorator, applied at import, before any run starts
    "symplectic.per_cell",
    # `partition`'s fallback when no action table is given: the benchmark's tracer binds
    # `partition`'s `gens` to name its `orbits.partition[spf|sp0]` spans
    "symplectic._generator_stack",
    # the byte key of the point value type, behind `Lagrangian`'s `__eq__`, `__hash__` and
    # `__lt__`: runs compare points as table rows, tests as values
    "lagrangian.Lagrangian.key",
    "linalg.entry_bytes",
}


def _defs(node, prefix=""):
    """(qualified name, first line) of each def under an ast node; a decorated def's code
    starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield from _defs(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def test_every_src_function_is_reached_by_the_cli_or_allow_listed(capsys, fresh_cell):
    """`src/` holds what the CLI runs: a function that only tests call belongs in the oracles."""
    import fsiegel

    pkg = Path(fsiegel.__file__).resolve().parent
    reached = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and Path(code.co_filename).parent == pkg:
            reached.add((Path(code.co_filename).stem, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for argv in _CHEAP_ARGVS:
            main(argv)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = [
        f"{path.stem}.{name}"
        for path in sorted(pkg.glob("*.py"))
        for name, line in _defs(ast.parse(path.read_text()))
        if (path.stem, line) not in reached and not (name.rsplit(".", 1)[-1].startswith("__") and name.endswith("__"))
    ]
    assert sorted(set(unreached) ^ _UNREACHED_BY_DESIGN) == []  # neither a new unreached def nor a stale entry


# Per-layer span names the benchmark still reads although their functions left `src/` for
# the oracles: each metric built on them reads 0 on every workload until the benchmark
# renames them (`lagrangian.label_s`, `label_rref_calls` and `conj_pair_s`, the three
# `orbits.orbit*` metrics and `orbits.aborted_s`, and half of `symplectic.closure_s`).
# The list may only shrink.
_DEAD_SPAN_NAMES = {
    "lagrangian.strata",
    "lagrangian.conjugate_pair_dims",
    "lagrangian.intersection_with_conj",
    "lagrangian.h_e_radical",
    "orbits.orbit",
    "symplectic.enumerate_group",
}


def _benchmark_span_names() -> set:
    """The span names `perfbench/run.py`'s `per_layer` reads, a `[...]` suffix dropped."""
    path = SRC.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("_perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    per_layer = next(node for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.FunctionDef) and node.name == "per_layer")
    names = {f"checks.check_{cid.replace('-', '_')}" for cid in run.CHECK_IDS} | {"cli.main"}
    for node in ast.walk(per_layer):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("span", "total", "counter"):
            args = node.args if node.func.id == "total" else node.args[:1]
            names |= {arg.value.split("[")[0] for arg in args if isinstance(arg, ast.Constant)}
    return names


def test_every_benchmark_span_name_is_a_public_function_of_its_layer():
    """A per-layer metric reads its span by name; a function that moves or is renamed leaves
    the metric at 0 on every run, so each name must still resolve the way the tracer wraps it."""
    names = _benchmark_span_names()
    assert "orbits.partition" in names and "checks.check_theorem1" in names

    def resolves(name):
        layer, attr = name.split(".")
        obj = getattr(importlib.import_module(f"fsiegel.{layer}"), attr, None)
        return (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and obj.__module__ == f"fsiegel.{layer}")

    assert sorted(n for n in names if not resolves(n)) == sorted(_DEAD_SPAN_NAMES)
