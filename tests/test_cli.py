import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fsiegel import checks, cli
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


def test_verify_at_a_huge_n_builds_no_generators(capsys, monkeypatch, fresh_cell):
    """The `cayley_params` echo builds M from its own identities, so lemma4's skip comes at once."""

    def refuse(sp, tag):
        raise AssertionError(f"generators({sp}, {tag!r}) was built")

    for name, mod in list(sys.modules.items()):
        if name.startswith("fsiegel") and hasattr(mod, "generators"):
            monkeypatch.setattr(mod, "generators", refuse)
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
    def refuse(sp, tag):
        raise AssertionError(f"generators({sp}, {tag!r}) was built")

    for name, mod in list(sys.modules.items()):
        if name.startswith("fsiegel") and hasattr(mod, "generators"):
            monkeypatch.setattr(mod, "generators", refuse)
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


def test_verify_of_a_group_cell_leaves_numpy_ma_unimported(tmp_path):
    # np.unique without counts or indices imports numpy.ma, 13 ms in a cold process; the
    # cells are the group closures at (23,1), the seeded samples at (7,2), the
    # conjugation-table walks of the involutions' square branch at (5,1) and the
    # partition walks of a point cell at (3,2): every closure calls np.unique
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
