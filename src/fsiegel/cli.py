"""Command-line front end: census, verify, orbits, group, witness.

JSON is the source of truth; csv and md are projections of the same
payload.  Reports embed the full configuration and the chosen field
parameters, so any failure is reproducible from the report alone.

Exit codes: 0 all pass, 1 any verification failure, 2 usage error,
3 every requested cell was skipped for resources, and 4, from the
process entry (`__main__.run`), an exception that escapes `main`.  Every
subcommand builds its records with `checks.run_cell`, so a broken
cross-check is a `fail` record in each.  A ConsistencyError (an internal
arithmetic bug) is not caught here; the records finished so far first go
to stderr as one `partial records:` JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import (
    CHECK_IDS,
    DEFAULT_CAP_GROUP,
    DEFAULT_CAP_POINTS,
    cell_partition,
    census_payload,
    run_cell,
    run_check,
)
from .errors import ConsistencyError, ParameterError, ResourceLimitError, count_text
from .field import FieldParams, epsilon_f, tau_f
from .lagrangian import lagrangian_count, witnesses
from .symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    enumerate_symplectic,
    generator_count,
    group_order,
    make_space,
)
from .cayley import cayley

SCHEMA_VERSION = "fsiegel-report/1"


class UsageError(Exception):
    pass


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        vals = [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"bad {what} list: {text!r}")
    if not vals:
        raise UsageError(f"empty {what} list")
    return _distinct(vals, what)


def _distinct(vals: list, what: str) -> list:
    """The values of a grid flag, each once: a repeat is a usage error naming it."""
    for i, v in enumerate(vals):
        if v in vals[:i]:
            raise UsageError(f"repeated {what} value: {v}")
    return vals


def _validate_qs(qs: list[int]) -> list[int]:
    for q in qs:
        try:
            FieldParams(q)
        except ParameterError as exc:
            raise UsageError(str(exc))
    return qs


def _positive(value: int, what: str) -> int:
    if value < 1:
        raise UsageError(f"{what} must be >= 1, got {value}")
    return value


def _parse_ns(text: str) -> list[int]:
    return [_positive(n, "--n") for n in _parse_int_list(text, "--n")]


def _field_echo(qs: list[int]) -> dict:
    out = {}
    for q in sorted(qs):
        out[str(q)] = {"eps": FieldParams(q).eps, "epsilon_f": epsilon_f(q), "tau_f": tau_f(q)}
    return out


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

# the csv and md projections: one row per record
_COLUMNS = ("check", "q", "n", "status", "wall_ms")


def _emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt in ("csv", "md"):
        rows = [_COLUMNS] + [tuple(str(r[c]) for c in _COLUMNS) for r in payload["checks"]]
        if fmt == "csv":
            lines = [",".join(row) for row in rows]
        else:
            lines = ["| " + " | ".join(row) + " |" for row in rows]
            lines.insert(1, "|---" * len(_COLUMNS) + "|")
        text = "\n".join(lines) + "\n"
    else:
        raise UsageError(f"unknown format {fmt!r}")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def strip_volatile(payload):
    """Report payload with wall-time fields removed, for byte comparisons."""
    if isinstance(payload, dict):
        return {k: strip_volatile(v) for k, v in payload.items() if k != "wall_ms"}
    if isinstance(payload, list):
        return [strip_volatile(v) for v in payload]
    return payload


def _exit_code(records: list[dict]) -> int:
    statuses = [r["status"] for r in records]
    if any(s == "fail" for s in statuses):
        return 1
    if statuses and all(s == "skipped-resource" for s in statuses):
        return 3
    return 0


def _report(args, caps, cell, **config) -> tuple[dict, int]:
    """The report and exit code of the records `cell(q, n)` yields, over the --q x --n grid.

    `config` holds the subcommand's own options, echoed in the report.  A
    ConsistencyError is not caught; the records finished before it go to
    stderr as one `partial records:` JSON line.
    """
    qs = _validate_qs(_parse_int_list(args.q, "--q"))
    ns = _parse_ns(args.n)
    records = []
    try:
        for q in qs:
            for n in ns:
                for record in cell(q, n):
                    records.append(record)
    except ConsistencyError:
        print("partial records: " + json.dumps(records, sort_keys=True), file=sys.stderr)
        raise
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": {"q": qs, "n": ns, **config, "caps": caps, "format": args.format},
        "field_params": _field_echo(qs),
        "checks": records,
    }
    return payload, _exit_code(records)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _single(check: str, body):
    """A grid cell of one record, named `check`, whose (status, data) `body(q, n)` returns."""
    return lambda q, n: [run_cell(check, q, n, lambda: body(q, n))]


def _cmd_census(args, caps) -> tuple[dict, int]:
    def body(q, n):
        expected = lagrangian_count(q, n)
        if expected > caps["points"]:
            raise ResourceLimitError(f"{count_text(expected)} points exceed cap {caps['points']}")
        data = census_payload(q, n, caps["points"])
        return ("pass" if data["total_matches_formula"] else "fail"), data

    return _report(args, caps, _single("census", body))


def _cmd_verify(args, caps) -> tuple[dict, int]:
    if args.checks == "all":
        selected = list(CHECK_IDS)
    else:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not selected:
            raise UsageError("empty --checks list")
        unknown = [c for c in selected if c not in CHECK_IDS]
        if unknown:
            raise UsageError(f"unknown check ids: {', '.join(unknown)}")
        _distinct(selected, "--checks")
    _positive(args.jobs, "--jobs")

    cayley_params = {}

    def cell(q, n):
        for c in selected:
            yield run_check(c, q, n, caps["group"], caps["points"])
        cayley_params[f"{q},{n}"] = cayley(q, n).report()  # while the cell is in the slot

    payload, code = _report(args, caps, cell, checks=selected, jobs=args.jobs)
    records = payload["checks"]
    records.sort(key=lambda r: (r["q"], r["n"], r["check"]))
    payload["cayley_params"] = cayley_params
    payload["counts"] = {
        s: sum(1 for r in records if r["status"] == s) for s in ("pass", "fail", "skipped-resource")
    }
    return payload, code


def _cmd_orbits(args, caps) -> tuple[dict, int]:
    if args.group not in (TAG_SP_F, TAG_SP_0):
        raise UsageError(f"--group must be {TAG_SP_F} or {TAG_SP_0}")

    def body(q, n):
        part = cell_partition(q, n, args.group, caps["points"])
        table, reps = part.table, part.reps
        orbits = [
            {"size": size, "representative": table[rep].encode(), "h_rank": h_rank, "o_type": o_type}
            for rep, size, h_rank, o_type in zip(
                reps.tolist(), part.sizes().tolist(), table.h_rank[reps].tolist(), table.o_type[reps].tolist()
            )
        ]
        status = "pass" if not part.conflicts.size else "fail"
        return status, {"orbits": orbits, "conflicts": len(part.conflicts)}

    return _report(args, caps, _single(f"orbits-{args.group}", body), group=args.group)


def _cmd_group(args, caps) -> tuple[dict, int]:
    if args.group not in (TAG_SP_E, TAG_SP_F, TAG_SP_0):
        raise UsageError("--group must be sp, spf, or sp0")

    def body(q, n):
        sp = make_space(q, n)
        order = count_text(group_order(args.group, q, n))  # ~10^e past the interpreter's digit limit
        data = {"order": int(order) if order.isdigit() else order}
        data["generator_count"] = generator_count(args.group, n)
        if not args.enumerate:
            return "pass", data
        try:
            data["closure_size"] = len(enumerate_symplectic(sp, args.group, caps["group"]))
        except ResourceLimitError as exc:
            data["reason"] = str(exc)  # the skip keeps the order and generator count
            return "skipped-resource", data
        return ("pass" if data["closure_size"] == data["order"] else "fail"), data

    return _report(
        args, caps, _single(f"group-{args.group}", body), group=args.group, enumerate=bool(args.enumerate)
    )


def _cmd_witness(args, caps) -> tuple[dict, int]:
    def body(q, n):
        recs = witnesses(q, n)
        entries = [
            {
                "name": r.name,
                "status": r.status,
                "matrix": r.lagrangian.encode() if r.lagrangian is not None else None,
                "expected_o_type": r.expected_o_type,
                "in_image": r.in_image,
                "params": r.params,
                "detail": r.detail,
            }
            for r in recs
        ]
        status = "fail" if any(r.status == "failed" for r in recs) else "pass"
        return status, {"witnesses": entries}

    return _report(args, caps, _single("witness", body))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsiegel",
        description="Exact census and verification of Lagrangian orbit geometry "
        "over quadratic extensions of small prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", default="3,5,7", help="comma list of odd primes")
        p.add_argument("--n", default="1,2", help="comma list of ranks")
        p.add_argument("--format", default="json", choices=("json", "csv", "md"))
        p.add_argument("--cap-group", type=int, default=None, help="group enumeration cap")
        p.add_argument("--cap-points", type=int, default=None, help="point set cap")
        p.add_argument("--out", default=None, help="write the report to a file")

    p_census = sub.add_parser("census", help="stratum counts and image splits")
    common(p_census)

    p_verify = sub.add_parser("verify", help="run the verification checks")
    common(p_verify)
    p_verify.add_argument(
        "--checks", default="all", help="comma list of check ids, or 'all': " + ",".join(CHECK_IDS)
    )
    p_verify.add_argument(
        "--jobs", type=int, default=1, help="accepted (>= 1) and echoed in the report; cells run serially"
    )

    p_orbits = sub.add_parser("orbits", help="orbit partition of the Lagrangian set")
    common(p_orbits)
    p_orbits.add_argument("--group", default=TAG_SP_F, help="spf or sp0")

    p_group = sub.add_parser("group", help="group orders and optional enumeration")
    common(p_group)
    p_group.add_argument("--group", default=TAG_SP_F, help="sp, spf, or sp0")
    p_group.add_argument("--enumerate", action="store_true", help="BFS-enumerate the group")

    p_wit = sub.add_parser("witness", help="construct and re-verify explicit representatives")
    common(p_wit)
    return parser


def _cap(flag_value: int | None, flag: str, env: str, default: int) -> int:
    if flag_value is not None:
        return _positive(flag_value, flag)
    text = os.environ.get(env)
    if text is None:
        return default
    try:
        return _positive(int(text), env)
    except ValueError:
        raise UsageError(f"{env} must be an integer, got {text!r}")


def _caps_from(args) -> dict:
    return {
        "group": _cap(args.cap_group, "--cap-group", "FSIEGEL_CAP_GROUP", DEFAULT_CAP_GROUP),
        "points": _cap(args.cap_points, "--cap-points", "FSIEGEL_CAP_POINTS", DEFAULT_CAP_POINTS),
    }


_HANDLERS = {
    "census": _cmd_census,
    "verify": _cmd_verify,
    "orbits": _cmd_orbits,
    "group": _cmd_group,
    "witness": _cmd_witness,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise UsageError(f"--out directory does not exist: {args.out!r}")
        payload, code = _HANDLERS[args.command](args, _caps_from(args))
        _emit(payload, args.format, args.out)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

