"""The named verification checks behind the `verify` subcommand.

Each check runs on one (q, n) cell and returns a plain dict record, built
by `run_cell`, which every subcommand shares:

    {"check": id, "q": q, "n": n, "status": "pass" | "fail" | "skipped-resource",
     "data": payload, "wall_ms": elapsed}

A resource skip is produced whenever the cell would exceed the configured
group or point caps; skips never fail a run.  A structural cross-check
that breaks inside a check (VerificationFailure) becomes a "fail" record
carrying its message, and the rest of the grid still runs;
ConsistencyError, an internal arithmetic bug, stays fatal.  All sampling
is seeded from the (check, q, n) triple, so reports are reproducible byte
for byte once wall times are stripped.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .errors import ResourceLimitError, VerificationFailure
from .field import epsilon_f, make_fields, tau_f
from .involutions import (
    anti_involutions,
    classify_involutions,
    correspondence_report,
    eigenspace_report,
    involution_form_report,
    pairing_identity_holds,
    scaled_involutions,
)
from .lagrangian import (
    _POINT_CHUNK,
    _conj_intersections,
    _conjugate_sum_dims,
    _h_e_radicals,
    enumerate_lagrangians,
    lagrangian_count,
)
from .linalg import Mat, mm, rank_stack
from .orbits import partition
from .symplectic import (
    TAG_SP_0,
    TAG_SP_F,
    check_group_cap,
    enumerate_symplectic,
    generators,
    group_order,
    make_space,
)
from .cayley import (
    cayley,
    map_strata,
    stabilizer_structure,
    unitary_diagonal_subgroup,
    verify_conjugation,
)

CHECK_IDS = (
    "theorem1",
    "cayley",
    "stabilizers",
    "strata-map",
    "involutions",
    "lemma4",
    "siegel-criterion",
)

DEFAULT_CAP_GROUP = 100_000
DEFAULT_CAP_POINTS = 20_000


def _rng(check: str, q: int, n: int) -> random.Random:
    return random.Random(f"fsiegel:{check}:{q}:{n}")


def _census_tables(q: int, n: int, cap_points: int):
    """The cell's table and one census row per rank r, counted from its label arrays."""
    table = enumerate_lagrangians(q, n, cap_points)
    rows = []
    for r in range(n + 1):
        h, o = table.h_rank == r, table.o_type == r
        rows.append(
            {
                "r": r,
                "h_count": int(np.count_nonzero(h)),
                "o_count": int(np.count_nonzero(o)),
                "h_in_image": int(np.count_nonzero(table.in_image[h])),
                "o_in_image": int(np.count_nonzero(table.in_image[o])),
            }
        )
    return table, rows


def census_payload(q: int, n: int, cap_points: int) -> dict:
    """Stratum table plus the closed-form total cross-check."""
    _, rows = _census_tables(q, n, cap_points)
    total = sum(r["h_count"] for r in rows)
    expected = lagrangian_count(q, n)
    return {
        "q": q,
        "n": n,
        "total": total,
        "expected_total": expected,
        "total_matches_formula": total == expected,
        "image_size": sum(r["h_in_image"] for r in rows),
        "expected_image_size": q ** (n * (n + 1)),
        "strata": rows,
    }


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_theorem1(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    sp = make_space(q, n)
    table, rows = _census_tables(q, n, cap_points)
    part_f = partition(table, generators(sp, TAG_SP_F), invariant="h_rank")
    part_0 = partition(table, generators(sp, TAG_SP_0), invariant="o_type")

    def orbits_are_strata(part, labels) -> bool:
        """The orbits' sets of rows are the strata's, and no orbit has a conflict."""
        strata_rows = {frozenset(np.flatnonzero(labels == r).tolist()) for r in range(n + 1)}
        return {frozenset(o.rows.tolist()) for o in part.orbits} == strata_rows and not part.conflicts

    sub = {
        "rational_orbits_equal_h_strata": orbits_are_strata(part_f, table.h_rank),
        "unitary_orbits_equal_o_strata": orbits_are_strata(part_0, table.o_type),
        "every_orbit_meets_image": all(
            table.in_image[orb.rows].any() for part in (part_f, part_0) for orb in part.orbits
        ),
    }
    if n == 1:
        sub["h_top_inside_image"] = rows[1]["h_in_image"] == rows[1]["h_count"]
        sub["h_null_not_inside_image"] = rows[0]["h_in_image"] < rows[0]["h_count"]
    else:
        sub["o_strata_never_inside_image"] = all(r["o_in_image"] < r["o_count"] for r in rows)
        sub["h_top_inside_image"] = rows[n]["h_in_image"] == rows[n]["h_count"]
        sub["h_lower_not_inside_image"] = all(
            rows[j]["h_in_image"] < rows[j]["h_count"] for j in range(n)
        )
    return {
        "strata": rows,
        "rational_orbit_sizes": sorted(part_f.sizes()),
        "unitary_orbit_sizes": sorted(part_0.sizes()),
        "subchecks": sub,
        "ok": all(sub.values()),
    }


def check_cayley(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    sp = make_space(q, n)
    fp = sp.fp
    cd = cayley(q, n)
    conj = verify_conjugation(cd, q, n, cap_group)
    rng = _rng("cayley", q, n)

    # the matrix identity is equivalent to the conformal identity on every
    # pair of vectors, both forms being sesquilinear the same way
    matrix_identity = cd.m.T @ sp.d_form @ cd.m.conj() == cd.conformal * sp.j
    n_elems = fp.q * fp.q
    if n_elems ** (2 * sp.dim) <= 10**4:
        vecs = _all_vectors(sp)
        pairs = [(v, w) for v in vecs for w in vecs]
        mode = "exhaustive"
    else:
        pairs = [(_random_vector(sp, rng), _random_vector(sp, rng)) for _ in range(1000)]
        mode = "sampled"
    conf_ok = True
    for v, w in pairs:
        lhs = ((cd.m @ v).T @ sp.d_form @ (cd.m @ w).conj()).at(0, 0)
        rhs = cd.conformal * (v.T @ sp.j @ w.conj()).at(0, 0)
        if lhs != rhs:
            conf_ok = False
            break

    sub = {
        "forward_ok": conj["forward_ok"],
        "backward_ok": conj["backward_ok"],
        "conformal_matrix_identity": matrix_identity,
        "conformal_identity": conf_ok,
    }
    if conj.get("closure_size") is not None:
        sub["closure_matches_order"] = conj["closure_matches_order"]
        sub["conjugate_set_equal"] = conj["conjugate_set_equal"]
    if cd.branch == "minus-one-nonsquare":
        c = cd.c.mat
        sub["inverse_conjugate_identity"] = c.inv() == fp.e(-tau_f(q)) * c.conj()
        sub["normalized_exists"] = cd.normalized
    data = {
        "cayley": cd.report(),
        "conjugation": {k: v for k, v in conj.items() if k != "failing_generators"},
        "conformal_pairs_checked": len(pairs),
        "conformal_pair_mode": mode,
        "subchecks": sub,
    }
    data["ok"] = all(sub.values())
    return data


def _all_vectors(sp):
    fp = sp.fp
    out = []

    def rec(prefix):
        if len(prefix) == sp.dim:
            out.append(Mat.column(fp, list(prefix)))
            return
        for x in fp.elements():
            rec(prefix + (x,))

    rec(())
    return out


def _random_vector(sp, rng):
    fp = sp.fp
    return Mat.column(fp, [fp.e(rng.randrange(fp.q), rng.randrange(fp.q)) for _ in range(sp.dim)])


def check_stabilizers(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    per_k = [stabilizer_structure(q, n, k, cap_group, cap_points) for k in range(n + 1)]
    sub = {}
    for entry in per_k:
        k = entry["k"]
        if entry["mode"] == "full":
            sub[f"k{k}_order_matches_prediction"] = entry["filtered_matches_predicted"]
            sub[f"k{k}_orbit_stabilizer"] = entry["orbit_stabilizer_consistent"]
            sub[f"k{k}_factors_contained"] = entry["levi_contained"] and entry["unipotent_contained"]
        else:
            sub[f"k{k}_order_matches_prediction"] = entry["quotient_matches_orbit"]
    data = {"per_k": per_k, "subchecks": sub}
    if group_order(TAG_SP_0, q, n) <= cap_group:
        diag = unitary_diagonal_subgroup(q, n, cap_group)
        data["diagonal_subgroup"] = diag
        sub["zero_block_members_are_diagonal_unitaries"] = diag["matches"]
    data["ok"] = all(sub.values())
    return data


def check_strata_map(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    data = map_strata(q, n, cap_points)
    data["ok"] = data["all_mapped"] and data["counts_match"]
    return data


def check_involutions(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    # refuse over either cap before the group closure, group first, both from the
    # closed forms; the point table this builds is the one the correspondence reads
    check_group_cap(TAG_SP_F, q, n, cap_group)
    enumerate_lagrangians(q, n, cap_points)
    fp = make_fields(q)
    ants = anti_involutions(q, n, cap_group)
    form_rep = involution_form_report(q, n, cap_group)
    corr = correspondence_report(q, n, cap_group, cap_points)

    eigen_ok = True
    pairing_ok = True
    rng = _rng("involutions", q, n)
    sp = make_space(q, n)
    for t in ants:
        rep = eigenspace_report(t)
        eigen_ok &= all(v for v in rep.values() if isinstance(v, bool))
    if epsilon_f(q) == -1:
        if q == 3 and n == 1:
            # exhaustive over rational pairs, for every anti-involution
            pairs = [
                (Mat.column(fp, [fp.e(a), fp.e(b)]), Mat.column(fp, [fp.e(c), fp.e(d)]))
                for a in range(3)
                for b in range(3)
                for c in range(3)
                for d in range(3)
            ]
            for t in ants:
                pairing_ok &= pairing_identity_holds(t, pairs)
        else:
            # 1000 sampled (element, v, w) triples per cell
            for _ in range(1000):
                t = ants[rng.randrange(len(ants))]
                v = Mat.column(fp, [fp.e(rng.randrange(q)) for _ in range(sp.dim)])
                w = Mat.column(fp, [fp.e(rng.randrange(q)) for _ in range(sp.dim)])
                pairing_ok &= pairing_identity_holds(t, [(v, w)])

    squares = sorted({(a * a) % q for a in range(1, q)} - {1, q - 1})
    s_a_table = []
    for a in squares:
        s_a_table.append({"a": a, "size": len(scaled_involutions(q, n, a, cap_group))})
    classification = classify_involutions(q, n, cap_group)

    sub = {
        "square_symmetry_equivalence": True,  # asserted group-wide inside anti_involutions
        "form_suite": all(
            form_rep[k] for k in ("symmetric", "determinant_one", "discriminant_square", "equivariant")
        ),
        "eigenspace_suite": eigen_ok,
        "pairing_identity": pairing_ok,
        "correspondence": _correspondence_ok(corr),
        "scaled_sets_empty": all(row["size"] == 0 for row in s_a_table),
        "classification": classification["eigenspaces_nondegenerate"]
        and classification["reconstruction"]
        and classification["each_class_single_orbit"],
    }
    return {
        "count": len(ants),
        "form_report": form_rep,
        "correspondence": corr,
        "scaled_involutions": {"tested_squares": squares, "table": s_a_table,
                               "vacuous": not squares},
        "classification": classification,
        "subchecks": sub,
        "ok": all(sub.values()),
    }


def _correspondence_ok(corr: dict) -> bool:
    if corr["branch"] == "nonsquare":
        return corr["bijective"] and corr["equivariant"]
    return (
        corr["single_orbit"]
        and corr["isotropy_is_diagonal_subgroup"]
        and corr["homogeneous_count_matches"]
        and corr["image_is_null_stratum"]
        and corr["equivariant"]
        and corr["cayley_carries_seed_to_j"]
    )


def check_lemma4(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    """dim(W + conj W) = n + r, dim(W ^ conj W) = n - r and W ^ conj W = rad(h_e on W).

    Checked on every point.  Both subspaces come as canonical stacks over
    the point table, a block of points at a time.  Both lie in W, so their
    columns past n are zero, and equal ranks with equal first n columns
    mean equal canonical bases.  The intersection's dimension is its
    computed rank, not 2n - dim(W + conj W).
    """
    sp = make_space(q, n)
    table = enumerate_lagrangians(q, n, cap_points)
    ok = bool(np.all(_conjugate_sum_dims(sp, table.bases) == n + table.h_rank))
    for lo in range(0, len(table.bases), _POINT_CHUNK):
        block = table.bases[lo : lo + _POINT_CHUNK]
        inter, inter_rank = _conj_intersections(sp, block)
        rad, rad_rank = _h_e_radicals(sp, block)
        ok &= (
            np.array_equal(inter_rank, n - table.h_rank[lo : lo + _POINT_CHUNK])
            and np.array_equal(inter_rank, rad_rank)
            and np.array_equal(inter[:, :, :n], rad)
        )
    return {"points": len(table), "ok": ok}


def check_siegel_criterion(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    """Invertibility of the denominator block on the big cell.

    For any symmetric Z with Z - conj(Z) invertible and any rational
    group element (A, B; C, D), the block C Z + D must be invertible;
    for degenerate Z both an invertible and a singular denominator must
    occur.  Exhaustive for n = 1 and q <= 5, seeded samples otherwise.
    """
    sp = make_space(q, n)
    fp = sp.fp
    rng = _rng("siegel-criterion", q, n)
    gens = generators(sp, TAG_SP_F)

    def denominator(g: Mat, z: Mat) -> Mat:
        _, _, c, d = sp.blocks(g)
        return c @ z + d

    exhaustive = n == 1 and q <= 5
    data = {"mode": "exhaustive" if exhaustive else "sampled"}
    invertible_ok = True
    if exhaustive:
        # C z + D for every group element (A, B; C, D), as one stack per z
        arr = enumerate_symplectic(sp, TAG_SP_F, cap_group).arr

        def denominator_ranks(z: Mat) -> np.ndarray:
            return rank_stack(fp, mm(fp, arr[:, n:, :n], z.a) + arr[:, n:, n:])

        zs = [Mat.diag(fp, [x]) for x in fp.elements()]
        nondeg = [z for z in zs if (z - z.conj()).rank() == n]
        degen = [z for z in zs if (z - z.conj()).rank() < n]
        invertible_ok = all(bool(np.all(denominator_ranks(z) == n)) for z in nondeg)
        data["cases"] = len(nondeg) * len(arr)
        converse = []
        for z in degen:
            ranks = denominator_ranks(z)
            converse.append({"z": z.encode(), "invertible_found": bool(np.any(ranks == n)),
                             "singular_found": bool(np.any(ranks < n))})
        data["degenerate_witnesses"] = converse
        converse_ok = all(c["invertible_found"] and c["singular_found"] for c in converse)
    else:
        samples = 0
        while samples < 1000:
            z = _random_symmetric(sp, rng)
            if (z - z.conj()).rank() != n:
                continue
            g = _random_word(sp, gens, rng)
            samples += 1
            if denominator(g, z).rank() != n:
                invertible_ok = False
        data["cases"] = samples
        converse = []
        found_deg = 0
        while found_deg < 10:
            z = _random_symmetric(sp, rng)
            if (z - z.conj()).rank() == n:
                continue
            found_deg += 1
            has_inv = has_sing = False
            for _ in range(4000):
                g = _random_word(sp, gens, rng)
                rk = denominator(g, z).rank()
                has_inv |= rk == n
                has_sing |= rk < n
                if has_inv and has_sing:
                    break
            converse.append({"z": z.encode(), "invertible_found": has_inv, "singular_found": has_sing})
        data["degenerate_witnesses"] = converse
        converse_ok = all(c["invertible_found"] and c["singular_found"] for c in converse)
    data["subchecks"] = {
        "denominator_always_invertible": invertible_ok,
        "degenerate_converse_witnesses": converse_ok,
    }
    data["ok"] = invertible_ok and converse_ok
    return data


def _random_symmetric(sp, rng) -> Mat:
    fp, n = sp.fp, sp.n
    grid = [[fp.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = fp.e(rng.randrange(fp.q), rng.randrange(fp.q))
            grid[i][j] = x
            grid[j][i] = x
    return Mat.build(fp, grid)


def _random_word(sp, gens, rng, length: int = 12) -> Mat:
    g = sp.identity
    for _ in range(length):
        g = g @ gens[rng.randrange(len(gens))].mat
    return g


_CHECKS = {
    "theorem1": check_theorem1,
    "cayley": check_cayley,
    "stabilizers": check_stabilizers,
    "strata-map": check_strata_map,
    "involutions": check_involutions,
    "lemma4": check_lemma4,
    "siegel-criterion": check_siegel_criterion,
}


def run_cell(check: str, q: int, n: int, body) -> dict:
    """The record of one cell: `body()` returns (status, data), timed into wall_ms.

    ResourceLimitError becomes a skipped-resource record with its reason,
    VerificationFailure a fail record with its error; ConsistencyError
    passes through.
    """
    start = time.perf_counter()
    try:
        status, data = body()
    except ResourceLimitError as exc:
        status, data = "skipped-resource", {"reason": str(exc)}
    except VerificationFailure as exc:
        status, data = "fail", {"error": str(exc)}
    wall_ms = int((time.perf_counter() - start) * 1000)
    return {"check": check, "q": q, "n": n, "status": status, "data": data, "wall_ms": wall_ms}


def run_check(check_id: str, q: int, n: int, cap_group: int, cap_points: int) -> dict:
    check = _CHECKS[check_id]

    def body():
        data = check(q, n, cap_group, cap_points)
        return ("pass" if data.pop("ok") else "fail"), data

    return run_cell(check_id, q, n, body)
