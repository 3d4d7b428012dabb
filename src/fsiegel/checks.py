"""The named verification checks behind the `verify` subcommand.

Each check runs on one (q, n) cell and returns a plain dict record, built
by `run_cell`, which every subcommand shares:

    {"check": id, "q": q, "n": n, "status": "pass" | "fail" | "skipped-resource",
     "data": payload, "wall_ms": elapsed}

A resource skip is produced whenever the cell would exceed the configured
group or point caps or runs out of memory; skips never fail a run.  `cayley`
and the sampled `siegel-criterion` have no cap (the exhaustive one, n = 1
and q <= 5, enumerates the group under the group cap): each builds the
cell's generator stacks, n(n+1) matrices of (2n)^2 entries per family
(6.5 GB per family at n = 100), so neither should be run at a large n.  A
structural cross-check that breaks inside a check (VerificationFailure)
becomes a "fail" record carrying its message, and the rest of the grid
still runs; ConsistencyError, an internal arithmetic bug, stays fatal.
All sampling is seeded from the (check, q, n) triple, so reports are
reproducible byte for byte once wall times are stripped.
"""

from __future__ import annotations

import random
import time
from itertools import product

import numpy as np

from .errors import ResourceLimitError, VerificationFailure
from .field import epsilon_f, tau_f
from .involutions import (
    _anti_involution_suite,
    _pairing_identity,
    anti_involutions,
    classify_involutions,
    correspondence_report,
    involution_form_report,
    scaled_involutions,
)
from .lagrangian import (
    _conj_intersections,
    _conjugate_sum_dims,
    _h_e_radicals,
    enumerate_lagrangians,
    lagrangian_count,
)
from .linalg import (
    PAIR_DTYPE, Mat, blocks, conj_arr, mm, product_dtype, rank_stack, scalar_mm, stack_keys, symmetric_stack,
)
from .orbits import PartitionReport, partition
from .sampling import _draws, _nondegenerate_pairs, _random_symmetric
from .symplectic import (
    TAG_SP_0,
    TAG_SP_F,
    _generator_stacks,
    check_group_cap,
    enumerate_symplectic,
    generators,
    group_order,
    make_space,
)
from .cayley import (
    _cell_actions,
    cayley,
    map_strata,
    stabilizer_structure,
    unitary_diagonal_subgroup,
    verify_conjugation,
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

def cell_partition(q: int, n: int, tag: str, cap_points: int) -> PartitionReport:
    """The orbits of the spf or sp0 generators on the cell's point table, read from the
    cell's derived action table; the invariant is h_rank for spf and o_type for sp0."""
    table = enumerate_lagrangians(q, n, cap_points)
    invariant = {TAG_SP_F: "h_rank", TAG_SP_0: "o_type"}[tag]
    return partition(table, generators(make_space(q, n), tag), invariant, action=_cell_actions(q, n)[tag])


def check_theorem1(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    table, rows = _census_tables(q, n, cap_points)
    part_f, part_0 = (cell_partition(q, n, tag, cap_points) for tag in (TAG_SP_F, TAG_SP_0))

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
    vs, ws, mode = _conformal_pairs(sp, rng)
    mv, mw = mm(fp, cd.m.a, vs), mm(fp, cd.m.a, ws)
    lhs = mm(fp, mm(fp, mv.swapaxes(1, 2), sp.d_form.a), conj_arr(mw, fp.q))
    rhs = mm(fp, mm(fp, vs.swapaxes(1, 2), sp.j.a), conj_arr(ws, fp.q))
    conf_ok = np.array_equal(lhs, scalar_mm(fp, (cd.conformal.re, cd.conformal.im), rhs))

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
        "conjugation": conj,
        "conformal_pairs_checked": len(vs),
        "conformal_pair_mode": mode,
        "subchecks": sub,
    }
    data["ok"] = all(sub.values())
    return data


def _conformal_pairs(sp, rng) -> tuple[np.ndarray, np.ndarray, str]:
    """The (v, w) pairs of the conformal identity, as two stacks of columns (P, 2n, 1, 2).

    Every pair, with the vectors in `fp.elements()` order, when there are at
    most 10^4; else 1000 seeded pairs, v then w, each entry drawn re then im.
    """
    fp, dim = sp.fp, sp.dim
    if (fp.q * fp.q) ** (2 * dim) <= 10**4:
        vecs = np.array(list(product([(x.re, x.im) for x in fp.elements()], repeat=dim)), dtype=PAIR_DTYPE)
        vs, ws = np.repeat(vecs, len(vecs), axis=0), np.tile(vecs, (len(vecs), 1, 1))
        mode = "exhaustive"
    else:
        draws = _draws(rng, fp.q, 1000 * 2 * dim * 2).astype(PAIR_DTYPE)
        vs, ws = draws.reshape(1000, 2, dim, 2).swapaxes(0, 1)
        mode = "sampled"
    return vs[:, :, None], ws[:, :, None], mode


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
    sp = make_space(q, n)
    ants = anti_involutions(q, n, cap_group)
    form_rep = involution_form_report(q, n, cap_group)
    corr = correspondence_report(q, n, cap_group, cap_points)
    eigen = _anti_involution_suite(q, n)[1]
    # exact on every pair of rational vectors; the identity needs i outside F
    pairing_ok = epsilon_f(q) != -1 or bool(np.all(_pairing_identity(sp, ants.arr)))

    squares = sorted({(a * a) % q for a in range(1, q)} - {1, q - 1})
    s_a_table = []
    for a in squares:
        s_a_table.append({"a": a, "size": len(scaled_involutions(q, n, a, cap_group))})
    classification = classify_involutions(q, n, cap_group)

    sub = {
        "square_symmetry_equivalence": True,  # asserted group-wide inside _square_scalars
        "form_suite": all(
            form_rep[k] for k in ("symmetric", "determinant_one", "discriminant_square", "equivariant")
        ),
        "eigenspace_suite": all(bool(v.all()) for v in eigen.values() if v.dtype == bool),
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
    ok = True
    for part in blocks(len(table)):
        block, h_rank = table.bases[part], table.h_rank[part]
        inter, inter_rank = _conj_intersections(sp, block)
        rad, rad_rank = _h_e_radicals(sp, block)
        ok &= (
            np.array_equal(_conjugate_sum_dims(sp, block), n + h_rank)
            and np.array_equal(inter_rank, n - h_rank)
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
    The denominators are ranked as stacks: over the group table for each
    z, or over the bottom blocks (C D) of seeded 12-letter words.  The
    samples are the seeded `randrange` stream of a loop that draws a Z
    (`_random_symmetric`) and, for a nondegenerate one, the 12 letters of
    its word, one call at a time; `sampling` replays it from the
    generator's 32-bit words in bulk.
    """
    sp = make_space(q, n)
    fp = sp.fp
    rng = _rng("siegel-criterion", q, n)
    # spf is rational; a product of two of these sums 2n products below (q - 1)^2
    real = np.ascontiguousarray(_generator_stacks(q, n, TAG_SP_F)[0][..., 0], dtype=product_dtype(fp, sp.dim))
    iu = np.triu_indices(n)

    def ranks(cd: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Rank of C Z + D for each bottom block (C D) of a stack, Z broadcast."""
        return rank_stack(fp, mm(fp, cd[:, :, :n], zs) + cd[:, :, n:])

    def draw(count: int) -> np.ndarray:
        return _draws(rng, len(real), 12 * count).reshape(count, 12)

    def products(letters: np.ndarray) -> np.ndarray:
        """The bottom block (C D) of each word's product, multiplied over F."""
        g = real[letters[:, 0], n:]
        for col in letters.T[1:]:
            g = g @ real[col] % q
        return np.stack([g, np.zeros_like(g)], axis=-1)

    flags = {}  # Z - conj(Z) = 2s Im(Z): its rank depends on Im(Z) alone

    def nondegenerate(ims: np.ndarray):
        """p -> rank(Z - conj Z) == n, for the Z of each Im(Z) upper triangle of a stack
        (N, t); at the first Im(Z) not met before, every new one of the stack is ranked,
        in one stack."""
        ims = ims.astype(PAIR_DTYPE)
        keys = stack_keys(ims, q).tolist()

        def flag(p: int) -> bool:
            if keys[p] not in flags:
                new = {key: i for i, key in enumerate(keys) if key not in flags}
                twice_im = symmetric_stack(2 * ims[list(new.values())] % q, n)
                diff = np.stack([np.zeros_like(twice_im), twice_im], axis=-1)
                flags.update(zip(new, (rank_stack(fp, diff) == n).tolist()))
            return flags[keys[p]]

        return flag

    exhaustive = n == 1 and q <= 5
    witnesses = []  # (z, an invertible denominator found, a singular one found)
    if exhaustive:
        arr = enumerate_symplectic(sp, TAG_SP_F, cap_group).arr[:, n:]
        zs = [Mat.diag(fp, [x]) for x in fp.elements()]
        flag = nondegenerate(np.stack([z.a for z in zs])[:, iu[0], iu[1], 1])
        nondeg = [z for i, z in enumerate(zs) if flag(i)]
        degen = [z for i, z in enumerate(zs) if not flag(i)]
        invertible_ok = all(bool(np.all(ranks(arr, z.a) == n)) for z in nondeg)
        cases = len(nondeg) * len(arr)
        for z in degen:
            rk = ranks(arr, z.a)
            witnesses.append((z, bool(np.any(rk == n)), bool(np.any(rk < n))))
    else:
        zs, letters = _nondegenerate_pairs(rng, sp, len(real), 1000, nondegenerate)
        invertible_ok = bool(np.all(ranks(products(letters), zs) == n))
        cases = len(zs)
        while len(witnesses) < 10:
            z = _random_symmetric(sp, rng)
            if nondegenerate(z.a[iu[0], iu[1], 1][None])(0):
                continue
            # up to 4000 words, 64 at a time, stopping at the first word that
            # completes the pair: its batch is drawn again up to that word
            has_inv = has_sing = False
            for lo in range(0, 4000, 64):
                state = rng.getstate()
                rk = ranks(products(draw(min(64, 4000 - lo))), z.a)
                inv = has_inv | np.logical_or.accumulate(rk == n)
                sing = has_sing | np.logical_or.accumulate(rk < n)
                has_inv, has_sing = bool(inv[-1]), bool(sing[-1])
                if has_inv and has_sing:
                    rng.setstate(state)
                    draw(int(np.argmax(inv & sing)) + 1)
                    break
            witnesses.append((z, has_inv, has_sing))
    converse_ok = all(inv and sing for _, inv, sing in witnesses)
    return {
        "mode": "exhaustive" if exhaustive else "sampled",
        "cases": cases,
        "degenerate_witnesses": [
            {"z": z.encode(), "invertible_found": inv, "singular_found": sing} for z, inv, sing in witnesses
        ],
        "subchecks": {
            "denominator_always_invertible": invertible_ok,
            "degenerate_converse_witnesses": converse_ok,
        },
        "ok": invertible_ok and converse_ok,
    }


_CHECKS = {
    "theorem1": check_theorem1,
    "cayley": check_cayley,
    "stabilizers": check_stabilizers,
    "strata-map": check_strata_map,
    "involutions": check_involutions,
    "lemma4": check_lemma4,
    "siegel-criterion": check_siegel_criterion,
}
CHECK_IDS = tuple(_CHECKS)


def run_cell(check: str, q: int, n: int, body) -> dict:
    """The record of one cell: `body()` returns (status, data), timed into wall_ms.

    ResourceLimitError and MemoryError (numpy's failed allocations too) become
    a skipped-resource record with a reason, VerificationFailure a fail record
    with its error; ConsistencyError passes through.
    """
    start = time.perf_counter()
    try:
        status, data = body()
    except ResourceLimitError as exc:
        status, data = "skipped-resource", {"reason": str(exc)}
    except MemoryError:
        status, data = "skipped-resource", {"reason": "out of memory"}
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
