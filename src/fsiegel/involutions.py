"""Anti-involutions and involutions of the rational symplectic group.

An anti-involution is a rational symplectic T with T^2 = -I; the set of
them is a conjugation-invariant model of the Lagrangian geometry.  Both
sets are sub-tables of the fully enumerated group, and every check over
them is a stack operation over their rows: the eigenspaces are one
`kernel_stack` per eigenvalue and cell, and the pairing identity is one
matrix identity per row, exact on every pair of rational vectors, and
conjugation by the generators is one table of rows per set.  The
equivalence "T^2 = -I iff J T is symmetric" is asserted across the whole
group as a built-in cross-check before anything else runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, VerificationFailure
from .field import epsilon_f
from .lagrangian import Lagrangian, _grams, enumerate_lagrangians, span_images
from .linalg import (
    Mat, block, block_diag, conj_arr, det_stack, kernel_stack, mm, rank_stack, rcef_stack, scalar_mm,
    stack_keys,
)
from .orbits import _walk
from .symplectic import (
    TAG_SP_F,
    EnumeratedGroup,
    GroupElement,
    SpaceParams,
    _generator_stack,
    enumerate_symplectic,
    generators,
    group_order,
    make_space,
    per_cell,
)


def _space_of(t: GroupElement) -> SpaceParams:
    return make_space(t.mat.fp.q, t.mat.rows // 2)


@per_cell
def _square_scalars(q: int, n: int) -> np.ndarray:
    """The a in F with T^2 = a I, or -1, per row T of the rational group: one squaring per cell.

    Cross-checked across the group: T^2 = -I exactly when J T is symmetric
    (VerificationFailure otherwise).
    """
    sp = make_space(q, n)
    g = enumerate_symplectic(sp, TAG_SP_F, group_order(TAG_SP_F, q, n))
    squares = mm(sp.fp, g.arr, g.arr)
    a = squares[:, 0, 0, 0]
    out = np.where(np.all(squares == a[:, None, None, None] * sp.identity.a, axis=(1, 2, 3)), a, -1)
    del squares, a  # the group-sized squares go before the group-sized J T comes
    jg = mm(sp.fp, sp.j.a, g.arr)
    if not np.array_equal(out == q - 1, np.all(jg == jg.swapaxes(1, 2), axis=(1, 2, 3))):
        raise VerificationFailure("T^2 = -I and symmetry of J T disagree on some group element")
    return out


def anti_involutions(q: int, n: int, cap_group: int) -> EnumeratedGroup:
    """The anti-involutions, as the sub-table of the rational group's rows with T^2 = -I."""
    return scaled_involutions(q, n, -1, cap_group)


def involution_form(t: GroupElement) -> Mat:
    """The symmetric matrix J T attached to an anti-involution."""
    sp = _space_of(t)
    if (t.mat @ t.mat) != -sp.identity:
        raise ParameterError("input does not square to -I")
    return sp.j @ t.mat


def involution_form_report(q: int, n: int, cap_group: int) -> dict:
    """Symmetry, determinant, discriminant, and equivariance of T -> J T."""
    sp = make_space(q, n)
    fp = sp.fp
    ants = anti_involutions(q, n, cap_group)
    forms = mm(fp, sp.j.a, ants.arr)
    dets = det_stack(fp, forms)
    det_ok = bool(np.all(dets == (1, 0)))
    disc_ok = not dets[:, 1].any() and all(fp.is_square_in_f(d) for d in set(dets[:, 0].tolist()))
    # J (g T g^-1) = t(g^-1) (J T) g^-1 for every pair (T, g): the left side is the form of
    # the conjugate's row, the right side one stack
    rows = _conjugation_rows(q, n, -1)
    invs = _gen_stacks(sp, generators(sp, TAG_SP_F))[1]
    rhs = mm(fp, mm(fp, invs.swapaxes(1, 2)[None], forms[:, None]), invs[None])
    return {
        "count": len(ants),
        "symmetric": bool(np.all(forms == forms.swapaxes(1, 2))),
        "determinant_one": det_ok,
        "discriminant_square": disc_ok,
        "equivariant": bool(np.all(rows >= 0)) and np.array_equal(forms[rows], rhs),
    }


# ---------------------------------------------------------------------------
# eigenspace model
# ---------------------------------------------------------------------------

def _eigenspaces(sp: SpaceParams, ts: np.ndarray, value) -> tuple[np.ndarray, np.ndarray]:
    """Kernels of T - value I over a stack: (N, 2n, 2n, 2), row i's first dims[i] columns nonzero."""
    ker = kernel_stack(sp.fp, ts - (value * sp.identity).a)
    return ker, np.count_nonzero(ker.any(axis=(1, 3)), axis=1)


def eigenspace_suite(sp: SpaceParams, ts: np.ndarray) -> tuple[np.ndarray, dict]:
    """The eigenspace contracts of every anti-involution in a stack (N, 2n, 2n, 2).

    Returns the canonical +i eigenspaces (N, 2n, n, 2) and one array per
    `eigenspace_report` key.  When -1 is a square in the base field the
    matrix T - iI is rational, so the kernels stay inside F.
    """
    fp, n = sp.fp, sp.n
    i = fp.sqrt(fp.e(-1))
    (ker_p, plus), (ker_m, minus) = (_eigenspaces(sp, ts, v) for v in (i, -i))
    canon = rcef_stack(fp, ker_p)[0]
    t_ker_j = mm(fp, ker_p.swapaxes(1, 2), sp.j.a)
    out = {
        "plus_dim": plus,
        "minus_dim": minus,
        "nonzero": (plus > 0) & (minus > 0),
        "dims_split": plus + minus == sp.dim,
        "lagrangian": (plus == n) & ~mm(fp, t_ker_j, ker_p).any(axis=(1, 2, 3)),
    }
    h_ranks = rank_stack(fp, _grams(sp, ker_p, sp.j))
    if epsilon_f(sp.q) == -1:
        out["conjugate_swaps"] = np.all(conj_arr(canon, sp.q) == rcef_stack(fp, ker_m)[0], axis=(1, 2, 3))
        joined = np.concatenate([ker_p, conj_arr(ker_p, sp.q)], axis=2)
        out["no_rational_vectors"] = rank_stack(fp, joined) == sp.dim
        out["orthogonal_decomposition"] = ~mm(fp, t_ker_j, conj_arr(ker_m, sp.q)).any(axis=(1, 2, 3))
        out["top_stratum"] = h_ranks == n
    else:
        out["null_stratum"] = h_ranks == 0
    return canon[:, :, :n], out


@per_cell
def _anti_involution_suite(q: int, n: int) -> tuple[np.ndarray, dict]:
    """The eigenspace suite of the cell's anti-involutions, taken once per cell."""
    ants = scaled_involutions(q, n, -1, group_order(TAG_SP_F, q, n)).arr
    return eigenspace_suite(make_space(q, n), ants)


def eigenspace_model(t: GroupElement) -> Lagrangian:
    """The +i eigenspace of an anti-involution, as a canonical Lagrangian (one row of the suite)."""
    sp = _space_of(t)
    models, rep = eigenspace_suite(sp, t.mat.a[None])
    if not rep["lagrangian"][0]:
        raise ParameterError("the +i eigenspace is not a Lagrangian")
    return Lagrangian(sp, Mat(sp.fp, models[0]))


def eigenspace_report(t: GroupElement) -> dict:
    """Per-item verification of the eigenspace decomposition contracts (one row of the suite)."""
    rep = eigenspace_suite(_space_of(t), t.mat.a[None])[1]
    return {key: v[0].item() for key, v in rep.items()}


def _pairing_identity(sp: SpaceParams, ts: np.ndarray) -> np.ndarray:
    """t(X) J conj(X) = 2 (J + i J T), with X = I - iT, for every T in a stack; one bool per row.

    On rational v, w this is the scalar identity h_e(v - iTv, w - iTw) =
    2 omega(v, w) + 2i t(v) J T w for every pair at once;
    it needs conj(i) = -i, that is -1 a non-square in the base field.
    """
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    x = sp.identity.a - scalar_mm(fp, (i.re, i.im), ts)
    lhs = mm(fp, mm(fp, x.swapaxes(1, 2), sp.j.a), conj_arr(x, fp.q))
    rhs = scalar_mm(fp, (2, 0), sp.j.a + scalar_mm(fp, (i.re, i.im), mm(fp, sp.j.a, ts)))
    return np.all(lhs == rhs, axis=(1, 2, 3))


# ---------------------------------------------------------------------------
# the correspondence with the Lagrangian strata
# ---------------------------------------------------------------------------

def _gen_stacks(sp: SpaceParams, gens) -> tuple[np.ndarray, np.ndarray]:
    """The generators and their inverses, as two stacks (G, 2n, 2n, 2)."""
    return _generator_stack(sp, gens), _generator_stack(sp, [g.mat.inv() for g in gens])


@per_cell
def _conjugation_rows(q: int, n: int, a: int) -> np.ndarray:
    """Row of g T g^-1 in the T^2 = aI sub-table, for each of its rows T and each rational
    generator g: (N, G), -1 where the conjugate is outside; one stacked product per cell, read-only."""
    sp = make_space(q, n)
    sub = scaled_involutions(q, n, a, group_order(TAG_SP_F, q, n))
    mats, invs = _gen_stacks(sp, generators(sp, TAG_SP_F))
    conj = mm(sp.fp, mm(sp.fp, mats[None], sub.arr[:, None]), invs[None])
    return sub.rows(conj.reshape(-1, sp.dim, sp.dim, 2)).reshape(len(sub), len(mats))


def _single_orbit(rows: np.ndarray, seed: int, members: np.ndarray) -> bool:
    """Whether the sorted rows `members` are the orbit of row `seed` under a conjugation table:
    each generator permutes them (a -1, a conjugate outside the set, fails) and the walk from
    the seed reaches them all."""
    if seed < 0 or np.any(np.sort(rows[members], axis=0) != members[:, None]):
        return False
    return np.array_equal(np.sort(_walk(rows, seed)[0]), members)


def _equivariant(sp: SpaceParams, rows: np.ndarray, models: np.ndarray, gens) -> bool:
    """g W_T = W_{g T g^-1} for each anti-involution T with eigenspace W_T in `models`, each generator g.

    `rows` is the anti-involutions' conjugation table; a g T g^-1 outside
    the set (-1) counts as not equivariant.
    """
    moved = span_images(sp, _generator_stack(sp, gens), models)
    return bool(np.all(rows >= 0) and np.array_equal(moved, models[rows]))


def correspondence_report(q: int, n: int, cap_group: int, cap_points: int) -> dict:
    """Branch-dependent model of the anti-involution set.

    When -1 is a non-square: the eigenspace map is an equivariant bijection
    onto the top h_e stratum.  When -1 is a square: the set is one
    conjugation orbit, the isotropy of diag(iI, -iI) is the diagonal-block
    subgroup, and the eigenspace map onto the null stratum is surjective
    but drops injectivity.
    """
    sp = make_space(q, n)
    fp = sp.fp
    ants = anti_involutions(q, n, cap_group)
    rows = _conjugation_rows(q, n, -1)
    out = {"count": len(ants), "branch": "nonsquare" if epsilon_f(q) == -1 else "square"}
    models, eigen = _anti_involution_suite(q, n)
    # a row that is not Lagrangian has no image span to compare
    out["equivariant"] = bool(eigen["lagrangian"].all()) and _equivariant(
        sp, rows, models, generators(sp, TAG_SP_F)
    )
    # the distinct eigenspaces, with the number of anti-involutions on each
    images, fibers = np.unique(stack_keys(models, q), return_counts=True)

    table = enumerate_lagrangians(q, n, cap_points)
    if epsilon_f(q) == -1:
        top = table.keys[table.h_rank == n]
        out["injective"] = len(images) == len(ants)
        out["image_is_top_stratum"] = np.array_equal(images, top)
        out["stratum_size"] = len(top)
        out["bijective"] = out["injective"] and out["image_is_top_stratum"]
        return out

    # square branch
    out["image_is_null_stratum"] = np.array_equal(images, table.keys[table.h_rank == 0])
    out["max_fiber"] = int(fibers.max(initial=0))
    out["injective"] = out["max_fiber"] == 1

    i = fp.sqrt(fp.e(-1))
    eye = Mat.identity(fp, n)
    h_seed = block_diag(fp, i * eye, (-i) * eye)
    out["single_orbit"] = _single_orbit(rows, ants.rows(h_seed.a[None])[0], np.arange(len(ants)))

    # the isotropy of the seed and the block-diagonal subgroup, as masks over the group's rows
    arr = enumerate_symplectic(sp, TAG_SP_F, cap_group).arr
    isotropy = np.all(mm(fp, arr, h_seed.a) == mm(fp, h_seed.a, arr), axis=(1, 2, 3))
    diagonal = ~arr[:, :n, n:].any(axis=(1, 2, 3)) & ~arr[:, n:, :n].any(axis=(1, 2, 3))
    out["isotropy_is_diagonal_subgroup"] = np.array_equal(isotropy, diagonal)
    out["isotropy_order"] = int(np.count_nonzero(isotropy))
    out["homogeneous_count_matches"] = (
        len(ants) * out["isotropy_order"] == group_order(TAG_SP_F, q, n)
    )

    half_i = i / fp.e(-2)  # 1 / (-2i)
    c = block(fp, [[half_i * eye, eye], [(half_i * i) * eye, (-i) * eye]])
    conj_ok = c @ h_seed @ c.inv() == sp.j
    out["cayley_carries_seed_to_j"] = conj_ok
    return out


# ---------------------------------------------------------------------------
# involutions with positive square
# ---------------------------------------------------------------------------

def scaled_involutions(q: int, n: int, a: int, cap_group: int) -> EnumeratedGroup:
    """All group members with T^2 = a I, as a sub-table of the group's rows."""
    sp = make_space(q, n)
    g = enumerate_symplectic(sp, TAG_SP_F, cap_group)
    return g.where(_square_scalars(q, n) == a % q)


def classify_involutions(q: int, n: int, cap_group: int) -> dict:
    """Partition of the involutions by fixed-space dimension.

    For each involution the two eigenspaces are checked to be symplectically
    nondegenerate and to reconstruct the element, and each dimension class
    is checked to be a single conjugation orbit.
    """
    sp = make_space(q, n)
    fp = sp.fp
    invs = scaled_involutions(q, n, 1, cap_group)
    (plus, dims), (minus, minus_dims) = (_eigenspaces(sp, invs.arr, v) for v in (fp.one, -fp.one))
    # each eigenspace B, of dimension k, is nondegenerate when t(B) J B has rank k
    bases = np.concatenate([plus, minus])
    gram_ranks = rank_stack(fp, mm(fp, mm(fp, bases.swapaxes(1, 2), sp.j.a), bases))
    nondeg_ok = np.array_equal(gram_ranks, np.concatenate([dims, minus_dims]))
    # B = (plus | minus) has rank 2n and T B = (plus | -minus): B diag(I, -I) B^-1 = T
    both = np.concatenate([plus, minus], axis=2)
    rebuild_ok = bool(np.all(rank_stack(fp, both) == sp.dim)) and np.array_equal(
        mm(fp, invs.arr, both), np.concatenate([plus, (-minus) % q], axis=2)
    )
    table = _conjugation_rows(q, n, 1)
    per_class = []
    for k in np.flatnonzero(np.bincount(dims)).tolist():
        rows = np.flatnonzero(dims == k)
        one_orbit = _single_orbit(table, rows[0], rows)
        per_class.append({"k": k, "size": len(rows), "single_orbit": one_orbit})
    return {
        "total": len(invs),
        "observed_k": [c["k"] for c in per_class],
        "eigenspaces_nondegenerate": nondeg_ok,
        "reconstruction": rebuild_ok,
        "classes": per_class,
        "each_class_single_orbit": all(c["single_orbit"] for c in per_class),
    }
