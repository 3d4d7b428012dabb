"""Anti-involutions and involutions of the rational symplectic group.

An anti-involution is a rational symplectic T with T^2 = -I; the set of
them is a conjugation-invariant model of the Lagrangian geometry.  Every
result here is obtained by filtering a fully enumerated group, each
filter a mask over the rows of its table, and the equivalence
"T^2 = -I iff J T is symmetric" is asserted across the whole group as a
built-in cross-check before anything else runs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError, ResourceLimitError, VerificationFailure
from .field import epsilon_f
from .lagrangian import Lagrangian, enumerate_lagrangians, from_basis, span_images
from .linalg import Mat, block, mm, stack_keys
from .symplectic import (
    TAG_SP_F,
    EnumeratedGroup,
    GroupElement,
    SpaceParams,
    enumerate_symplectic,
    frontier_closure,
    generators,
    group_order,
    make_space,
)


def _space_of(t: GroupElement) -> SpaceParams:
    return make_space(t.mat.fp.q, t.mat.rows // 2)


@lru_cache(maxsize=None)
def _anti_involutions(q: int, n: int) -> EnumeratedGroup:
    sp = make_space(q, n)
    g = enumerate_symplectic(sp, TAG_SP_F, group_order(TAG_SP_F, q, n))
    is_anti = np.all(mm(sp.fp, g.arr, g.arr) == (-sp.identity).a, axis=(1, 2, 3))
    jg = mm(sp.fp, sp.j.a, g.arr)
    jg_symmetric = np.all(jg == jg.swapaxes(1, 2), axis=(1, 2, 3))
    if not np.array_equal(is_anti, jg_symmetric):
        raise VerificationFailure("T^2 = -I and symmetry of J T disagree on some group element")
    return g.where(is_anti)


def anti_involutions(q: int, n: int, cap_group: int) -> EnumeratedGroup:
    """The anti-involutions, as the sub-table of the rational group's rows with T^2 = -I."""
    sp = make_space(q, n)
    enumerate_symplectic(sp, TAG_SP_F, cap_group)  # enforces the cap
    return _anti_involutions(q, n)


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
    sym_ok = det_ok = disc_ok = True
    for t in ants:
        bt = involution_form(t)
        sym_ok &= bt.is_symmetric()
        det = bt.det()
        det_ok &= det == fp.one
        disc_ok &= det.is_rational and fp.is_square_in_f(det.re)
    # J (g T g^-1) = t(g^-1) (J T) g^-1 for every pair (T, g), both sides as one stack
    mats, invs = _gen_stacks(generators(sp, TAG_SP_F))
    lhs = mm(fp, sp.j.a, _conjugates(fp, mats, invs, ants.arr))
    rhs = mm(fp, mm(fp, invs.swapaxes(1, 2)[None], mm(fp, sp.j.a, ants.arr)[:, None]), invs[None])
    equi_ok = np.array_equal(lhs, rhs)
    return {
        "count": len(ants),
        "symmetric": sym_ok,
        "determinant_one": det_ok,
        "discriminant_square": disc_ok,
        "equivariant": equi_ok,
    }


# ---------------------------------------------------------------------------
# eigenspace model
# ---------------------------------------------------------------------------

def _eigenspace(sp: SpaceParams, t: Mat, value) -> Mat:
    return (t - value * sp.identity).kernel()


def eigenspace_model(t: GroupElement) -> Lagrangian:
    """The +i eigenspace of an anti-involution, as a canonical Lagrangian.

    When -1 is a square in the base field the matrix T - iI is rational,
    so the kernel computation stays inside F with no extension round-trip.
    """
    sp = _space_of(t)
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    ker = _eigenspace(sp, t.mat, i)
    return from_basis(sp, ker)


def eigenspace_report(t: GroupElement) -> dict:
    """Per-item verification of the eigenspace decomposition contracts."""
    sp = _space_of(t)
    fp = sp.fp
    q = fp.q
    i = fp.sqrt(fp.e(-1))
    ker_p = _eigenspace(sp, t.mat, i)
    ker_m = _eigenspace(sp, t.mat, -i)
    out = {"plus_dim": ker_p.cols, "minus_dim": ker_m.cols}
    out["nonzero"] = ker_p.cols > 0 and ker_m.cols > 0
    out["dims_split"] = ker_p.cols + ker_m.cols == sp.dim
    w = from_basis(sp, ker_p)
    out["lagrangian"] = True  # from_basis validates isotropy and rank
    if epsilon_f(q) == -1:
        wm = from_basis(sp, ker_m)
        out["conjugate_swaps"] = w.conj() == wm
        joined = Mat(fp, np.concatenate([ker_p.a, ker_p.conj().a], axis=1))
        out["no_rational_vectors"] = joined.rank() == sp.dim
        cross = w.basis.T @ sp.j @ wm.basis.conj()
        out["orthogonal_decomposition"] = cross.is_zero
        out["top_stratum"] = w.gram("h_e").rank() == sp.n
    else:
        out["null_stratum"] = w.gram("h_e").rank() == 0
    return out


def pairing_identity_holds(t: GroupElement, samples) -> bool:
    """h_e(v - iTv, w - iTw) = 2 omega(v, w) + 2i b_T(v, w) on sample pairs."""
    sp = _space_of(t)
    fp = sp.fp
    i = fp.sqrt(fp.e(-1))
    bt = sp.j @ t.mat
    for v, w in samples:
        xv = v - i * (t.mat @ v)
        xw = w - i * (t.mat @ w)
        lhs = (xv.T @ sp.j @ xw.conj()).at(0, 0)
        om = (v.T @ sp.j @ w).at(0, 0)
        bform = (v.T @ bt @ w).at(0, 0)
        if lhs != fp.e(2) * om + fp.e(2) * i * bform:
            return False
    return True


# ---------------------------------------------------------------------------
# the correspondence with the Lagrangian strata
# ---------------------------------------------------------------------------

def _gen_stacks(gens) -> tuple[np.ndarray, np.ndarray]:
    """The generators and their inverses, as two stacks (G, 2n, 2n, 2)."""
    return np.stack([g.mat.a for g in gens]), np.stack([g.mat.inv().a for g in gens])


def _conjugates(fp, mats: np.ndarray, invs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """g T g^-1 for each T in a stack (N, 2n, 2n, 2) and each generator: (N, G, 2n, 2n, 2)."""
    return mm(fp, mm(fp, mats[None], ts[:, None]), invs[None])


def _conjugation_closure(seed: Mat, gens, cap: int) -> np.ndarray:
    """The sorted keys of the seed's conjugates under the generated group."""
    mats, invs = _gen_stacks(gens)
    step = lambda frontier: _conjugates(seed.fp, mats, invs, frontier)  # noqa: E731
    try:
        members = frontier_closure(seed.a, step, cap, "conjugation closure")[0]
    except ResourceLimitError:
        raise VerificationFailure("conjugation closure exceeded cap")
    return np.sort(stack_keys(members))


def _equivariant(sp: SpaceParams, ants: EnumeratedGroup, models: np.ndarray, gens) -> bool:
    """g W_T = W_{g T g^-1} for each row T of `ants` with eigenspace W_T in `models`, each generator g.

    A g T g^-1 missing from `ants` counts as not equivariant.
    """
    mats, invs = _gen_stacks(gens)
    j = ants.rows(_conjugates(sp.fp, mats, invs, ants.arr).reshape(-1, sp.dim, sp.dim, 2))
    moved = span_images(sp, mats, models).reshape(-1, sp.dim, sp.n, 2)
    return bool(np.all(j >= 0) and np.array_equal(moved, models[j]))


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
    gens = generators(sp, TAG_SP_F)
    out = {"count": len(ants), "branch": "nonsquare" if epsilon_f(q) == -1 else "square"}
    models = np.stack([eigenspace_model(t).basis.a for t in ants])
    out["equivariant"] = _equivariant(sp, ants, models, gens)
    # the distinct eigenspaces, with the number of anti-involutions on each
    images, fibers = np.unique(stack_keys(models), return_counts=True)

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
    h_seed = block(fp, [[i * eye, Mat.zeros(fp, n, n)], [Mat.zeros(fp, n, n), (-i) * eye]])
    closure = _conjugation_closure(h_seed, gens, cap=len(ants) + 1)
    out["single_orbit"] = np.array_equal(closure, ants.keys)

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
    target = (sp.fp.e(a) * sp.identity).a
    return g.where(np.all(mm(sp.fp, g.arr, g.arr) == target, axis=(1, 2, 3)))


def classify_involutions(q: int, n: int, cap_group: int) -> dict:
    """Partition of the involutions by fixed-space dimension.

    For each involution the two eigenspaces are checked to be symplectically
    nondegenerate and to reconstruct the element, and each dimension class
    is checked to be a single conjugation orbit.
    """
    sp = make_space(q, n)
    fp = sp.fp
    gens = generators(sp, TAG_SP_F)
    invs = scaled_involutions(q, n, 1, cap_group)
    classes: dict[int, list[int]] = {}  # fixed-space dimension -> rows of invs
    nondeg_ok = rebuild_ok = True
    for row, t in enumerate(invs):
        plus = _eigenspace(sp, t.mat, fp.one)
        minus = _eigenspace(sp, t.mat, -fp.one)
        k = plus.cols
        classes.setdefault(k, []).append(row)
        for base in (plus, minus):
            if base.cols:
                g = base.T @ sp.j @ base
                nondeg_ok &= g.rank() == base.cols
        basis = Mat(fp, np.concatenate([plus.a, minus.a], axis=1))
        signs = Mat.diag(fp, [fp.one] * plus.cols + [-fp.one] * minus.cols)
        inv_basis = basis.inv()
        rebuild_ok &= inv_basis is not None and basis @ signs @ inv_basis == t.mat
    per_class = []
    single = True
    for k in sorted(classes):
        rows = classes[k]
        closure = _conjugation_closure(invs[rows[0]].mat, gens, cap=len(rows) + 1)
        one_orbit = np.array_equal(closure, invs.keys[rows])
        single &= one_orbit
        per_class.append({"k": k, "size": len(rows), "single_orbit": one_orbit})
    return {
        "total": len(invs),
        "observed_k": sorted(classes),
        "eigenspaces_nondegenerate": nondeg_ok,
        "reconstruction": rebuild_ok,
        "classes": per_class,
        "each_class_single_orbit": single,
    }
