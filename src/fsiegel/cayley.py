"""Conjugation between the rational and h_0-unitary symplectic groups.

The bridge is a 2n x 2n block-scalar similitude M with two exact
properties, both re-verified on construction:

    t(M) J M        = multiplier * J        (symplectic similitude)
    t(M) D conj(M)  = conformal  * J        (carries h_e onto h_0)

Together these force Ad(M) to carry the rational symplectic group onto
the h_0-unitary one, in both directions; scalar rescaling of M changes
neither Ad(M) nor the stratum correspondence, so a normalized M inside
Sp(n, E) is recorded when the multiplier has a square root in E and
reported as absent otherwise.

When -1 is a non-square the classical normalized element
(1/sqrt(-2)) (iI, I; I, iI) exists and all its closed-form identities are
checked.  When -1 is a square, the same block shape (vI, bI; I, vbI) is
used but with v on the norm-one circle outside the base field and b in
the base field: the conformality identity above fails for every choice
with norm(v) = -1 and b purely imaginary, which the test suite
demonstrates on a concrete generator, so those parameter constraints
cannot be used.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import ConsistencyError, ParameterError, ResourceLimitError
from .field import EScalar, epsilon_f, tau_f
from .lagrangian import Lagrangian, _span_of, enumerate_lagrangians, l_plus
from .linalg import PAIR_DTYPE, Mat, RowTable, block, block_diag, mm, stack_keys
from .orbits import _action_table, _inverse_rows, _walk, act, stabilizer_elements
from .symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    GroupElement,
    SpaceParams,
    _generator_stacks,
    enumerate_symplectic,
    frontier_closure,
    group_element,
    group_order,
    make_space,
    members,
    orthogonal_order,
    per_cell,
    symmetric_basis,
    unitary_order,
    v_k_orbit_size,
)


class CayleyData:
    """The similitude M with its verified multiplier/conformal scalars."""

    __slots__ = ("space", "branch", "m", "multiplier", "conformal", "normalized", "c", "c_conformal", "params")

    def __init__(self, space, branch, m, multiplier, conformal, normalized, c, c_conformal, params):
        self.space = space
        self.branch = branch
        self.m = m
        self.multiplier = multiplier
        self.conformal = conformal
        self.normalized = normalized
        self.c = c
        self.c_conformal = c_conformal
        self.params = params

    def report(self) -> dict:
        out = {
            "branch": self.branch,
            "multiplier": self.multiplier.encode(),
            "conformal": self.conformal.encode(),
            "normalized": self.normalized,
            "params": {k: v.encode() for k, v in self.params.items()},
        }
        if self.c is not None:
            out["normalized_element"] = self.c.mat.encode()
            out["normalized_conformal"] = self.c_conformal.encode()
        return out


def _scalar_of(x: Mat, pattern: Mat, sp: SpaceParams, what: str) -> EScalar:
    """The scalar c with x == c * pattern, or ConsistencyError."""
    c = x.at(0, sp.n)
    if x != c * pattern:
        raise ConsistencyError(f"{what} identity failed: expected a scalar multiple of J")
    return c


@per_cell
def cayley(q: int, n: int) -> CayleyData:
    """Construct the similitude for the given cell and verify M's own identities;
    `verify_conjugation` checks and reports the generator conjugations."""
    sp = make_space(q, n)
    fp = sp.fp
    eye = Mat.identity(fp, n)
    if epsilon_f(q) == -1:
        i = fp.sqrt(fp.e(-1))
        if i is None:
            raise ConsistencyError("-1 must have a square root in E")
        m = block(fp, [[i * eye, eye], [eye, i * eye]])
        branch = "minus-one-nonsquare"
        params = {"i": i}
    else:
        v = next(x for x in fp.elements() if x.im != 0 and x.norm() == fp.one)
        b = fp.one
        m = block(fp, [[v * eye, b * eye], [eye, v * b * eye]])
        branch = "minus-one-square"
        params = {"v": v, "b": b}

    multiplier = _scalar_of(m.T @ sp.j @ m, sp.j, sp, "similitude")
    conformal = _scalar_of(m.T @ sp.d_form @ m.conj(), sp.j, sp, "conformality")
    if conformal.conj() != -conformal:
        raise ConsistencyError("conformal factor is not purely imaginary")

    root = fp.sqrt(multiplier)
    c = c_conformal = None
    normalized = root is not None
    if normalized:
        lam = root.inverse()
        c_mat = lam * m
        c = group_element(sp, c_mat, TAG_SP_E)
        c_conformal = _scalar_of(c_mat.T @ sp.d_form @ c_mat.conj(), sp.j, sp, "normalized conformality")
        if epsilon_f(q) == -1:
            i = params["i"]
            if c_conformal != fp.e(tau_f(q)) * i:
                raise ConsistencyError("normalized conformal factor differs from tau * i")
            if c_mat.inv() != fp.e(-tau_f(q)) * c_mat.conj():
                raise ConsistencyError("inverse-by-conjugate identity failed")

    return CayleyData(sp, branch, m, multiplier, conformal, normalized, c, c_conformal, params)


def verify_conjugation(cd: CayleyData, q: int, n: int, cap_group: int) -> dict:
    """Generator-level and, when enumerable, element-level conjugation checks.

    The generator level checks the `cd` it is given, one `members` call per
    direction: `forward_ok` reads M G_f M^-1 in sp0 for the spf generator
    stack G_f, and `backward_ok` reads M^-1 G_0 M in spf for the sp0
    generator stack G_0.  The element level compares the conjugated
    rational group with the sp0 closure of sp0's own generators, an
    independent enumeration.
    """
    sp, fp = cd.space, cd.space.fp
    m, m_inv = cd.m, cd.m.inv()
    g_f, g_0 = (_generator_stacks(q, n, tag)[0] for tag in (TAG_SP_F, TAG_SP_0))
    out = {
        "generators": len(g_f),
        "forward_ok": bool(members(sp, mm(fp, mm(fp, m.a, g_f), m_inv.a), TAG_SP_0).all()),
        "backward_ok": bool(members(sp, mm(fp, mm(fp, m_inv.a, g_0), m.a), TAG_SP_F).all()),
        "identity_fixed": m @ sp.identity @ m_inv == sp.identity,
    }
    order = group_order(TAG_SP_F, q, n)
    if order <= cap_group:
        gf = enumerate_symplectic(sp, TAG_SP_F, cap_group)
        g0 = enumerate_symplectic(sp, TAG_SP_0, cap_group)
        conj_keys = np.sort(stack_keys(mm(fp, mm(fp, m.a, gf.arr), m_inv.a), q), kind="stable")
        out["closure_size"] = len(g0)
        out["closure_matches_order"] = len(g0) == order
        out["conjugate_set_equal"] = np.array_equal(conj_keys, g0.keys)
    else:
        out["closure_size"] = None
    return out


# ---------------------------------------------------------------------------
# partial transforms
# ---------------------------------------------------------------------------

def _half_sqrt2(fp) -> EScalar:
    r = fp.sqrt(fp.e(2))
    if r is None:
        raise ConsistencyError("2 must have a square root in E")
    return r / fp.e(2)


def partial_cayley(sp: SpaceParams, k: int) -> GroupElement:
    """Block transform carrying the top coordinate Lagrangian onto V_k."""
    if not 0 <= k <= sp.n:
        raise ParameterError(f"k must lie in 0..{sp.n}, got {k}")
    fp, n = sp.fp, sp.n
    h = _half_sqrt2(fp)
    d1 = Mat.diag(fp, [h] * k + [fp.one] * (n - k))
    d2 = Mat.diag(fp, [-h] * k + [fp.zero] * (n - k))
    t = block(fp, [[d1, d2], [-d2, d1]])
    g = group_element(sp, t, TAG_SP_E)
    l2 = Mat.diag(fp, [h] * k + [fp.zero] * (n - k))
    explicit_inverse = block(fp, [[d1, l2], [-l2, d1]])
    if t.inv() != explicit_inverse:
        raise ConsistencyError("partial transform inverse differs from its closed form")
    return g


def v_k(sp: SpaceParams, k: int) -> Lagrangian:
    """Span of (I; diag(1_k, 0)): e_j + e_{n+j} for j < k and e_j for k <= j < n."""
    if not 0 <= k <= sp.n:
        raise ParameterError(f"k must lie in 0..{sp.n}, got {k}")
    n = sp.n
    w = _span_of(sp, Mat.identity(sp.fp, n), Mat.diag(sp.fp, [1] * k + [0] * (n - k)))
    if act(partial_cayley(sp, k), l_plus(sp)) != w:
        raise ConsistencyError("partial transform does not carry the seed onto V_k")
    return w


# ---------------------------------------------------------------------------
# small classical groups as closures of their reflections
# ---------------------------------------------------------------------------

def _reflection_closure(fp, m: int, over_e: bool) -> list[Mat]:
    """O(m) over F, or U(m) over E when over_e, as the closure of its reflections, sorted by key.

    Each anisotropic v whose first nonzero coordinate is 1 gives the reflection
    r_v = I - (1 - lam) v v* / (v* v): lam is -1 over F, and over E it is g^(q-1) for the
    generator g of E*, which generates the norm-one group.  Reflections generate every
    orthogonal group (Cartan-Dieudonne), and unitary reflections every unitary group over a
    finite field (Taylor, The Geometry of the Classical Groups, ch. 11).  For m = 1 the one
    reflection is lam, so the group is its powers, listed without a BFS level per power.  A
    closure whose size is not the closed-form order raises ConsistencyError.
    """
    if m == 0:
        return [Mat.identity(fp, 0)]
    q, eye = fp.q, Mat.identity(fp, m)
    lam = fp.primitive() ** (q - 1) if over_e else -fp.one
    if m == 1:
        powers = [fp.one, lam]
        while powers[-1] != fp.one:
            powers.append(powers[-1] * lam)
        rows = np.array([[[(x.re, x.im)]] for x in powers[:-1]], dtype=PAIR_DTYPE)
    else:
        gens = []
        for lead in range(m):
            for tail in product(fp.elements() if over_e else fp.f_elements(), repeat=m - lead - 1):
                v = Mat.column(fp, [0] * lead + [1, *tail])
                norm = (v.star() @ v).at(0, 0)
                if not norm.is_zero:
                    gens.append((eye - v @ v.star() * ((1 - lam) / norm)).a)
        mats = np.stack(gens)
        rows = frontier_closure(eye.a, lambda frontier: mm(fp, frontier[:, None], mats[None]), q)[0]
    name, order = ("U", unitary_order(q, m)) if over_e else ("O", orthogonal_order(q, m))
    if len(rows) != order:
        raise ConsistencyError(f"closure of the {name}({m}) reflections has {len(rows)} elements, its closed form {order}")
    return [Mat(fp, a) for a in RowTable(rows, q).arr]


def orthogonal_group_elements(fp, k: int) -> list[Mat]:
    """All k x k base-field matrices S with t(S) S = I, sorted by key."""
    return _reflection_closure(fp, k, over_e=False)


def unitary_group_elements(fp, m: int) -> list[Mat]:
    """All m x m extension-field matrices T with star(T) T = I, sorted by key."""
    return _reflection_closure(fp, m, over_e=True)


# ---------------------------------------------------------------------------
# stabilizer structure
# ---------------------------------------------------------------------------

def stabilizer_structure(q: int, n: int, k: int, cap_group: int, cap_points: int) -> dict:
    """Order and subgroup checks for the stabilizer of V_k in the unitary group.

    The predicted order is |O(k)| * |U(n-k)| * q^{k(k+1)/2} with both factor
    groups built as closures of their reflections.  When the group fits
    under the cap the stabilizer is filtered from the group table as one
    mask and the predicted factor subgroups are looked up in its rows;
    otherwise only the order arithmetic against the orbit size is reported.
    V_k's closed-form orbit size, then the cell's point table, are refused
    against the point cap before anything is built; V_k's orbit is walked
    in the cell's sp0 action table and must have that size.
    """
    sp = make_space(q, n)
    fp = sp.fp
    size = v_k_orbit_size(q, n, k)
    if size > cap_points:
        raise ResourceLimitError(f"orbit exceeds cap {cap_points}")
    table = enumerate_lagrangians(q, n, cap_points)
    tk = partial_cayley(sp, k)
    vk = v_k(sp, k)
    row = table.rows(vk.basis.a[None])[0]
    if row < 0:
        raise ConsistencyError(f"V_{k} is not a point of the cell's table")
    found = _walk(_cell_actions(q, n)[TAG_SP_0], row)[0]
    if len(found) != size:
        raise ConsistencyError(f"orbit of V_{k} has {len(found)} points, its closed form {size}")
    o_elems = orthogonal_group_elements(fp, k)
    u_elems = unitary_group_elements(fp, n - k)
    predicted = len(o_elems) * len(u_elems) * q ** (k * (k + 1) // 2)
    order = group_order(TAG_SP_0, q, n)
    out = {
        "k": k,
        "orthogonal_factor": len(o_elems),
        "unitary_factor": len(u_elems),
        "unipotent_factor": q ** (k * (k + 1) // 2),
        "predicted_order": predicted,
        "orbit_size": size,
        "group_order": order,
        "quotient_matches_orbit": order % predicted == 0 and order // predicted == size,
    }
    if order > cap_group:
        out["mode"] = "reduced"
        return out
    out["mode"] = "full"
    g0 = enumerate_symplectic(sp, TAG_SP_0, cap_group)
    stab = stabilizer_elements(vk, g0)
    out["filtered_order"] = len(stab)
    out["filtered_matches_predicted"] = len(stab) == predicted
    out["orbit_stabilizer_consistent"] = len(stab) * size == order

    # the Levi factor diag(S, T, S, conj T) and the unipotent factor
    # T_k (I, diag(B, 0); 0, I) T_k^-1 are looked up in the stabilizer's rows
    levi = np.stack([block_diag(fp, s, t, s, t.conj()).a for s in o_elems for t in u_elems])
    found = stab.rows(levi) >= 0
    out["levi_contained"] = bool(found.all()) and bool(members(sp, levi, TAG_SP_0).all())

    # every B is an F-combination of the imaginary half of the basis over E
    dim = k * (k + 1) // 2
    basis = symmetric_basis(fp, k, over_e=True)[dim:]
    coeffs = np.array(list(product(range(q), repeat=dim)), dtype=np.int64).reshape(q**dim, dim)
    uni = np.tile(sp.identity.a, (q**dim, 1, 1, 1))
    uni[:, :k, n : n + k] = np.tensordot(coeffs, basis, axes=1) % q
    found = stab.rows(mm(fp, mm(fp, tk.mat.a, uni), tk.mat.inv().a)) >= 0
    out["unipotent_contained"] = bool(found.all())
    return out


def unitary_diagonal_subgroup(q: int, n: int, cap_group: int) -> dict:
    """Filter check: unitary-group members with zero lower-left block are
    exactly diag(A, conj(A)) for A in U(n)."""
    sp = make_space(q, n)
    fp = sp.fp
    g0 = enumerate_symplectic(sp, TAG_SP_0, cap_group)
    zero_c = g0.where(~g0.arr[:, n:, :n].any(axis=(1, 2, 3)))
    u_elems = unitary_group_elements(fp, n)
    want = np.sort(stack_keys(np.stack([block_diag(fp, a, a.conj()).a for a in u_elems]), q), kind="stable")
    return {
        "matches": np.array_equal(zero_c.keys, want),
        "count": len(zero_c),
        "unitary_order": len(u_elems),
    }


# ---------------------------------------------------------------------------
# stratum correspondence under the similitude
# ---------------------------------------------------------------------------

@per_cell
def _m_rows(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of M W for each row W of the cell's point table, and its inverse permutation; read-only."""
    rows = _action_table(enumerate_lagrangians(q, n), cayley(q, n).m.a[None])
    return rows[:, 0], _inverse_rows(rows)[:, 0]


@per_cell
def _cell_actions(q: int, n: int) -> dict[str, np.ndarray]:
    """The spf and sp0 action tables on the cell's point table, by tag; read-only.

    Only the upper translations u_b, the first half of the spf generators,
    are canonicalized; every other column is a row permutation.  The lower
    generator in u_b's place in the second half is l_b = J u_b^-1 J^-1,
    checked as l_b J u_b = J, so l_b W_i = jrow[inv_u[jinv[i]]]: jrow holds
    the rows of J W, jinv its inverse and inv_u the inverse of u_b's column.
    Each sp0 generator h_g is M g M^-1 for the spf generator in its place,
    checked as h_g M = M g, so h_g W_i = mrow[act_f[minv[i]]], likewise for
    M.  A failed identity raises ConsistencyError.
    """
    sp = make_space(q, n)
    fp, j, m = sp.fp, sp.j.a, cayley(q, n).m.a
    g_f, g_0 = (_generator_stacks(q, n, tag)[0] for tag in (TAG_SP_F, TAG_SP_0))
    if g_f.shape != g_0.shape or not np.array_equal(mm(fp, g_0, m), mm(fp, m, g_f)):
        raise ConsistencyError("an sp0 generator is not M g M^-1 for the spf generator in its place")
    ups, lows = np.split(g_f, [len(g_f) // 2])
    if ups.shape != lows.shape or not np.all(mm(fp, mm(fp, lows, j), ups) == j):
        raise ConsistencyError("a lower generator is not J u_b^-1 J^-1 for the u_b in its place")
    table = enumerate_lagrangians(q, n)
    act_u = _action_table(table, ups)
    inv_u = _inverse_rows(act_u)
    jrow = _action_table(table, j[None])
    jinv = _inverse_rows(jrow)
    act_f = np.concatenate([act_u, jrow[inv_u[jinv[:, 0]], 0]], axis=1)
    mrow, minv = _m_rows(q, n)
    return {TAG_SP_F: act_f, TAG_SP_0: mrow[act_f[minv]]}


def map_strata(q: int, n: int, cap_points: int) -> dict:
    """Compare the images of the h_e strata under M with the h_0 strata."""
    table = enumerate_lagrangians(q, n, cap_points)
    cd = cayley(q, n)
    mrow = _m_rows(q, n)[0]
    per = []
    for j in range(n + 1):
        h_rows = np.flatnonzero(table.h_rank == j)
        o_rows = np.flatnonzero(table.o_type == j)
        per.append(
            {
                "r": j,
                "h_count": len(h_rows),
                "o_count": len(o_rows),
                "image_equals_o_stratum": np.array_equal(np.sort(mrow[h_rows]), o_rows),
                "strata_literally_equal": np.array_equal(h_rows, o_rows),
            }
        )
    return {
        "strata": per,
        "all_mapped": all(p["image_equals_o_stratum"] for p in per),
        "counts_match": all(p["h_count"] == p["o_count"] for p in per),
        "cayley": cd.report(),
    }
