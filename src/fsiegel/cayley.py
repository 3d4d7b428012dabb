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

from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConsistencyError, ParameterError, ResourceLimitError
from .field import EScalar, epsilon_f, tau_f
from .lagrangian import Lagrangian, enumerate_lagrangians, from_basis, l_plus, span_images
from .linalg import Mat, block, mm, stack_keys
from .orbits import act, orbit, stabilizer_elements
from .symplectic import (
    TAG_SP_0,
    TAG_SP_E,
    TAG_SP_F,
    GroupElement,
    SpaceParams,
    enumerate_symplectic,
    generators,
    group_element,
    group_order,
    is_member,
    make_space,
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


@lru_cache(maxsize=None)
def cayley(q: int, n: int) -> CayleyData:
    """Construct and verify the similitude for the given cell."""
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

    m_inv = m.inv()
    for g in generators(sp, TAG_SP_F):
        fwd = m @ g.mat @ m_inv
        if not is_member(sp, fwd, TAG_SP_0):
            raise ConsistencyError("a rational generator failed to conjugate into the unitary group")
        if not is_member(sp, m_inv @ fwd @ m, TAG_SP_F):
            raise ConsistencyError("round-trip conjugation left the rational group")

    return CayleyData(sp, branch, m, multiplier, conformal, normalized, c, c_conformal, params)


def verify_conjugation(cd: CayleyData, q: int, n: int, cap_group: int) -> dict:
    """Generator-level and, when enumerable, element-level conjugation checks."""
    sp = cd.space
    m, m_inv = cd.m, cd.m.inv()
    conj_gens = [m @ g.mat @ m_inv for g in generators(sp, TAG_SP_F)]
    forward = [is_member(sp, g, TAG_SP_0) for g in conj_gens]
    backward = [is_member(sp, m_inv @ g @ m, TAG_SP_F) for g in conj_gens]
    out = {
        "generators": len(conj_gens),
        "forward_ok": all(forward),
        "backward_ok": all(backward),
        "identity_fixed": m @ sp.identity @ m_inv == sp.identity,
    }
    order = group_order(TAG_SP_F, q, n)
    if order <= cap_group:
        gf = enumerate_symplectic(sp, TAG_SP_F, cap_group)
        g0 = enumerate_symplectic(sp, TAG_SP_0, cap_group)
        conj_keys = np.sort(stack_keys(mm(sp.fp, mm(sp.fp, m.a, gf.arr), m_inv.a)))
        out["closure_size"] = len(g0)
        out["closure_matches_order"] = len(g0) == order
        out["conjugate_set_equal"] = np.array_equal(conj_keys, g0.keys)
    else:
        out["closure_size"] = None
    failing = [i for i, ok in enumerate(forward) if not ok]
    if failing:
        out["failing_generators"] = failing
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
    """Span of e_j + e_{n+j} for j < k and e_j for k <= j < n."""
    if not 0 <= k <= sp.n:
        raise ParameterError(f"k must lie in 0..{sp.n}, got {k}")
    n = sp.n
    cols = np.zeros((2 * n, n, 2), dtype=np.int64)
    for j in range(k):
        cols[j, j, 0] = 1
        cols[n + j, j, 0] = 1
    for j in range(k, n):
        cols[j, j, 0] = 1
    w = from_basis(sp, Mat(sp.fp, cols))
    if act(partial_cayley(sp, k), l_plus(sp)) != w:
        raise ConsistencyError("partial transform does not carry the seed onto V_k")
    return w


# ---------------------------------------------------------------------------
# small classical groups by brute force
# ---------------------------------------------------------------------------

_SCAN_LIMIT = 20_000_000


def _scan_size(fp, m: int, over_e: bool) -> int:
    """Candidate m x m matrices a scan tries, refused over _SCAN_LIMIT."""
    total = fp.q ** (2 * m * m if over_e else m * m)
    if total > _SCAN_LIMIT:
        raise ResourceLimitError(f"scan of {total} candidate matrices exceeds limit")
    return total


def _scan_matrices(fp, m: int, over_e: bool, keep) -> list[Mat]:
    if m == 0:
        return [Mat.identity(fp, 0)]
    coords = 2 * m * m if over_e else m * m
    total = _scan_size(fp, m, over_e)
    out = []
    shape = (fp.q,) * coords
    chunk = 1 << 18
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total))
        digits = np.stack(np.unravel_index(ids, shape), axis=-1)
        if over_e:
            arr = digits.reshape(-1, m, m, 2).astype(np.int64, copy=False)
        else:
            arr = np.zeros((len(ids), m, m, 2), dtype=np.int64)
            arr[..., 0] = digits.reshape(-1, m, m)
        mask = keep(arr)
        out.extend(np.ascontiguousarray(a) for a in arr[mask])
    return [Mat(fp, a) for a in out]


def orthogonal_group_elements(fp, k: int) -> list[Mat]:
    """All k x k base-field matrices S with t(S) S = I."""
    eye = Mat.identity(fp, k).a

    def keep(arr):
        prod = mm(fp, arr.swapaxes(1, 2), arr)
        return np.all(prod == eye, axis=(1, 2, 3))

    return _scan_matrices(fp, k, over_e=False, keep=keep)


def unitary_group_elements(fp, m: int) -> list[Mat]:
    """All m x m extension-field matrices T with star(T) T = I."""
    eye = Mat.identity(fp, m).a
    q = fp.q

    def keep(arr):
        star = arr.swapaxes(1, 2).copy()
        star[..., 1] = (-star[..., 1]) % q
        prod = mm(fp, star, arr)
        return np.all(prod == eye, axis=(1, 2, 3))

    return _scan_matrices(fp, m, over_e=True, keep=keep)


# ---------------------------------------------------------------------------
# stabilizer structure
# ---------------------------------------------------------------------------

def _imaginary_symmetric(fp, k: int):
    """All purely imaginary symmetric k x k matrices."""
    slots = [(i, j) for i in range(k) for j in range(i, k)]
    for vals in product(range(fp.q), repeat=len(slots)):
        arr = np.zeros((k, k, 2), dtype=np.int64)
        for (i, j), v in zip(slots, vals):
            arr[i, j, 1] = v
            arr[j, i, 1] = v
        yield Mat(fp, arr)


def stabilizer_structure(q: int, n: int, k: int, cap_group: int, cap_points: int) -> dict:
    """Order and subgroup checks for the stabilizer of V_k in the unitary group.

    The predicted order is |O(k)| * |U(n-k)| * q^{k(k+1)/2} with both factor
    orders obtained by brute-force scans.  When the group fits under the cap
    the stabilizer is filtered from the group table as one mask and the
    predicted factor subgroups are looked up in its rows; otherwise only
    the order arithmetic against the orbit size is reported.
    """
    sp = make_space(q, n)
    fp = sp.fp
    tk = partial_cayley(sp, k)
    vk = v_k(sp, k)
    # refuse before scanning: both scan sizes, then the capped orbit
    _scan_size(fp, k, over_e=False)
    _scan_size(fp, n - k, over_e=True)
    orb = orbit(vk, generators(sp, TAG_SP_0), cap=cap_points)
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
        "orbit_size": orb.size,
        "group_order": order,
        "quotient_matches_orbit": order % predicted == 0 and order // predicted == orb.size,
    }
    if order > cap_group:
        out["mode"] = "reduced"
        return out
    out["mode"] = "full"
    g0 = enumerate_symplectic(sp, TAG_SP_0, cap_group)
    stab = stabilizer_elements(vk, g0)
    out["filtered_order"] = len(stab)
    out["filtered_matches_predicted"] = len(stab) == predicted
    out["orbit_stabilizer_consistent"] = len(stab) * orb.size == order

    # the Levi factor diag(S, T, S, conj T) and the unipotent factor
    # T_k (I, diag(B, 0); 0, I) T_k^-1 are looked up in the stabilizer's rows
    levi = [
        _block_diag(fp, _block_diag(fp, s, t), _block_diag(fp, s, t.conj())) for s in o_elems for t in u_elems
    ]
    found = stab.rows(np.stack([g.a for g in levi])) >= 0
    out["levi_contained"] = bool(found.all()) and all(is_member(sp, g, TAG_SP_0) for g in levi)

    eye_n, zero_n = Mat.identity(fp, n), Mat.zeros(fp, n, n)
    uni = np.stack([
        block(fp, [[eye_n, _block_diag(fp, b1, Mat.zeros(fp, n - k, n - k))], [zero_n, eye_n]]).a
        for b1 in _imaginary_symmetric(fp, k)
    ])
    found = stab.rows(mm(fp, mm(fp, tk.mat.a, uni), tk.mat.inv().a)) >= 0
    out["unipotent_contained"] = bool(found.all())
    return out


def _block_diag(fp, a: Mat, b: Mat) -> Mat:
    z1 = Mat.zeros(fp, a.rows, b.cols)
    z2 = Mat.zeros(fp, b.rows, a.cols)
    return block(fp, [[a, z1], [z2, b]])


def unitary_diagonal_subgroup(q: int, n: int, cap_group: int) -> dict:
    """Filter check: unitary-group members with zero lower-left block are
    exactly diag(A, conj(A)) for A in U(n)."""
    sp = make_space(q, n)
    fp = sp.fp
    g0 = enumerate_symplectic(sp, TAG_SP_0, cap_group)
    zero_c = g0.where(~g0.arr[:, n:, :n].any(axis=(1, 2, 3)))
    u_elems = unitary_group_elements(fp, n)
    want = np.sort(stack_keys(np.stack([_block_diag(fp, a, a.conj()).a for a in u_elems])))
    return {
        "matches": np.array_equal(zero_c.keys, want),
        "count": len(zero_c),
        "unitary_order": len(u_elems),
    }


# ---------------------------------------------------------------------------
# stratum correspondence under the similitude
# ---------------------------------------------------------------------------

def map_strata(q: int, n: int, cap_points: int) -> dict:
    """Compare the images of the h_e strata under M with the h_0 strata."""
    cd = cayley(q, n)
    table = enumerate_lagrangians(q, n, cap_points)
    per = []
    for j in range(n + 1):
        h_rows = np.flatnonzero(table.h_rank == j)
        o_rows = np.flatnonzero(table.o_type == j)
        images = span_images(cd.space, cd.m.a[None], table.bases[h_rows])[:, 0]
        per.append(
            {
                "r": j,
                "h_count": len(h_rows),
                "o_count": len(o_rows),
                "image_equals_o_stratum": np.array_equal(np.sort(table.rows(images)), o_rows),
                "strata_literally_equal": np.array_equal(h_rows, o_rows),
            }
        )
    return {
        "strata": per,
        "all_mapped": all(p["image_equals_o_stratum"] for p in per),
        "counts_match": all(p["h_count"] == p["o_count"] for p in per),
        "cayley": cd.report(),
    }
