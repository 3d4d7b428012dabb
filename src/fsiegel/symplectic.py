"""The symplectic space E^{2n} with its three forms and three groups.

Forms, all valued in E (v, w column vectors of length 2n):

    omega(v, w) = t(v) J w               with J = (0, I; -I, 0)
    h_e(v, w)   = omega(v, conj(w))      anti-hermitian
    h_0(v, w)   = t(v) D conj(w)         hermitian, D = diag(-I, I)

Group tags:

    "sp"   symplectic over E            (t(g) J g = J)
    "spf"  symplectic over F            (additionally conjugation-fixed)
    "sp0"  h_0-unitary symplectic       (additionally preserves h_0)

Membership is always evaluated by two independent routes that must agree;
a disagreement raises ConsistencyError, which is treated as an internal
arithmetic bug.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, ParameterError, ResourceLimitError, ShapeError
from .field import EScalar, FieldParams, make_fields
from .linalg import Mat, block, lookup_rows, mm, stack_keys

TAG_SP_E = "sp"
TAG_SP_F = "spf"
TAG_SP_0 = "sp0"
TAGS = (TAG_SP_E, TAG_SP_F, TAG_SP_0)


class SpaceParams:
    """Dimension bookkeeping plus the fixed matrices J and D = diag(-I, I)."""

    def __init__(self, q: int, n: int):
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        self.q = q
        self.n = n
        self.fp = make_fields(q)
        self.dim = 2 * n
        fp, eye, zero = self.fp, Mat.identity(self.fp, n), Mat.zeros(self.fp, n, n)
        self.j = block(fp, [[zero, eye], [-eye, zero]])
        self.d_form = block(fp, [[-eye, zero], [zero, eye]])
        self.identity = Mat.identity(fp, self.dim)

    def __repr__(self):
        return f"SpaceParams(q={self.q}, n={self.n})"

    def e_vec(self, j: int) -> Mat:
        """Canonical basis column vector e_j, 0-indexed."""
        a = np.zeros((self.dim, 1, 2), dtype=np.int64)
        a[j, 0, 0] = 1
        return Mat(self.fp, a)

    def blocks(self, g: Mat) -> tuple[Mat, Mat, Mat, Mat]:
        n = self.n
        return (
            g.block(0, n, 0, n),
            g.block(0, n, n, 2 * n),
            g.block(n, 2 * n, 0, n),
            g.block(n, 2 * n, n, 2 * n),
        )


@lru_cache(maxsize=None)
def make_space(q: int, n: int) -> SpaceParams:
    return SpaceParams(q, n)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def _check_vec(sp: SpaceParams, v: Mat):
    if v.shape != (sp.dim, 1):
        raise ShapeError(f"expected a column vector of length {sp.dim}, got {v.shape}")


def omega(sp: SpaceParams, v: Mat, w: Mat) -> EScalar:
    _check_vec(sp, v)
    _check_vec(sp, w)
    return (v.T @ sp.j @ w).at(0, 0)


def h_e(sp: SpaceParams, v: Mat, w: Mat) -> EScalar:
    _check_vec(sp, v)
    _check_vec(sp, w)
    return (v.T @ sp.j @ w.conj()).at(0, 0)


def h_0(sp: SpaceParams, v: Mat, w: Mat) -> EScalar:
    _check_vec(sp, v)
    _check_vec(sp, w)
    return (v.T @ sp.d_form @ w.conj()).at(0, 0)


def form_gram(sp: SpaceParams, basis: Mat, form: str) -> Mat:
    """Gram matrix of h_e or h_0 on the columns of basis."""
    if form == "h_e":
        core = sp.j
    elif form == "h_0":
        core = sp.d_form
    else:
        raise ParameterError(f"unknown form {form!r}")
    return basis.T @ core @ basis.conj()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def is_member(sp: SpaceParams, g: Mat, tag: str) -> bool:
    """Exact membership test for the tagged group, double-checked.

    "sp" compares the block conditions with the matrix identity
    t(g) J g = J; "sp0" compares the four closed-form conditions on the
    blocks with h_0-preservation.  The two routes are equivalent, so any
    disagreement is raised as ConsistencyError.
    """
    if g.shape != (sp.dim, sp.dim):
        raise ShapeError(f"expected a {sp.dim}x{sp.dim} matrix, got {g.shape}")
    if tag == TAG_SP_F:
        return g.is_rational and is_member(sp, g, TAG_SP_E)
    if tag == TAG_SP_E:
        a, b, c, d = sp.blocks(g)
        eye = Mat.identity(sp.fp, sp.n)
        by_blocks = (a.T @ c == c.T @ a) and (d.T @ b == b.T @ d) and (a.T @ d - c.T @ b == eye)
        direct = g.T @ sp.j @ g == sp.j
        if by_blocks != direct:
            raise ConsistencyError("symplectic block conditions disagree with t(g)Jg = J")
        return direct
    if tag == TAG_SP_0:
        r, s_, t, v = sp.blocks(g)
        eye = Mat.identity(sp.fp, sp.n)
        closed = (
            t == s_.conj()
            and v == r.conj()
            and r @ s_.T == s_ @ r.T
            and r @ r.conj().T - s_ @ s_.conj().T == eye
        )
        direct = (g.T @ sp.j @ g == sp.j) and (g.T @ sp.d_form @ g.conj() == sp.d_form)
        if closed != direct:
            raise ConsistencyError("closed-form h_0-unitary conditions disagree with form preservation")
        return direct
    raise ParameterError(f"unknown group tag {tag!r}")


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

class GroupElement:
    """A validated member of one of the three groups."""

    __slots__ = ("mat", "tag")

    def __init__(self, mat: Mat, tag: str):
        self.mat = mat
        self.tag = tag

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.tag != other.tag:
            raise ParameterError("cannot multiply elements with different group tags")
        return GroupElement(self.mat @ other.mat, self.tag)

    def inverse(self) -> "GroupElement":
        inv = self.mat.inv()
        if inv is None:
            raise ConsistencyError("group element is singular")
        return GroupElement(inv, self.tag)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.tag == other.tag and self.mat == other.mat

    def __hash__(self):
        return hash((self.tag, self.mat))

    def __repr__(self):
        return f"GroupElement({self.tag}, {self.mat.encode()})"


def group_element(sp: SpaceParams, mat: Mat, tag: str) -> GroupElement:
    if not is_member(sp, mat, tag):
        raise ParameterError(f"matrix is not a member of {tag}")
    return GroupElement(mat, tag)


# ---------------------------------------------------------------------------
# generators and orders
# ---------------------------------------------------------------------------

def symmetric_basis(fp: FieldParams, n: int, over_e: bool) -> list[Mat]:
    """Basis of symmetric n x n matrices over F, doubled by s for E."""
    out = []
    scalars = [fp.one, fp.s] if over_e else [fp.one]
    for c in scalars:
        for i in range(n):
            m = Mat.zeros(fp, n, n).a.copy()
            m[i, i] = (c.re, c.im)
            out.append(Mat(fp, m))
        for i in range(n):
            for j in range(i + 1, n):
                m = Mat.zeros(fp, n, n).a.copy()
                m[i, j] = (c.re, c.im)
                m[j, i] = (c.re, c.im)
                out.append(Mat(fp, m))
    return out


def generators(sp: SpaceParams, tag: str) -> list[GroupElement]:
    """Standard generating set: the two opposite unipotent families.

    For "sp0" the generators are the conjugates of the "spf" family under
    the similitude that exchanges the two groups; the closure-order
    contract is enforced empirically by the test suite.
    """
    fp, n = sp.fp, sp.n
    if tag in (TAG_SP_E, TAG_SP_F):
        eye, zero = Mat.identity(fp, n), Mat.zeros(fp, n, n)
        gens = []
        for b in symmetric_basis(fp, n, over_e=(tag == TAG_SP_E)):
            gens.append(group_element(sp, block(fp, [[eye, b], [zero, eye]]), tag))
        for b in symmetric_basis(fp, n, over_e=(tag == TAG_SP_E)):
            gens.append(group_element(sp, block(fp, [[eye, zero], [b, eye]]), tag))
        return gens
    if tag == TAG_SP_0:
        from .cayley import cayley  # deferred: cayley builds on this module

        cd = cayley(sp.q, sp.n)
        m = cd.m
        m_inv = m.inv()
        out = []
        for g in generators(sp, TAG_SP_F):
            out.append(group_element(sp, m @ g.mat @ m_inv, TAG_SP_0))
        return out
    raise ParameterError(f"unknown group tag {tag!r}")


def group_order(tag: str, q: int, n: int) -> int:
    """|Sp(2n, q)| = q^{n^2} prod(q^{2i} - 1); over E substitute q^2."""
    if tag == TAG_SP_E:
        q = q * q
    elif tag not in (TAG_SP_F, TAG_SP_0):
        raise ParameterError(f"unknown group tag {tag!r}")
    order = q ** (n * n)
    for i in range(1, n + 1):
        order *= q ** (2 * i) - 1
    return order


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

class EnumeratedGroup:
    """A group's elements as rows: one coefficient stack sorted by key.

    `keys` holds each row's `Mat.key`, and both arrays are read-only.  A
    group-wide filter is a mask over `arr`, and `where(mask)` keeps its
    rows as a sub-table, still sorted.  Indexing a row builds its
    `GroupElement`, so a table also reads as the sorted list of its elements.
    """

    __slots__ = ("space", "tag", "arr", "keys")

    def __init__(self, space: SpaceParams, tag: str, arr: np.ndarray):
        self.space = space
        self.tag = tag
        self.arr = arr[np.argsort(stack_keys(arr))]
        self.keys = stack_keys(self.arr)
        for a in (self.arr, self.keys):
            a.setflags(write=False)  # a cached table is shared by every caller

    def __len__(self) -> int:
        return len(self.arr)

    def __getitem__(self, row: int) -> GroupElement:
        return GroupElement(Mat(self.space.fp, self.arr[row]), self.tag)

    def rows(self, mats: np.ndarray) -> np.ndarray:
        """Row of each matrix in a stack, or -1 where it is not an element."""
        return lookup_rows(self.keys, mats)

    def where(self, mask: np.ndarray) -> "EnumeratedGroup":
        """The sub-table of the rows the mask keeps."""
        return EnumeratedGroup(self.space, self.tag, self.arr[mask])


# frontier points per step call: bounds the temporaries of one call
_FRONTIER_CHUNK = 64


def frontier_closure(seed: np.ndarray, step, cap: int | None = None, what: str = "closure"):
    """Breadth-first closure of one array under a batched step map.

    `step` maps a frontier stack (F, ...) to its images (F, G, ...), one per
    generator, in a form where equal elements have equal bytes.  Each
    frontier is one BFS level, and its new elements are taken point by
    point and generator by generator, the order of a one-at-a-time queue.
    Returns (members, parent, via): the members stacked in discovery
    order, seed first, where member i > 0 is the image of member parent[i]
    under generator via[i].  Raises ResourceLimitError as soon as the
    closure would hold more than `cap` elements.
    """
    seed = np.ascontiguousarray(seed)
    seen = {seed.tobytes()}
    found, parent, via = [seed[None]], [np.array([-1])], [np.array([-1])]
    frontier, start = seed[None], 0
    while len(frontier):
        level = []
        for lo in range(0, len(frontier), _FRONTIER_CHUNK):
            images = np.ascontiguousarray(step(frontier[lo : lo + _FRONTIER_CHUNK]))
            width = images.shape[1]
            flat = images.reshape((-1,) + seed.shape)
            new = []
            for j, row in enumerate(flat):
                key = row.tobytes()
                if key not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise ResourceLimitError(f"{what} exceeds cap {cap}")
                    seen.add(key)
                    new.append(j)
            point, gen = np.divmod(np.array(new, dtype=np.int64), width)
            parent.append(start + lo + point)
            via.append(gen)
            level.append(flat[new])
        frontier, start = np.concatenate(level), start + len(frontier)
        found.append(frontier)
    return np.concatenate(found), np.concatenate(parent), np.concatenate(via)


@lru_cache(maxsize=None)
def _enumerated(q: int, n: int, tag: str) -> EnumeratedGroup:
    sp = make_space(q, n)
    mats = np.stack([g.mat.a for g in generators(sp, tag)])
    step = lambda frontier: mm(sp.fp, frontier[:, None], mats[None])  # noqa: E731
    expected = group_order(tag, q, n)
    rows = frontier_closure(sp.identity.a, step, expected + 1, "group closure")[0]
    if len(rows) != expected:
        raise ConsistencyError(
            f"closure of {tag} generators has {len(rows)} elements, order formula gives {expected}"
        )
    return EnumeratedGroup(sp, tag, rows)


def check_group_cap(tag: str, q: int, n: int, cap: int) -> None:
    """Refuse a group of order above the cap, from the order formula."""
    order = group_order(tag, q, n)
    if order > cap:
        raise ResourceLimitError(f"group order {order} exceeds cap {cap}")


def enumerate_symplectic(sp: SpaceParams, tag: str, cap: int) -> EnumeratedGroup:
    """Full enumeration of the tagged group, refused cleanly over the cap."""
    check_group_cap(tag, sp.q, sp.n, cap)
    return _enumerated(sp.q, sp.n, tag)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def permutation_embed(sp: SpaceParams, t: Mat) -> GroupElement:
    """diag(t(T)^-1, T) for a permutation matrix T; lies in spf and sp0."""
    n = sp.n
    if t.shape != (n, n):
        raise ShapeError(f"expected an {n}x{n} matrix, got {t.shape}")
    arr = t.a
    ok = (
        t.is_rational
        and bool(np.all((arr[..., 0] == 0) | (arr[..., 0] == 1)))
        and bool(np.all(arr[..., 0].sum(axis=0) == 1))
        and bool(np.all(arr[..., 0].sum(axis=1) == 1))
    )
    if not ok:
        raise ParameterError("not a permutation matrix")
    inv_t = t.inv()
    g = block(sp.fp, [[inv_t.T, Mat.zeros(sp.fp, n, n)], [Mat.zeros(sp.fp, n, n), t]])
    if not (is_member(sp, g, TAG_SP_F) and is_member(sp, g, TAG_SP_0)):
        raise ConsistencyError("permutation embedding failed membership")
    return GroupElement(g, TAG_SP_F)
