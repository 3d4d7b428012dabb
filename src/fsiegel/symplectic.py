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

from functools import wraps
from itertools import combinations, product

import numpy as np

from .errors import ConsistencyError, ParameterError, ResourceLimitError, ShapeError, count_text
from .field import EScalar, FieldParams, epsilon_f, make_fields
from .linalg import PAIR_DTYPE, Mat, RowTable, block, block_diag, conj_arr, lookup_rows, mm, stack_keys

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
        self.d_form = block_diag(fp, -eye, eye)
        self.identity = Mat.identity(fp, self.dim)

    def __repr__(self):
        return f"SpaceParams(q={self.q}, n={self.n})"

    def e_vec(self, j: int) -> Mat:
        """Canonical basis column vector e_j, 0-indexed."""
        return self.identity.col(j)

    def blocks(self, g: Mat) -> tuple[Mat, Mat, Mat, Mat]:
        n = self.n
        return (
            g.block(0, n, 0, n),
            g.block(0, n, n, 2 * n),
            g.block(n, 2 * n, 0, n),
            g.block(n, 2 * n, n, 2 * n),
        )


# the one cell slot: the (q, n) in hand under "cell", its objects under (builder, q, n, *key)
_slot: dict = {}


def _frozen(value):
    """The value itself, with every array in it, inside tuples and dicts too, made read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, dict)):
        for v in value.values() if isinstance(value, dict) else value:
            _frozen(v)
    return value


def per_cell(build):
    """Memoize `build(q, n, *key)` in the one cell slot, its arrays made read-only for every caller.

    The slot is the only cache of per-cell objects: the space, the generators, the similitude
    and the tables.  Asking for another (q, n) drops the last cell's first, so a grid holds
    one cell's at a time.
    """

    @wraps(build)
    def cached(q: int, n: int, *key):
        entry = (build, q, n, *key)
        if entry not in _slot:
            if _slot.get("cell") != (q, n):
                _slot.clear()
                _slot["cell"] = (q, n)
            _slot[entry] = _frozen(build(q, n, *key))
        return _slot[entry]

    return cached


@per_cell
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

def members(sp: SpaceParams, stack: np.ndarray, tag: str) -> np.ndarray:
    """Exact membership of each matrix of a stack (..., 2n, 2n, 2) in the tagged group, as a bool array.

    Two equivalent routes: the block conditions ("sp": t(A)C, t(D)B
    symmetric and t(A)D - t(C)B = I; "sp0": C = conj B, D = conj A, A t(B)
    symmetric and A A* - B B* = I) against the form identities (t(g)Jg = J,
    and for "sp0" t(g) D conj(g) = D); a matrix on which they disagree
    raises ConsistencyError.  "spf" is "sp" and rational.
    """
    g = np.asarray(stack) % sp.q
    if g.shape[-3:] != (sp.dim, sp.dim, 2):
        raise ShapeError(f"expected {sp.dim}x{sp.dim} matrices, got shape {g.shape}")
    if tag not in TAGS:
        raise ParameterError(f"unknown group tag {tag!r}")
    fp, n, q = sp.fp, sp.n, sp.q
    t = lambda x: np.swapaxes(x, -3, -2)  # noqa: E731
    same = lambda x, y: np.all(x == y, axis=(-3, -2, -1))  # noqa: E731
    a, b, c, d = g[..., :n, :n, :], g[..., :n, n:, :], g[..., n:, :n, :], g[..., n:, n:, :]
    direct = same(mm(fp, mm(fp, t(g), sp.j.a), g), sp.j.a)
    if tag == TAG_SP_0:
        ab = mm(fp, a, t(b))
        by_blocks = same(c, conj_arr(b, q)) & same(d, conj_arr(a, q)) & same(ab, t(ab))
        unit = mm(fp, a, conj_arr(t(a), q)) - mm(fp, b, conj_arr(t(b), q))
        direct &= same(mm(fp, mm(fp, t(g), sp.d_form.a), conj_arr(g, q)), sp.d_form.a)
    else:
        ac, db = mm(fp, t(a), c), mm(fp, t(d), b)
        by_blocks = same(ac, t(ac)) & same(db, t(db))
        unit = mm(fp, t(a), d) - mm(fp, t(c), b)
    by_blocks &= same(unit % q, Mat.identity(fp, n).a)
    if np.any(by_blocks != direct):
        raise ConsistencyError(f"the {tag} block conditions disagree with its form identities")
    return direct & ~g[..., 1].any(axis=(-2, -1)) if tag == TAG_SP_F else direct


def is_member(sp: SpaceParams, g: Mat, tag: str) -> bool:
    """`members` of one matrix."""
    return bool(members(sp, g.a, tag))


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


def _mat(g) -> Mat:
    return g.mat if isinstance(g, GroupElement) else g


def _generator_stack(sp: SpaceParams, gens) -> np.ndarray:
    """Generators, as `GroupElement`s or `Mat`s, in one stack (G, 2n, 2n, 2); G may be 0."""
    mats = [_mat(g).a for g in gens]
    return np.array(mats, dtype=PAIR_DTYPE).reshape(len(mats), sp.dim, sp.dim, 2)


def group_element(sp: SpaceParams, mat: Mat, tag: str) -> GroupElement:
    if not is_member(sp, mat, tag):
        raise ParameterError(f"matrix is not a member of {tag}")
    return GroupElement(mat, tag)


# ---------------------------------------------------------------------------
# generators and orders
# ---------------------------------------------------------------------------

def symmetric_basis(fp: FieldParams, n: int, over_e: bool) -> np.ndarray:
    """Basis of symmetric n x n matrices over F, doubled by s for E, as one stack (k, n, n, 2).

    For each scalar (1, then s over E) the diagonal units come first, then
    the off-diagonal pairs E_ij + E_ji, i < j, in row order.
    """
    scalars = [fp.one, fp.s] if over_e else [fp.one]
    spots = [(i, i) for i in range(n)] + list(combinations(range(n), 2))
    out = np.zeros((len(scalars) * len(spots), n, n, 2), dtype=PAIR_DTYPE)
    for k, (c, (i, j)) in enumerate(product(scalars, spots)):
        out[k, i, j] = out[k, j, i] = (c.re, c.im)
    return out


def generators(sp: SpaceParams, tag: str) -> tuple[GroupElement, ...]:
    """Standard generating set: the two opposite unipotent families, for "sp0" conjugated by the
    similitude that exchanges the two groups; the closure-order contract is enforced by the test
    suite.  The elements are the rows of the cell's checked stack (`_generator_stacks`), cached
    beside it."""
    return _generator_stacks(sp.q, sp.n, tag)[2]


@per_cell
def _generator_stacks(q: int, n: int, tag: str) -> tuple[np.ndarray, np.ndarray, tuple[GroupElement, ...]]:
    """The tag's generators and their inverses as two stacks (G, 2n, 2n, 2), then as elements.

    "sp" and "spf" are (I, B; 0, I), then (I, 0; B, I), for B in `symmetric_basis`, inverted
    by -B; "sp0" is the one product M G_f M^-1 over the spf stack G_f, and likewise its inverse.
    One `members` call checks the stack (ConsistencyError on a non-member); the test oracles
    check each inverse against `Mat.inv`.
    """
    sp = make_space(q, n)
    fp = sp.fp
    if tag == TAG_SP_0:
        from .cayley import cayley  # deferred: cayley builds on this module

        m = cayley(q, n).m
        m_inv = m.inv()
        gens, invs = (mm(fp, mm(fp, m.a, g), m_inv.a) for g in _generator_stacks(q, n, TAG_SP_F)[:2])
    elif tag in (TAG_SP_E, TAG_SP_F):
        basis = symmetric_basis(fp, n, over_e=(tag == TAG_SP_E))
        # (generators, inverses) x (upper, lower) x B
        both = np.zeros((2, 2, len(basis), sp.dim, sp.dim, 2), dtype=PAIR_DTYPE)
        both[:] = sp.identity.a
        both[:, 0, :, :n, n:] = both[:, 1, :, n:, :n] = np.stack([basis, -basis % q])
        gens, invs = both.reshape(2, -1, sp.dim, sp.dim, 2)
    else:
        raise ParameterError(f"unknown group tag {tag!r}")
    if not members(sp, gens, tag).all():
        raise ConsistencyError(f"a built {tag} generator is not a member of {tag}")
    return gens, invs, tuple(GroupElement(Mat(fp, g), tag) for g in gens)


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


def generator_count(tag: str, n: int) -> int:
    """len(generators(sp, tag)): two unipotent families of n(n+1)/2 each, doubled over E."""
    if tag not in (TAG_SP_E, TAG_SP_F, TAG_SP_0):
        raise ParameterError(f"unknown group tag {tag!r}")
    return n * (n + 1) * (2 if tag == TAG_SP_E else 1)


def gl_order(q: int, k: int) -> int:
    """|GL(k, q)| = prod_{i<k} (q^k - q^i)."""
    order = 1
    for i in range(k):
        order *= q**k - q**i
    return order


def unitary_order(q: int, m: int) -> int:
    """|U(m, q)| = q^{m(m-1)/2} prod_{i=1}^m (q^i - (-1)^i), the unitary group over E = GF(q^2)."""
    order = q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        order *= q**i - (-1) ** i
    return order


def orthogonal_order(q: int, k: int) -> int:
    """|O(k, q)| of t(S) S = I: 2q^{m^2} prod_{i=1}^m (q^{2i} - 1) for k = 2m + 1, and 2q^{m(m-1)}
    (q^m - eps) prod_{i=1}^{m-1} (q^{2i} - 1) for k = 2m > 0, eps = +1 exactly when (-1)^m is a square."""
    if k == 0:
        return 1
    m, odd = divmod(k, 2)
    order = 2 * q ** (m * m) if odd else 2 * q ** (m * (m - 1)) * (q**m - epsilon_f(q) ** m)
    for i in range(1, m + odd):
        order *= q ** (2 * i) - 1
    return order


def v_k_orbit_size(q: int, n: int, k: int) -> int:
    """|orbit of V_k under sp0| = |Sp(2n,q)| / (|GL(k,q)| |U(n-k,q)| q^{k(k+1)/2 + 2k(n-k)}).

    The stabilizer of V_k is a parabolic: a Levi factor GL(k) x U(n-k) and a
    unipotent radical of that order (Taylor, The Geometry of the Classical
    Groups; Wan, Geometry of Classical Groups over Finite Fields).
    """
    stab = gl_order(q, k) * unitary_order(q, n - k) * q ** (k * (k + 1) // 2 + 2 * k * (n - k))
    return group_order(TAG_SP_0, q, n) // stab


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

class EnumeratedGroup(RowTable):
    """A group's elements as rows of a `RowTable`, with the group's tag.

    A group-wide filter is a mask over `arr`, kept by `where`.  Indexing a
    row builds its `GroupElement`: a table reads as its sorted elements.
    """

    __slots__ = ("space", "tag")

    def __init__(self, space: SpaceParams, tag: str, arr: np.ndarray, keys: np.ndarray | None = None):
        super().__init__(arr, space.q, keys)
        self.space, self.tag = space, tag

    def __getitem__(self, row: int) -> GroupElement:
        return GroupElement(Mat(self.space.fp, self.arr[row]), self.tag)

    def where(self, mask: np.ndarray) -> "EnumeratedGroup":
        """The sub-table of the rows the mask keeps, sorted as they are."""
        return EnumeratedGroup(self.space, self.tag, self.arr[mask], self.keys[mask])


# frontier points per step call: a BFS level of a closure under the caps is one or two calls
_FRONTIER_CHUNK = 2048


def frontier_closure(seed: np.ndarray, step, q: int, cap: int | None = None, what: str = "closure"):
    """Breadth-first closure of one array under a batched step map, with a Schreier vector.

    `step` maps a frontier stack (F, ...) to its images (F, G, ...), one per
    generator, with entries below q for `stack_keys`.  A BFS level is taken
    in chunks of `_FRONTIER_CHUNK` points, each keeping the first image of
    every code not seen before, in image order: a one-at-a-time queue's.
    Returns (members, parent, via): the members stacked in discovery order,
    seed first, where member i > 0 is the image of member parent[i] under
    generator via[i].  Raises ResourceLimitError in the chunk where the
    closure would first hold more than `cap` elements.
    """
    seed = np.ascontiguousarray(seed)
    seen = stack_keys(seed[None], q)  # sorted
    found, parent, via = [seed[None]], [np.array([-1])], [np.array([-1])]
    frontier, start = seed[None], 0
    while len(frontier):
        level = []
        for lo in range(0, len(frontier), _FRONTIER_CHUNK):
            images = step(frontier[lo : lo + _FRONTIER_CHUNK])
            width = images.shape[1]
            flat = images.reshape((-1,) + seed.shape)
            keys, first = np.unique(stack_keys(flat, q), return_index=True)
            fresh = lookup_rows(seen, keys) < 0
            if cap is not None and len(seen) + np.count_nonzero(fresh) > cap:
                raise ResourceLimitError(f"{what} exceeds cap {cap}")
            seen = np.sort(np.concatenate([seen, keys[fresh]]), kind="stable")  # a merge of two sorted runs
            new = np.sort(first[fresh], kind="stable")
            point, gen = np.divmod(new, width)
            parent.append(start + lo + point)
            via.append(gen)
            level.append(flat[new])
        frontier, start = np.concatenate(level), start + len(frontier)
        found.append(frontier)
    return np.concatenate(found), np.concatenate(parent), np.concatenate(via)


@per_cell
def _enumerated(q: int, n: int, tag: str) -> EnumeratedGroup:
    sp = make_space(q, n)
    mats = _generator_stacks(q, n, tag)[0]
    step = lambda frontier: mm(sp.fp, frontier[:, None], mats[None])  # noqa: E731
    expected = group_order(tag, q, n)
    try:  # a closure past its order is a wrong generator or formula, not a resource limit
        rows = frontier_closure(sp.identity.a, step, q, expected + 1, "group closure")[0]
        size = len(rows)
    except ResourceLimitError:
        size = f"more than {expected + 1}"
    if size != expected:
        raise ConsistencyError(f"closure of {tag} generators has {size} elements, order formula gives {expected}")
    return EnumeratedGroup(sp, tag, rows)


def check_group_cap(tag: str, q: int, n: int, cap: int) -> None:
    """Refuse a group of order above the cap, from the order formula."""
    order = group_order(tag, q, n)
    if order > cap:
        raise ResourceLimitError(f"group order {count_text(order)} exceeds cap {cap}")


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
    g = block_diag(sp.fp, inv_t.T, t)
    if not (is_member(sp, g, TAG_SP_F) and is_member(sp, g, TAG_SP_0)):
        raise ConsistencyError("permutation embedding failed membership")
    return GroupElement(g, TAG_SP_F)
